"""Table-driven fuzz of the command line.

Every key of the run-config table (``CONFIG_KEYS``) and of the grid-config
table (``cli.GRID_KEYS``) gets a small valid value or a bad one: NaN, an
infinity, zero, a negative, 1e-200, an empty or a non-numeric string; a
drawn call may also carry one misspelt key or section.  Every call must end
as a status or as an error kind that README documents, with that kind's
exit code, strict JSON on stdout and nothing on stderr.  Sizes are capped so
that no example asks for much memory or time.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from signvote.adversaries import STRATEGIES
from signvote.cli import GRID_KEYS, main
from signvote.models import MODEL_KINDS
from signvote.optimizers import RULES
from signvote.simulation import CONFIG_KEYS
from signvote.theory import NOISE_FAMILIES

README = Path(__file__).resolve().parents[1] / "README.md"

BAD = ("nan", "inf", "-inf", "0", "-1", "-2.5", "1e-200", "", "abc")

# small valid values per run-config key: workers <= 7, samples <= 64, batch
# size <= 8, input_dim <= 8, hidden_dim <= 4, rounds <= 3
RUN_VALUES = {
    ("model", "kind"): MODEL_KINDS,
    ("model", "input_dim"): ("1", "3", "8"),
    ("model", "hidden_dim"): ("1", "4"),
    ("model", "num_classes"): ("2", "3"),
    ("data", "source"): ("synthetic", "idx"),
    ("data", "kind"): MODEL_KINDS,
    ("data", "samples"): ("1", "9", "64"),
    ("data", "noise_level"): ("0", "0.5"),
    ("data", "images"): ("no-such-images.idx", "."),
    ("data", "labels"): ("no-such-labels.idx", "."),
    ("optimizer", "rule"): RULES,
    ("optimizer", "eta"): ("0.05", "1e3", "1e308"),
    ("optimizer", "beta"): ("0", "0.9"),
    ("optimizer", "batch_size"): ("1", "8"),
    ("optimizer", "decay_factor"): ("1", "10"),
    ("optimizer", "decay_every"): ("1", "2"),
    ("adversary", "strategy"): STRATEGIES,
    ("adversary", "alpha"): ("0", "0.2", "0.6"),
    ("run", "workers"): ("1", "3", "7"),
    ("run", "rounds"): ("1", "3"),
    ("run", "seed"): ("0", "18446744073709551615"),
    ("run", "eval_every"): ("1", "2"),
}
RUN_BASE = {
    ("model", "kind"): "logistic-regression", ("model", "input_dim"): "3",
    ("model", "num_classes"): "2", ("data", "samples"): "16",
    ("data", "images"): "no-such-images.idx", ("data", "labels"): "no-such-labels.idx",
    ("optimizer", "rule"): "signsgd", ("optimizer", "eta"): "0.05",
    ("optimizer", "batch_size"): "4", ("adversary", "strategy"): "blind-invert",
    ("adversary", "alpha"): "0.2", ("run", "workers"): "5", ("run", "rounds"): "2",
    ("run", "eval_every"): "1",
}

# small valid values per grid-config key: vote workers <= 101, Monte Carlo
# samples in 1000-2000
GRID_VALUES = {
    ("sign-error", "snr"): ("0.5", "2,1e-200", "1e-170"),
    ("sign-error", "families"): (*NOISE_FAMILIES, "gaussian,laplace"),
    ("sign-error", "samples"): ("1000", "2000"),
    ("vote", "workers"): ("1", "11,101"),
    ("vote", "p"): ("0.6", "1", "0.5,0.9"),
    ("vote", "alpha"): ("0", "0.3"),
    ("mc", "seed"): ("0", "5"),
}
GRID_BASE = {("sign-error", "snr"): "1", ("sign-error", "families"): "gaussian",
             ("sign-error", "samples"): "1000", ("vote", "workers"): "11",
             ("vote", "p"): "0.9", ("vote", "alpha"): "0"}

COMMANDS = (["run"], ["sweep", "--alphas", "0,0.2", "--rules", "signsgd"],
            ["gradient-check", "--points", "1"])

SETTINGS = settings(max_examples=150, deadline=None)


def readme_error_kinds() -> dict:
    """{kind: exit code} from README's table of error kinds."""
    text = README.read_text()
    kinds = {}
    for line in text[text.index("| kind | exit | printed by |"):].splitlines()[2:]:
        row = re.fullmatch(r"\s*\| `([a-z-]+)` \| (\d) \|.*", line)
        if row is None:
            break
        kinds[row[1]] = int(row[2])
    return kinds


ERROR_KINDS = readme_error_kinds()


def config_text(values: dict) -> str:
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items())


def drawn_config(table: dict, base: dict):
    """The base config with up to three keys set to a valid or a bad value, and
    perhaps one misspelt key or section."""
    def values(keys):
        return st.fixed_dictionaries(
            {key: st.one_of(st.sampled_from(table[key]), st.sampled_from(BAD)) for key in keys})

    drawn = st.lists(st.sampled_from(sorted(table)), max_size=3, unique=True).flatmap(values)
    # where to misspell one key: in its name, in its section, or (two times in three) nowhere
    misspelt = st.tuples(st.sampled_from(sorted(table)),
                         st.sampled_from(("key", "section", None, None, None, None)))

    def build(drawn, typo):
        config = {**base, **drawn}
        (section, key), where = typo
        if where is not None:
            config[(section + "x", key) if where == "section" else (section, key + "x")] = "1"
        return config

    return st.builds(build, drawn, misspelt)


def call(argv) -> tuple:
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def assert_documented(code, stdout, stderr) -> None:
    assert code in (0, 1, 2)
    assert stderr == ""
    payload = json.loads(stdout.splitlines()[-1], parse_constant=reject_constant)
    if "error" in payload:
        assert payload["error"] in ERROR_KINDS, payload
        assert code == ERROR_KINDS[payload["error"]], payload
    else:
        assert isinstance(payload["status"], str), payload


def test_tables_cover_every_key():
    assert set(RUN_VALUES) == set(CONFIG_KEYS)
    assert set(GRID_VALUES) == set(GRID_KEYS)


def test_readme_lists_every_kind():
    assert ERROR_KINDS == {"usage": 2, "config-not-found": 2, "config-invalid": 2,
                           "dataset-error": 2, "diverged": 1, "empty-grid": 2,
                           "no-valid-runs": 2}


@SETTINGS
@given(config=drawn_config(RUN_VALUES, RUN_BASE), command=st.sampled_from(COMMANDS))
def test_run_config(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(config_text(config))
        out = ["--out", str(Path(tmp) / "out")] if command[0] != "gradient-check" else []
        assert_documented(*call([command[0], "--config", str(path), *out, *command[1:]]))


@SETTINGS
@given(config=drawn_config(GRID_VALUES, GRID_BASE))
def test_grid_config(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.cfg"
        path.write_text(config_text(config))
        assert_documented(*call(["verify-bounds", "--out", str(Path(tmp) / "out"),
                                 "--grid-config", str(path)]))
