"""Table-driven fuzz of the command line.

Every key of the run-config table (``CONFIG_KEYS``) and of the grid-config
table (``cli.GRID_KEYS``) gets a small valid value or a bad one: NaN, an
infinity, zero, a negative, 1e-200, an empty or a non-numeric string; a
drawn call may also carry one misspelt key or section, and a run config
starts from a synthetic or an IDX base.  Every call must end
as a status or as an error kind that README documents, with that kind's
exit code, strict JSON on stdout and nothing on stderr.  Sizes are capped so
that no example asks for much memory or time.

Two file inputs are fuzzed too: the bytes of an IDX image and label pair
given to ``run``, and the ``summary.json`` and ``metrics.csv`` of finished
runs given to ``report``.  Every file written is under 10 KB, while an IDX
header may declare up to 2^32 - 1 images or labels.  A config echo is text,
as a config file is; a typed value in it (a boolean in any key, or a number
in a string key) must make ``report`` skip the run.

The argv itself is drawn from a small alphabet of subcommands, flags and
values, good and bad: every call ends as one JSON object on stdout.
"""

import contextlib
import io
import json
import os
import re
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from signvote.adversaries import STRATEGIES
from signvote.cli import GRID_KEYS, main
from signvote.models import IMAGE_MAGIC, LABEL_MAGIC, MODEL_KINDS
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
    ("data", "samples"): ("1", "9", "64"),
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
    ("optimizer", "rule"): "signsgd", ("optimizer", "eta"): "0.05",
    ("optimizer", "batch_size"): "4", ("adversary", "strategy"): "blind-invert",
    ("adversary", "alpha"): "0.2", ("run", "workers"): "5", ("run", "rounds"): "2",
    ("run", "eval_every"): "1",
}
# the same run on IDX files that do not exist
IDX_BASE = {**{key: value for key, value in RUN_BASE.items() if key != ("data", "samples")},
            ("data", "images"): "no-such-images.idx", ("data", "labels"): "no-such-labels.idx"}

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
@given(config=st.one_of(drawn_config(RUN_VALUES, RUN_BASE), drawn_config(RUN_VALUES, IDX_BASE)),
       command=st.sampled_from(COMMANDS))
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


# -- IDX file contents through run ------------------------------------------------

IDX_CAP = 2048  # pixel bytes written at most; a label file holds at most 64 labels
MAGICS = st.one_of(st.sampled_from((IMAGE_MAGIC, LABEL_MAGIC)), st.integers(0, 2**32 - 1))


@st.composite
def idx_files(draw):
    """Image and label file bytes, and the model's input width.  Each field is
    what a valid pair of a few small images with labels below 3 holds or, one
    time in five, drawn at random: counts up to 2^32 - 1, rows and cols up to
    2^16."""
    def either(valid, anything):
        return draw(anything if draw(st.integers(0, 4)) == 0 else valid)

    count = either(st.integers(1, 4), st.integers(0, 2**32 - 1))
    rows, cols = (either(st.integers(1, 3), st.integers(0, 2**16)) for _ in range(2))
    image_magic = either(st.just(IMAGE_MAGIC), MAGICS)
    label_magic = either(st.just(LABEL_MAGIC), MAGICS)
    payload = either(st.just(min(count * rows * cols, IDX_CAP)), st.integers(0, IDX_CAP))
    label_count = either(st.just(count), st.integers(0, 2**32 - 1))
    n_labels = either(st.just(min(label_count, 64)), st.integers(0, 64))
    labels = draw(st.lists(st.sampled_from((0, 1, 2, 255)), min_size=n_labels, max_size=n_labels))
    images = struct.pack(">IIII", image_magic, count, rows, cols) + bytes(range(256)) * 8
    return (images[:16 + payload], struct.pack(">II", label_magic, label_count) + bytes(labels),
            rows * cols if 1 <= rows * cols <= 64 else draw(st.integers(1, 8)))


@SETTINGS
@given(files=idx_files())
def test_idx_files(files):
    images, labels, input_dim = files
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "images.idx").write_bytes(images)
        (Path(tmp) / "labels.idx").write_bytes(labels)
        path = Path(tmp) / "run.cfg"
        path.write_text(config_text({
            ("model", "kind"): "mlp", ("model", "input_dim"): str(input_dim),
            ("model", "hidden_dim"): "2", ("model", "num_classes"): "3",
            ("data", "images"): str(Path(tmp) / "images.idx"),
            ("data", "labels"): str(Path(tmp) / "labels.idx"),
            ("optimizer", "rule"): "signsgd", ("optimizer", "eta"): "0.05",
            ("optimizer", "batch_size"): "2", ("run", "workers"): "3",
            ("run", "rounds"): "2", ("run", "eval_every"): "1"}))
        code, stdout, stderr = call(["run", "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert_documented(code, stdout, stderr)
    payload = json.loads(stdout)
    outcome = payload.get("status", payload.get("error"))
    event(outcome)
    assert outcome in ("ok", "dataset-error", "config-invalid"), stdout


# -- run-directory echoes through report ------------------------------------------

DEEP = 4000  # JSON nesting past the parser's recursion limit, in 8 KB
JUNK = (None, True, False, float("nan"), float("inf"), -1, 0, 1e308, "x", "", [], {}, [1.5])
WHOLE = ("", "{", "[]", "null", "[" * DEEP, "{" * DEEP)
CELLS = ("", "nan", "inf", "true", "x", "1e400", "-0", "1.5", "7")


def edit_summary(data, text: str) -> str:
    """The summary.json text with one key dropped or one value replaced by junk
    or by deep nesting (at the top, in the config echo, a section of it or one
    of its keys), or other text altogether."""
    summary = json.loads(text)
    paths = [(top,) for top in summary]
    paths += [("config", section) for section in summary["config"]]
    paths += [("config", section, key)
              for section, body in summary["config"].items() for key in body]
    action = data.draw(st.sampled_from(("drop", "junk", "deep", "whole")))
    if action == "whole":
        return data.draw(st.sampled_from(WHOLE))
    *parents, last = data.draw(st.sampled_from(paths))
    holder = summary
    for key in parents:
        holder = holder[key]
    if action == "drop":
        del holder[last]
        return json.dumps(summary)
    holder[last] = "@VALUE@"
    value = json.dumps(data.draw(st.sampled_from(JUNK))) if action == "junk" else \
        "[" * DEEP + "]" * DEEP
    return json.dumps(summary).replace('"@VALUE@"', value)


def edit_metrics(data, text: str) -> str:
    """The metrics.csv text with one cell replaced, added or dropped, one row
    dropped, or cut short anywhere."""
    action = data.draw(st.sampled_from(("replace", "add", "drop", "drop-row", "cut")))
    if action == "cut":
        return text[:data.draw(st.integers(0, len(text)))]
    lines = text.splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    if action == "drop-row":
        del lines[row]
    else:
        cells = lines[row].split(",")
        col = data.draw(st.integers(0, len(cells) - 1))
        if action == "drop":
            del cells[col]
        else:
            cells[col:col + (action == "replace")] = [data.draw(st.sampled_from(CELLS))]
        lines[row] = ",".join(cells)
    return "".join(f"{line}\n" for line in lines)


@pytest.fixture(scope="module")
def finished_runs(tmp_path_factory):
    """Two small finished runs, at adversary fractions 0 and 0.2."""
    root = tmp_path_factory.mktemp("runs")
    config = root / "run.cfg"
    config.write_text(config_text(RUN_BASE))
    for name, alpha in (("a", "0"), ("b", "0.2")):
        code, stdout, _ = call(["run", "--config", str(config), "--out", str(root / name),
                                "--set", f"adversary.alpha={alpha}"])
        assert code == 0, stdout
    return [root / "a", root / "b"]


# typed values, which no config file can spell and no summary.json echo holds any
# more (an older echo does), for every key: parse_sections rejects each as no text,
# so report skips the run rather than replaying it at 1.0 or 0.0, or with a kind,
# rule or path spelt 'True'
STRING_KEYS = {("model", "kind"), ("data", "images"), ("data", "labels"),
               ("optimizer", "rule"), ("adversary", "strategy")}
TYPED_BAD = [(section, key, value) for section, key in sorted(CONFIG_KEYS)
             for value in ((True, 7) if (section, key) in STRING_KEYS else (True, False))]


@pytest.mark.parametrize("section, key, value", TYPED_BAD)
def test_typed_echo_value(finished_runs, tmp_path, section, key, value):
    dirs = [shutil.copytree(run, tmp_path / run.name) for run in finished_runs]
    summary = json.loads((dirs[0] / "summary.json").read_text())
    summary["config"].setdefault(section, {})[key] = value
    (dirs[0] / "summary.json").write_text(json.dumps(summary))
    code, stdout, stderr = call(["report", *map(str, dirs), "--out", str(tmp_path / "r.csv")])
    assert (code, json.loads(stdout)["rows"]) == (0, 1)
    assert stderr == f"warning: skipping {dirs[0]}: bad value for config key {key!r}: {value}\n"


@SETTINGS
@given(data=st.data())
def test_report_run_dirs(finished_runs, data):
    """Up to three edits of the two runs' files; every call ends with its rows
    and a warning per skipped run, or as no-valid-runs."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [shutil.copytree(run, Path(tmp) / run.name) for run in finished_runs]
        edited = set()
        for _ in range(data.draw(st.integers(1, 3))):
            run = data.draw(st.sampled_from(dirs))
            name = data.draw(st.sampled_from(("summary.json", "metrics.csv")))
            if (run, name) in edited:
                continue  # an edit reads the recorded text
            edited.add((run, name))
            path = run / name
            edit = edit_summary if name == "summary.json" else edit_metrics
            path.write_text(edit(data, path.read_text()))
        code, stdout, stderr = call(["report", *map(str, dirs), "--out", str(Path(tmp) / "r.csv")])
    warnings = stderr.splitlines()
    assert all(line.startswith("warning: skipping ") for line in warnings), stderr
    payload = json.loads(stdout.splitlines()[-1], parse_constant=reject_constant)
    event(f"{len(warnings)} skipped")
    if code == 0:
        assert payload["rows"] + len(warnings) == 2, (payload, stderr)
    else:
        assert (code, payload["error"], len(warnings)) == (2, "no-valid-runs", 2), payload


# -- argv through the parser ------------------------------------------------------

# words and the values they take, run in a fresh directory that holds quick.cfg
# and grid.cfg; "-h" and every prefix of "--help" are left out, since help exits
# by design.  The grid config keeps verify-bounds off its default grid.
COMMAND_TOKENS = (("run",), ("sweep",), ("verify-bounds", "--grid-config", "grid.cfg"),
                  ("gradient-check",), ("report", "@RUN"), ("report",), ("bogus",))
FLAG_TOKENS = (("--config", "quick.cfg"), ("--config", "missing.cfg"), ("--out", "out"),
               ("--out", ""), ("--alphas", "0, 0.2"), ("--alphas", "0,x"), ("--alphas", ","),
               ("--rules", "signsgd, signum"), ("--rules", "nope"), ("--points", "0"),
               ("--points", "abc"), ("--seed", "1"), ("--bogus",))


@SETTINGS
@given(head=st.sampled_from(COMMAND_TOKENS + ((),)),
       tail=st.lists(st.sampled_from(FLAG_TOKENS + COMMAND_TOKENS), max_size=6))
def test_argv(finished_runs, head, tail):
    argv = [word.replace("@RUN", str(finished_runs[0])) for token in (head, *tail)
            for word in token]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("quick.cfg").write_text(config_text(RUN_BASE))
            Path("grid.cfg").write_text(config_text(GRID_BASE))
            code, stdout, stderr = call(argv)
        finally:
            os.chdir(cwd)
    assert all(line.startswith("warning: skipping ") for line in stderr.splitlines()), stderr
    assert len(stdout.splitlines()) == 1, stdout
    assert_documented(code, stdout, "")
    payload = json.loads(stdout)
    event(payload.get("status", payload.get("error")))
