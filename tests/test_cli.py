import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from signvote.cli import GRID_KEYS, _read_config, main
from signvote.simulation import (CONFIG_KEYS, config_from_mapping, config_to_mapping,
                                 parse_sections)

REPO = Path(__file__).resolve().parents[1]
BLIND_CONFIG = str(REPO / "configs" / "logistic_blind.cfg")
MNIST_CONFIG = str(REPO / "configs" / "mnist_mlp.cfg")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[-1]) if out else {}
    return code, payload


def usage_message(capsys, *argv) -> str:
    """The message of the usage error that ``argv`` ends in: exit 2, one JSON
    object on stdout and nothing on stderr."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert (code, payload["error"], err) == (2, "usage", "")
    return payload["message"]


# overrides that turn the quick config into a linear-regression run (no accuracy)
REGRESSION = {("model", "kind"): "linear-regression", ("model", "num_classes"): None}


def write_quick_config(tmp_path, overrides=None) -> str:
    body = {
        ("model", "kind"): "logistic-regression",
        ("model", "input_dim"): "6",
        ("model", "num_classes"): "2",
        ("data", "samples"): "200",
        ("optimizer", "rule"): "signsgd",
        ("optimizer", "eta"): "0.05",
        ("optimizer", "batch_size"): "8",
        ("adversary", "strategy"): "blind-invert",
        ("adversary", "alpha"): "0.2",
        ("run", "workers"): "5",
        ("run", "rounds"): "20",
        ("run", "seed"): "7",
        ("run", "eval_every"): "10",
    }
    body.update(overrides or {})
    sections = {}
    for (section, key), value in body.items():
        if value is not None:  # None drops the key
            sections.setdefault(section, []).append(f"{key} = {value}")
    text = "\n".join(f"[{name}]\n" + "\n".join(lines) for name, lines in sections.items())
    path = tmp_path / "quick.cfg"
    path.write_text(text + "\n")
    return str(path)


class TestRun:
    def test_happy_path_writes_artifacts(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        out = tmp_path / "run1"
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(out))
        assert code == 0
        assert payload["status"] == "ok"
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()

    def test_mlp_on_synthetic_data_without_kind(self, tmp_path, capsys):
        """An MLP config on synthetic data trains on class labels, as the model fixes."""
        mlp = {("model", "kind"): "mlp", ("model", "hidden_dim"): "4",
               ("model", "num_classes"): "2"}
        cfg = write_quick_config(tmp_path, mlp)
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "a"))
        assert (code, payload["status"]) == (0, "ok")
        assert 0.0 <= payload["final_accuracy"] <= 1.0

    def test_deterministic_metrics_bytes(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run_cli(capsys, "run", "--config", cfg, "--out", str(out))[0] == 0
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()

    def test_override_echoed_in_summary(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        out = tmp_path / "o"
        code, _ = run_cli(capsys, "run", "--config", cfg, "--out", str(out),
                          "--set", "optimizer.eta=1e-4")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["optimizer"]["eta"] == "0.0001"

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--alphas", "0", "--rules", "signsgd"],
                                         ["gradient-check"]])
    def test_seed_flag_rejected(self, tmp_path, capsys, command):
        """The seed has one spelling, --set run.seed=N."""
        cfg = write_quick_config(tmp_path)
        out = ["--out", str(tmp_path / "x")] if command[0] != "gradient-check" else []
        message = usage_message(capsys, command[0], "--config", cfg, *out, *command[1:],
                                "--seed", "99")
        assert message == "unrecognized arguments: --seed 99"
        assert not (tmp_path / "x").exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code, payload = run_cli(capsys, "run", "--config", str(tmp_path / "nope.cfg"),
                                "--out", str(tmp_path / "x"))
        assert code == 2
        assert payload["error"] == "config-not-found"

    def test_invalid_value_exit_2(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path, {("optimizer", "eta"): "-1.0"})
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "x"))
        assert code == 2
        assert payload["error"] == "config-invalid"

    def test_data_with_keys_of_both_sources_exit_2(self, tmp_path, capsys):
        """IDX files named next to the synthetic sample count are config-invalid,
        not a synthetic run that ignores them."""
        code, payload = run_cli(capsys, "run", "--config", BLIND_CONFIG,
                                "--out", str(tmp_path / "x"),
                                "--set", f"data.images={tmp_path / 'img.idx'}",
                                "--set", f"data.labels={tmp_path / 'lab.idx'}")
        assert (code, payload) == (2, {"error": "config-invalid", "message":
                                       "[data] takes samples for synthetic data or images and "
                                       "labels for IDX files, not both"})
        assert not (tmp_path / "x").exists()

    def test_zero_synthetic_samples_exit_2(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path, {("data", "samples"): "0"})
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "x"))
        assert code == 2
        assert payload["error"] == "config-invalid"
        assert "n_samples" in payload["message"]

    def test_out_naming_a_file_exit_2(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(taken))
        assert code == 2
        assert payload["error"] == "usage"

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--alphas", "0", "--rules", "signsgd"]])
    def test_no_output_directory_exit_2(self, tmp_path, capsys, command):
        cfg = write_quick_config(tmp_path)
        message = usage_message(capsys, command[0], "--config", cfg, *command[1:])
        assert message == "the following arguments are required: --out"

    def test_parallel_flag_rejected(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        message = usage_message(capsys, "run", "--config", cfg, "--out", str(tmp_path / "x"),
                                "--parallel")
        assert message == "unrecognized arguments: --parallel"
        assert not (tmp_path / "x").exists()

    def test_bad_override_exit_2(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "x"),
                                "--set", "garbage")
        assert code == 2
        assert payload["error"] == "config-invalid"

    def test_missing_idx_dataset_exit_2(self, tmp_path, capsys):
        cfg = write_quick_config(
            tmp_path,
            {("data", "samples"): None,
             ("data", "images"): str(tmp_path / "no-images"),
             ("data", "labels"): str(tmp_path / "no-labels")},
        )
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "x"))
        assert code == 2
        assert payload["error"] == "dataset-error"

    def test_idx_width_mismatch_exit_2(self, tmp_path, capsys):
        import struct

        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + bytes(16))
        labels.write_bytes(struct.pack(">II", 0x801, 4) + bytes(4))
        cfg = write_quick_config(tmp_path, {("data", "samples"): None,
                                            ("data", "images"): str(images),
                                            ("data", "labels"): str(labels)})
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "x"))
        assert code == 2
        assert payload["error"] == "dataset-error"

    def test_zero_sample_idx_exit_2(self, tmp_path, capsys):
        import struct

        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 0, 3, 3))
        labels.write_bytes(struct.pack(">II", 0x801, 0))
        cfg = write_quick_config(tmp_path, {("model", "input_dim"): "9",
                                            ("data", "samples"): None,
                                            ("data", "images"): str(images),
                                            ("data", "labels"): str(labels)})
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "x"))
        assert code == 2
        assert payload["error"] == "dataset-error"
        assert "0 images" in payload["message"]

    def test_regression_outputs_are_strict_json(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path, REGRESSION)
        out = tmp_path / "reg"
        code = main(["run", "--config", cfg, "--out", str(out)])
        stdout = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        payload = json.loads(stdout, parse_constant=reject)
        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert payload["final_accuracy"] is None
        assert set(summary) == {"config", "wall_time_s"}
        # metrics.csv keeps its own spelling of the missing accuracy, and the final loss
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == "nan"
        assert float(rows[-1].split(",")[1]) == payload["final_loss"]

    def test_bundled_config_round_trip(self, tmp_path, capsys):
        out = tmp_path / "bundled"
        code, _ = run_cli(capsys, "run", "--config", BLIND_CONFIG, "--out", str(out),
                          "--set", "run.rounds=20")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["run"]["seed"] == "8005"
        assert all(isinstance(value, str)
                   for body in summary["config"].values() for value in body.values())


class TestSweep:
    def test_grid_creates_run_dirs(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path, {("run", "rounds"): "10"})
        out = tmp_path / "sweep"
        code, payload = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out),
                                "--alphas", "0,0.2,0.4", "--rules", "signsgd,signum")
        assert code == 0
        assert len(payload["runs"]) == 6
        names = [run["name"] for run in payload["runs"]]
        assert names[0] == "signsgd-alpha0" and names[1] == "signum-alpha0"
        for name in names:
            assert (out / name / "metrics.csv").exists()

    @pytest.mark.parametrize("alphas, message", [
        ("", "alpha and rule grids must be non-empty"),
        ("0,x", "argument --alphas: invalid grid value: '0,x'"),
    ], ids=["empty", "unparsable"])
    def test_empty_grid_exit_2(self, tmp_path, capsys, alphas, message):
        cfg = write_quick_config(tmp_path)
        assert usage_message(capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "x"),
                             "--alphas", alphas, "--rules", "signsgd") == message
        assert not (tmp_path / "x").exists()

    def test_grid_items_stripped(self, tmp_path, capsys):
        """A comma-space list names rules as it gives numbers."""
        cfg = write_quick_config(tmp_path, {("run", "rounds"): "2"})
        code, payload = run_cli(capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                                "--alphas", "0, 0.2", "--rules", "signsgd, signum")
        assert code == 0
        assert [run["name"] for run in payload["runs"]] == [
            "signsgd-alpha0", "signum-alpha0", "signsgd-alpha0.2", "signum-alpha0.2"]

    def test_out_naming_a_file_exit_2(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        (tmp_path / "sweep").mkdir()
        (tmp_path / "sweep" / "signsgd-alpha0").write_text("")
        for out in (taken, tmp_path / "sweep"):
            code, payload = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out),
                                    "--alphas", "0", "--rules", "signsgd")
            assert code == 2
            assert payload["error"] == "usage"


class TestVerifyBounds:
    def test_small_grid_passes(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            "[sign-error]\nsnr = 0.5,2.0\nfamilies = gaussian,laplace\nsamples = 5000\n"
            "[vote]\nworkers = 11,51\np = 0.9\nalpha = 0,0.2\n"
        )
        out = tmp_path / "bounds"
        code, payload = run_cli(capsys, "verify-bounds", "--out", str(out),
                                "--grid-config", str(grid))
        assert code == 0
        assert payload["failed"] == 0
        text = (out / "bounds.csv").read_text().splitlines()
        assert text[0] == "check,point,value,bound,tolerance,margin,status"
        assert len(text) == 1 + 2 * 2 * 2 + 4  # two checks per MC point + vote grid
        assert (out / "bounds_summary.json").exists()

    def test_grid_items_stripped(self, tmp_path, capsys):
        """A comma-space list in a grid config reads as the comma list does."""
        written = []
        for sep in (",", ", "):
            grid = tmp_path / "grid.cfg"
            grid.write_text(f"[sign-error]\nsnr = 0.5{sep}2\nfamilies = gaussian{sep}laplace\n"
                            f"samples = 1000\n[vote]\nworkers = 11{sep}51\n")
            out = tmp_path / f"b{len(written)}"
            assert run_cli(capsys, "verify-bounds", "--out", str(out),
                           "--grid-config", str(grid))[0] in (0, 1)
            written.append((out / "bounds.csv").read_bytes())
        assert written[0] == written[1]
        assert b"laplace" in written[0]

    def test_inadmissible_rows_not_failures(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("[sign-error]\nsnr =\n[vote]\nworkers = 11\np = 0.6\nalpha = 0.3\n")
        code, payload = run_cli(capsys, "verify-bounds", "--out", str(tmp_path / "b"),
                                "--grid-config", str(grid))
        assert code == 0
        assert payload["inadmissible"] == 1

    def test_empty_grid_exit_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("[sign-error]\nsnr =\n[vote]\nworkers =\n")
        code, payload = run_cli(capsys, "verify-bounds", "--out", str(tmp_path / "b"),
                                "--grid-config", str(grid))
        assert code == 2
        assert payload["error"] in ("empty-grid", "config-invalid")

    def test_out_naming_a_file_exit_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("[sign-error]\nsnr =\n[vote]\nworkers = 11\np = 0.9\nalpha = 0\n")
        taken = tmp_path / "taken"
        taken.write_text("")
        code, payload = run_cli(capsys, "verify-bounds", "--out", str(taken),
                                "--grid-config", str(grid))
        assert code == 2
        assert payload["error"] == "usage"

    def test_snr_whose_square_underflows(self, tmp_path, capsys):
        """Below S of about 1e-162, 2 S^2 underflows to 0: the variance-only bound
        reads inf, capped at 1 in its row, not a ZeroDivisionError."""
        grid = tmp_path / "grid.cfg"
        grid.write_text("[sign-error]\nsnr = 1e-200\nsamples = 1000\n")
        code = main(["verify-bounds", "--out", str(tmp_path / "b"), "--grid-config", str(grid)])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert json.loads(captured.out)["status"] in ("ok", "violations")
        assert captured.err == ""


class TestGradientCheck:
    def test_passes_on_models(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path)
        code, payload = run_cli(capsys, "gradient-check", "--config", cfg, "--points", "5")
        assert code == 0
        assert payload["max_relative_error"] < 1e-5


class TestMisspeltConfig:
    """A section or key outside the key tables is config-invalid, never ignored."""

    def test_misspelt_section_header(self, tmp_path, capsys):
        text = Path(BLIND_CONFIG).read_text().replace("[adversary]", "[adversry]")
        cfg = tmp_path / "blind.cfg"
        cfg.write_text(text)
        code, payload = run_cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert (code, payload["error"]) == (2, "config-invalid")
        assert payload["message"] == "unknown config section [adversry]"
        assert not (tmp_path / "x").exists()

    def test_misspelt_override_key(self, tmp_path, capsys):
        code, payload = run_cli(capsys, "run", "--config", BLIND_CONFIG,
                                "--out", str(tmp_path / "x"), "--set", "optimizer.bata=0.5")
        assert (code, payload["error"]) == (2, "config-invalid")
        assert payload["message"] == "unknown config key 'bata' in section [optimizer]"

    @pytest.mark.parametrize("section, key, value", [("run", "p_estimate", "0.6"),
                                                     ("optimizer", "weight_decay", "0"),
                                                     ("run", "out", "runs"),
                                                     ("data", "noise_level", "0"),
                                                     ("data", "source", "idx"),
                                                     ("data", "kind", "logistic-regression")])
    def test_removed_key(self, tmp_path, capfd, section, key, value):
        """A removed key is an unknown key: JSON on stdout, exit 2, nothing on stderr."""
        done = subprocess.run([sys.executable, "-m", "signvote.cli", "run", "--config",
                               BLIND_CONFIG, "--out", str(tmp_path / "x"),
                               "--set", f"{section}.{key}={value}"], env=source_env(), timeout=120)
        out, err = capfd.readouterr()
        assert done.returncode == 2
        assert json.loads(out) == {"error": "config-invalid", "message":
                                   f"unknown config key {key!r} in section [{section}]"}
        assert err == ""
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section, key", sorted(CONFIG_KEYS))
    def test_set_reads_like_the_ini_line(self, tmp_path, section, key):
        """``--set "section.KEY  =  value  "`` builds the config that the INI line
        ``KEY  =  value  `` does: the key is lower-cased, key and value stripped."""
        base = BLIND_CONFIG if (section, key) == ("data", "samples") else MNIST_CONFIG
        cfg = config_from_mapping(_read_config(base))
        mapping = config_to_mapping(cfg)
        value = mapping[section].pop(key)

        def write(name, extra):
            path = tmp_path / name
            path.write_text("".join(
                f"[{part}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                + (extra if part == section else "") for part, body in mapping.items()))
            return str(path)

        line = f"{key.upper()}  =  {value}  "
        from_ini = config_from_mapping(_read_config(write("ini.cfg", line + "\n")))
        from_set = config_from_mapping(_read_config(write("base.cfg", ""),
                                                    [f"{section}.{line}"]))
        assert from_ini == from_set == cfg

    @pytest.mark.parametrize("section, key", [("mc", "seed"), ("vote", "workers")])
    def test_grid_table_takes_text_only(self, section, key):
        """The grid table shares the run table's one check: a typed value is no text."""
        with pytest.raises(ValueError) as exc:
            parse_sections({section: {key: 20}}, GRID_KEYS)
        assert str(exc.value) == f"bad value for config key {key!r}: 20"

    @pytest.mark.parametrize("command", [["sweep", "--alphas", "0", "--rules", "signsgd"],
                                         ["gradient-check"]])
    def test_other_config_commands(self, tmp_path, capsys, command):
        cfg = write_quick_config(tmp_path, {("run", "worker"): "5"})
        out = ["--out", str(tmp_path / "x")] if command[0] == "sweep" else []
        code, payload = run_cli(capsys, command[0], "--config", cfg, *out, *command[1:])
        assert (code, payload["error"]) == (2, "config-invalid")
        assert payload["message"] == "unknown config key 'worker' in section [run]"

    @pytest.mark.parametrize("text, message", [
        ("[vote]\nworkrs = 11\n", "unknown config key 'workrs' in section [vote]"),
        ("[sign-eror]\nsamples = 500\n", "unknown config section [sign-eror]"),
        ("[sign-error]\nsamples = many\n", "bad value for config key 'samples': 'many'"),
    ])
    def test_grid_config(self, tmp_path, capsys, text, message):
        grid = tmp_path / "grid.cfg"
        grid.write_text(text)
        code, payload = run_cli(capsys, "verify-bounds", "--out", str(tmp_path / "b"),
                                "--grid-config", str(grid))
        assert (code, payload) == (2, {"error": "config-invalid", "message": message})
        assert not (tmp_path / "b").exists()


class TestArgvErrors:
    """An argv that argparse rejects is one usage error on stdout, not
    argparse's usage text on stderr."""

    @pytest.mark.parametrize("argv, message", [
        (["run", "--config", BLIND_CONFIG, "--out", "x", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'run', 'sweep', "
                    "'verify-bounds', 'gradient-check', 'report')"),
        ([], "the following arguments are required: command"),
        (["run", "--config", BLIND_CONFIG], "the following arguments are required: --out"),
        (["gradient-check", "--config", BLIND_CONFIG, "--points", "abc"],
         "argument --points: invalid int value: 'abc'"),
    ], ids=["unknown-flag", "unknown-command", "no-command", "no-out", "points-not-int"])
    def test_usage_json_only(self, tmp_path, capfd, argv, message):
        done = subprocess.run([sys.executable, "-m", "signvote.cli", *argv], cwd=tmp_path,
                              env=source_env(), timeout=120)
        out, err = capfd.readouterr()
        assert done.returncode == 2
        assert json.loads(out) == {"error": "usage", "message": message}
        assert err == ""
        assert list(tmp_path.iterdir()) == []


class TestBadNumbers:
    """Out-of-range seeds and non-finite knobs are config-invalid, not a traceback
    or a run that reports divergence (or no noise) later."""

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--alphas", "0", "--rules", "signsgd"]])
    # The ids keep the names these two cases had when the table also held the
    # cases of the removed --seed flag at positions 1 and 2.
    @pytest.mark.parametrize("seed_args", [["--set", "run.seed=-1"],
                                           ["--set", f"run.seed={2**64}"]],
                             ids=["seed_args0", "seed_args3"])
    def test_seed_out_of_range(self, tmp_path, capsys, command, seed_args):
        cfg = write_quick_config(tmp_path)
        code, payload = run_cli(capsys, command[0], "--config", cfg,
                                "--out", str(tmp_path / "x"), *command[1:], *seed_args)
        assert (code, payload["error"]) == (2, "config-invalid")
        assert "seed must be an unsigned 64-bit integer" in payload["message"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override", ["optimizer.eta=nan", "optimizer.decay_factor=nan",
                                          "optimizer.decay_factor=inf"])
    def test_non_finite_value(self, tmp_path, capsys, override):
        cfg = write_quick_config(tmp_path)
        code, payload = run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "x"),
                                "--set", override)
        assert (code, payload["error"]) == (2, "config-invalid")
        key = override.split(".")[1].split("=")[0]
        assert payload["message"].startswith(f"{key} must be finite")


class TestBadPathsAndCounts:
    """A directory where a file belongs, and counts or grids that select
    nothing sensible, are JSON errors with exit 2, not tracebacks."""

    def test_config_is_a_directory(self, tmp_path, capsys):
        code, payload = run_cli(capsys, "run", "--config", str(tmp_path),
                                "--out", str(tmp_path / "x"))
        assert (code, payload["error"]) == (2, "config-not-found")
        assert "Is a directory" in payload["message"]

    def test_grid_config_is_a_directory(self, tmp_path, capsys):
        code, payload = run_cli(capsys, "verify-bounds", "--out", str(tmp_path / "b"),
                                "--grid-config", str(tmp_path))
        assert (code, payload["error"]) == (2, "config-not-found")
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command", ["run", "gradient-check"])
    def test_idx_images_is_a_directory(self, tmp_path, capsys, command):
        cfg = write_quick_config(tmp_path, {("data", "samples"): None,
                                            ("data", "images"): str(tmp_path),
                                            ("data", "labels"): str(tmp_path)})
        out = ["--out", str(tmp_path / "x")] if command == "run" else []
        code, payload = run_cli(capsys, command, "--config", cfg, *out)
        assert (code, payload["error"]) == (2, "dataset-error")

    @pytest.mark.parametrize("where", ["directory", "under-a-file"])
    def test_report_out_unwritable(self, tmp_path, capsys, where):
        dirs = TestReport.make_runs(tmp_path, capsys, 1)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = str(tmp_path) if where == "directory" else str(taken / "x.csv")
        code, payload = run_cli(capsys, "report", *dirs, "--out", out)
        assert (code, payload["error"]) == (2, "usage")
        assert taken.read_text() == ""

    @pytest.mark.parametrize("command, blocked", [
        ("run", "metrics.csv"), ("run", "summary.json"),
        ("sweep", "signsgd-alpha0/metrics.csv"), ("sweep", "signsgd-alpha0/summary.json"),
        ("verify-bounds", "bounds.csv"), ("verify-bounds", "bounds_summary.json"),
    ])
    def test_output_file_is_a_directory(self, tmp_path, capsys, command, blocked):
        """An output file that cannot be written is a usage error that names it,
        not a dataset error or a traceback."""
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        if command == "verify-bounds":
            grid = tmp_path / "grid.cfg"
            grid.write_text("[sign-error]\nsnr =\n[vote]\nworkers = 11\np = 0.9\nalpha = 0\n")
            args = ["--grid-config", str(grid)]
        else:
            args = ["--config", write_quick_config(tmp_path)]
        if command == "sweep":
            args += ["--alphas", "0", "--rules", "signsgd"]
        code, payload = run_cli(capsys, command, "--out", str(out), *args)
        assert (code, payload["error"]) == (2, "usage")
        assert payload["message"].startswith(f"cannot write {str(out / blocked)!r}: ")

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_gradient_check_needs_a_point(self, tmp_path, capsys, points):
        cfg = write_quick_config(tmp_path)
        code, payload = run_cli(capsys, "gradient-check", "--config", cfg, "--points", points)
        assert (code, payload) == (2, {"error": "usage",
                                       "message": f"--points must be >= 1, got {points}"})

    @pytest.mark.parametrize("alphas, rules", [("0.1,0.1", "signsgd"),
                                               ("0.1,0.1000001", "signsgd"),
                                               ("0", "signum,signum")])
    def test_sweep_duplicate_run_name(self, tmp_path, capsys, alphas, rules):
        cfg = write_quick_config(tmp_path)
        code, payload = run_cli(capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "x"),
                                "--alphas", alphas, "--rules", rules)
        assert (code, payload["error"]) == (2, "usage")
        assert "twice" in payload["message"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("snr", ["nan", "inf", "1,nan"])
    def test_non_finite_snr_in_grid(self, tmp_path, capsys, snr):
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"[sign-error]\nsnr = {snr}\nsamples = 1000\n[vote]\nworkers =\n")
        code, payload = run_cli(capsys, "verify-bounds", "--out", str(tmp_path / "b"),
                                "--grid-config", str(grid))
        assert (code, payload["error"]) == (2, "config-invalid")
        assert "must be finite" in payload["message"]
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("vote, message", [
        ("workers = 0\np = -0.3\nalpha = 1.5", "n_workers must be >= 1"),
        ("workers = 0\np = 0.5\nalpha = 0", "n_workers must be >= 1"),
        ("workers = 11\np = -0.3\nalpha = 0", "p must lie in (0, 1]"),
        ("workers = 11\np = 0\nalpha = 0", "p must lie in (0, 1]"),
        ("workers = 11\np = 0.9\nalpha = 1.5", "alpha must lie in [0, 1)"),
    ])
    def test_vote_grid_out_of_range(self, tmp_path, capsys, vote, message):
        """A bad vote point is an error even where its row would read inadmissible."""
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"[sign-error]\nsnr =\n[vote]\n{vote}\n")
        code, payload = run_cli(capsys, "verify-bounds", "--out", str(tmp_path / "b"),
                                "--grid-config", str(grid))
        assert (code, payload) == (2, {"error": "config-invalid", "message": message})
        assert not (tmp_path / "b").exists()


class TestReport:
    @staticmethod
    def make_runs(tmp_path, capsys, n=2):
        cfg = write_quick_config(tmp_path, {("run", "rounds"): "10"})
        dirs = []
        for i, alpha in zip(range(n), (0.0, 0.2, 0.4)):
            out = tmp_path / f"r{i}"
            run_cli(capsys, "run", "--config", cfg, "--out", str(out),
                    "--set", f"adversary.alpha={alpha}")
            dirs.append(str(out))
        return dirs

    def test_two_runs_two_rows(self, tmp_path, capsys):
        dirs = self.make_runs(tmp_path, capsys, 2)
        out_csv = tmp_path / "report.csv"
        code, payload = run_cli(capsys, "report", *dirs, "--out", str(out_csv))
        assert code == 0 and payload["rows"] == 2
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "rule,alpha,final_loss,final_accuracy,steps_to_threshold"
        first, second = lines[1].split(","), lines[2].split(",")
        assert first[0] == second[0] == "signsgd"
        assert first[1] != second[1]

    def test_single_run_single_row(self, tmp_path, capsys):
        dirs = self.make_runs(tmp_path, capsys, 1)
        out_csv = tmp_path / "solo.csv"
        code, payload = run_cli(capsys, "report", dirs[0], "--out", str(out_csv))
        assert code == 0 and payload["rows"] == 1

    def test_threshold_never_reached_empty_cell(self, tmp_path, capsys):
        dirs = self.make_runs(tmp_path, capsys, 1)
        out_csv = tmp_path / "t.csv"
        code, _ = run_cli(capsys, "report", dirs[0], "--out", str(out_csv),
                          "--loss-threshold", "0.0")
        assert code == 0
        row = out_csv.read_text().splitlines()[1]
        assert row.endswith(",")  # sentinel: empty final column

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_usage(self, tmp_path, capsys, value):
        """No loss meets a NaN threshold and every loss an infinite one, so neither
        is a threshold: a usage error, with nothing written."""
        dirs = self.make_runs(tmp_path, capsys, 1)
        out_csv = tmp_path / "t.csv"
        # "-inf" as a word of its own would read as a flag, so each value is joined on
        message = usage_message(capsys, "report", dirs[0], "--out", str(out_csv),
                                f"--loss-threshold={value}")
        assert message == f"argument --loss-threshold: invalid finite value: {value!r}"
        assert not out_csv.exists()

    def test_malformed_dir_skipped_with_warning(self, tmp_path, capsys):
        dirs = self.make_runs(tmp_path, capsys, 1)
        bad = tmp_path / "broken"
        bad.mkdir()
        out_csv = tmp_path / "m.csv"
        code = main(["report", str(bad), dirs[0], "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipping" in captured.err
        assert json.loads(captured.out.strip().splitlines()[-1])["rows"] == 1

    def test_null_accuracy_reads_as_nan(self, tmp_path, capsys):
        cfg = write_quick_config(tmp_path, {**REGRESSION, ("run", "rounds"): "10"})
        run_dir = tmp_path / "reg"
        assert run_cli(capsys, "run", "--config", cfg, "--out", str(run_dir))[0] == 0
        out_csv = tmp_path / "reg.csv"
        code, payload = run_cli(capsys, "report", str(run_dir), "--out", str(out_csv))
        assert code == 0 and payload["rows"] == 1
        assert out_csv.read_text().splitlines()[1].split(",")[3] == "nan"

    @pytest.mark.parametrize("drop", ["config"])
    def test_summary_without_part_skipped_with_warning(self, tmp_path, capsys, drop):
        dirs = self.make_runs(tmp_path, capsys, 2)
        summary = Path(dirs[0]) / "summary.json"
        payload = json.loads(summary.read_text())
        del payload[drop]
        summary.write_text(json.dumps(payload))
        code = main(["report", *dirs, "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert f"warning: skipping {dirs[0]}: '{drop}'" in captured.err
        assert json.loads(captured.out.strip().splitlines()[-1])["rows"] == 1
        assert (tmp_path / "r.csv").read_text().splitlines()[1].split(",")[1] == "0.2"

    @pytest.mark.parametrize("final", [None, {"loss": True, "accuracy": "x"}, [1e300]])
    def test_summary_final_block_not_read(self, tmp_path, capsys, final):
        """The numbers come from metrics.csv: summary.json has no final block, and
        one added (junk such as a JSON true for the loss, say) gives the same report."""
        dirs = self.make_runs(tmp_path, capsys, 2)
        assert run_cli(capsys, "report", *dirs, "--out", str(tmp_path / "a.csv"))[0] == 0
        summary = Path(dirs[0]) / "summary.json"
        payload = json.loads(summary.read_text())
        assert "final" not in payload
        if final is not None:
            payload["final"] = final
        summary.write_text(json.dumps(payload))
        code = main(["report", *dirs, "--out", str(tmp_path / "b.csv")])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_deeply_nested_summary_skipped_with_warning(self, tmp_path, capsys):
        """JSON nested deeper than the parser's recursion limit is skipped, not a
        RecursionError traceback."""
        dirs = self.make_runs(tmp_path, capsys, 2)
        (Path(dirs[0]) / "summary.json").write_text("[" * 100_000)
        code = main(["report", *dirs, "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert f"warning: skipping {dirs[0]}: " in captured.err
        assert json.loads(captured.out.strip().splitlines()[-1])["rows"] == 1

    @pytest.mark.parametrize("shape", ["config-list", "section-list", "summary-list"])
    def test_summary_of_wrong_shape_skipped_with_warning(self, tmp_path, capsys, shape):
        dirs = self.make_runs(tmp_path, capsys, 2)
        summary = Path(dirs[0]) / "summary.json"
        payload = json.loads(summary.read_text())
        if shape == "config-list":
            payload["config"] = ["x"]
        elif shape == "section-list":
            payload["config"]["run"] = ["x"]
        else:
            payload = [payload]
        summary.write_text(json.dumps(payload))
        code = main(["report", *dirs, "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert f"warning: skipping {dirs[0]}: " in captured.err
        assert "Traceback" not in captured.err
        assert json.loads(captured.out.strip().splitlines()[-1])["rows"] == 1

    def test_weight_decay_echo_skipped_with_warning(self, tmp_path, capsys):
        """A summary.json whose config echo still holds the removed weight_decay
        key no longer replays."""
        dirs = self.make_runs(tmp_path, capsys, 2)
        summary = Path(dirs[0]) / "summary.json"
        payload = json.loads(summary.read_text())
        payload["config"]["optimizer"]["weight_decay"] = 0.0
        summary.write_text(json.dumps(payload))
        code = main(["report", *dirs, "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert (f"warning: skipping {dirs[0]}: unknown config key 'weight_decay' in "
                "section [optimizer]") in captured.err
        assert json.loads(captured.out.strip().splitlines()[-1])["rows"] == 1

    def test_noise_level_echo_skipped_with_warning(self, tmp_path, capsys):
        """A summary.json whose config echo still holds the removed
        noise_level key no longer replays."""
        dirs = self.make_runs(tmp_path, capsys, 2)
        summary = Path(dirs[0]) / "summary.json"
        payload = json.loads(summary.read_text())
        payload["config"]["data"]["noise_level"] = 0.0
        summary.write_text(json.dumps(payload))
        code = main(["report", *dirs, "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert (f"warning: skipping {dirs[0]}: unknown config key 'noise_level' in "
                "section [data]") in captured.err
        assert json.loads(captured.out.strip().splitlines()[-1])["rows"] == 1

    def test_source_and_kind_echo_skipped_with_warning(self, tmp_path, capsys):
        """A summary.json written while [data] still took source and kind, which
        the keys given and the model now fix, no longer replays."""
        dirs = self.make_runs(tmp_path, capsys, 2)
        summary = Path(dirs[0]) / "summary.json"
        payload = json.loads(summary.read_text())
        payload["config"]["data"] = {"kind": "logistic-regression", "samples": 200,
                                     "source": "synthetic"}
        summary.write_text(json.dumps(payload))
        code = main(["report", *dirs, "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert (f"warning: skipping {dirs[0]}: unknown config key 'kind' in "
                "section [data]") in captured.err
        assert json.loads(captured.out.strip().splitlines()[-1])["rows"] == 1

    def test_out_echo_skipped_with_warning(self, tmp_path, capsys):
        """A summary.json whose config echo still sets the removed run.out key
        no longer replays."""
        dirs = self.make_runs(tmp_path, capsys, 2)
        summary = Path(dirs[0]) / "summary.json"
        payload = json.loads(summary.read_text())
        payload["config"]["run"]["out"] = dirs[0]
        summary.write_text(json.dumps(payload))
        code = main(["report", *dirs, "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert (f"warning: skipping {dirs[0]}: unknown config key 'out' in "
                "section [run]") in captured.err
        assert json.loads(captured.out.strip().splitlines()[-1])["rows"] == 1

    @pytest.mark.parametrize("kept", [0, 1, 3])
    def test_short_metrics_row_skipped_with_warning(self, tmp_path, capsys, kept):
        """A metrics.csv whose last row lost its tail, as a truncated file does,
        or that lost every row (kept = 0: the header alone)."""
        dirs = self.make_runs(tmp_path, capsys, 2)
        metrics = Path(dirs[0]) / "metrics.csv"
        lines = metrics.read_text().splitlines()
        if kept:
            lines[-1] = ",".join(lines[-1].split(",")[:kept])
            reason = f"metrics.csv line {len(lines)}: {kept} cells under a 6-cell header"
        else:
            lines = lines[:1]
            reason = f"{dirs[0]}: metrics.csv has no rows"
        metrics.write_text("\n".join(lines))
        code = main(["report", *dirs, "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert f"warning: skipping {dirs[0]}: {reason}" in captured.err
        assert json.loads(captured.out.strip().splitlines()[-1])["rows"] == 1

    def test_report_bytes_as_recorded(self, tmp_path, capsys):
        """Three blind-invert runs and a regression run (NaN accuracy), with a
        threshold two of them reach; the bytes report wrote before it shared
        the CSV writer."""
        dirs = self.make_runs(tmp_path, capsys, 3)
        (tmp_path / "reg").mkdir()
        cfg = write_quick_config(tmp_path / "reg", {**REGRESSION, ("run", "rounds"): "10"})
        assert run_cli(capsys, "run", "--config", cfg, "--out", str(tmp_path / "r3"))[0] == 0
        out_csv = tmp_path / "report.csv"
        code, _ = run_cli(capsys, "report", *dirs, str(tmp_path / "r3"), "--out", str(out_csv),
                          "--loss-threshold", "0.6")
        assert code == 0
        assert out_csv.read_text() == (
            "rule,alpha,final_loss,final_accuracy,steps_to_threshold\n"
            "signsgd,0.0,0.5056061057549028,0.76,10\n"
            "signsgd,0.2,0.5349100165644695,0.775,10\n"
            "signsgd,0.4,0.607892290718564,0.7,\n"
            "signsgd,0.2,1.4848178293109562,nan,\n"
        )

    def test_all_malformed_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken"
        bad.mkdir()
        code, payload = run_cli(capsys, "report", str(bad), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert payload["error"] == "no-valid-runs"


# bounds_summary.json of the default grid, and its only non-passing rows, as
# written while the exact tail still came from scipy.special
DEFAULT_GRID_SUMMARY = """{
  "all_pass": true,
  "failed": 0,
  "inadmissible": 8,
  "passed": 86,
  "total": 94,
  "violations": []
}
"""
DEFAULT_GRID_INADMISSIBLE = {f"M={m} p=0.6 alpha={a}" for m in (11, 51, 101, 501) for a in (0.2, 0.3)}


# sha256 of the default grid's bounds.csv, as written before the CSV writer was shared
DEFAULT_GRID_BOUNDS_SHA256 = "2f41e123f4679d0d3465a0fb4d0d323be7ec09a1e158e8f9e24ceac68b0d416f"


class TestVerifyBoundsDefaultGrid:
    def test_default_grid_exit_zero(self, tmp_path, capsys):
        code, payload = run_cli(capsys, "verify-bounds", "--out", str(tmp_path / "b"))
        assert code == 0
        assert payload["failed"] == 0
        assert payload["passed"] > 80

    def test_default_grid_statuses_and_summary_as_recorded(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run_cli(capsys, "verify-bounds", "--out", str(out))[0] == 0
        assert (out / "bounds_summary.json").read_text() == DEFAULT_GRID_SUMMARY
        rows = [line.split(",") for line in (out / "bounds.csv").read_text().splitlines()[1:]]
        assert len(rows) == 94
        for row in rows:
            expected = "inadmissible" if row[1] in DEFAULT_GRID_INADMISSIBLE else "pass"
            assert row[-1] == expected, row

    def test_default_grid_bounds_csv_as_recorded(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run_cli(capsys, "verify-bounds", "--out", str(out))[0] == 0
        digest = hashlib.sha256((out / "bounds.csv").read_bytes()).hexdigest()
        assert digest == DEFAULT_GRID_BOUNDS_SHA256


class TestImportPath:
    def test_no_scipy_module_loaded(self):
        """scipy is a test-only dependency: importing the package must not load it."""
        code = ("import sys, signvote, signvote.cli, signvote.theory; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=source_env(), timeout=120, check=True)
        assert done.stdout.strip() == "[]"


def source_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


class TestDiverged:
    def test_stderr_stays_empty(self, tmp_path, capfd):
        """The overflow on the way to divergence is not reported as numpy warnings."""
        done = subprocess.run([sys.executable, "-m", "signvote.cli", "run", "--config",
                               BLIND_CONFIG, "--out", str(tmp_path / "run"),
                               "--set", "optimizer.eta=1e308", "--set", "run.rounds=20"],
                              env=source_env(), timeout=120)
        out, err = capfd.readouterr()
        assert done.returncode == 1
        assert json.loads(out) == {"error": "diverged", "round": 2, "message":
                                   "non-finite parameters, loss or gradient in round 2"}
        assert err == ""

    def test_run_reports_round_exit_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, payload = run_cli(capsys, "run", "--config", BLIND_CONFIG, "--out", str(out),
                                "--set", "optimizer.eta=1e308", "--set", "run.rounds=20")
        assert code == 1
        assert payload["error"] == "diverged"
        assert payload["round"] == 2
        assert not (out / "metrics.csv").exists()

    def test_sweep_names_the_run(self, tmp_path, capsys):
        code, payload = run_cli(capsys, "sweep", "--config", BLIND_CONFIG,
                                "--out", str(tmp_path / "sweep"), "--alphas", "0,0.2",
                                "--rules", "signsgd", "--set", "optimizer.eta=1e308",
                                "--set", "run.rounds=20")
        assert code == 1
        assert payload == {"error": "diverged", "message": payload["message"], "round": 2,
                           "run": "signsgd-alpha0"}

    @pytest.mark.parametrize("overrides, code, expected", [
        # the divisor 10**k overflows from step 309 on: eta reads 0.0 and the run ends
        (["optimizer.decay_every=1", "run.rounds=320"], 0, {"status": "ok", "final_step": 320}),
        # the divisor 1e-300**k underflows to 0 at step 60: eta reads inf
        (["optimizer.decay_factor=1e-300", "run.rounds=70"], 1, {"error": "diverged", "round": 61}),
    ])
    def test_schedule_past_the_float_range(self, tmp_path, capfd, overrides, code, expected):
        """A decay schedule that leaves the float range ends the run as JSON, not a traceback."""
        out = tmp_path / "run"
        done = subprocess.run([sys.executable, "-m", "signvote.cli", "run", "--config",
                               BLIND_CONFIG, "--out", str(out),
                               *(arg for item in overrides for arg in ("--set", item))],
                              env=source_env(), timeout=120)
        stdout, err = capfd.readouterr()
        payload = json.loads(stdout)
        assert done.returncode == code
        assert {key: payload[key] for key in expected} == expected
        assert err == ""
        if code == 0:
            last = (out / "metrics.csv").read_text().splitlines()[-1].split(",")
            assert last[3] == "0.0"  # the eta column

    def test_huge_finite_loss_still_ok(self, tmp_path, capsys):
        code, payload = run_cli(capsys, "run", "--config", BLIND_CONFIG,
                                "--out", str(tmp_path / "run"),
                                "--set", "optimizer.eta=1e300", "--set", "run.rounds=20")
        assert code == 0
        assert payload["status"] == "ok"
        assert 1e299 < payload["final_loss"] < float("inf")


def readme_keys(anchor: str) -> set:
    """(section, key) pairs listed by the first ``| section | keys |`` table after
    ``anchor`` in README.md; backticked names in parentheses are values, not keys."""
    text = (REPO / "README.md").read_text()
    start = text.index("| section | keys |", text.index(anchor))
    keys = set()
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        _, section, cell, _ = line.split("|")
        cell = re.sub(r"\([^)]*\)", "", cell)
        keys |= {(section.strip().strip("`[]"), key) for key in re.findall(r"`([^`]+)`", cell)}
    return keys


class TestReadmeKeyTables:
    """README's key tables list exactly the keys the parsers accept."""

    def test_run_config_table(self):
        assert readme_keys("A run config") == set(CONFIG_KEYS)

    def test_grid_config_table(self):
        assert readme_keys("A `--grid-config` file") == set(GRID_KEYS)
