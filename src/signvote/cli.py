"""Command-line front end: runs, sweeps, bound verification, and report tables.

Config files are flat INI with five sections (model, data, optimizer,
adversary, run); ``--set section.key=value`` overrides individual entries.
Every failure is one ``_Failure``, raised where its ``error`` kind is known
(an argv that argparse rejects is a ``usage`` failure); :func:`main` alone
prints it, as a machine-readable JSON object.
Exit codes: 0 success, 1 assertion/bound failure or a diverged run, 2 usage
or config error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import sys

from . import theory
from .models import IdxFormatError, max_relative_grad_error, sample_batch
from .simulation import (
    DivergedError,
    ExperimentConfig,
    RunRecord,
    config_from_mapping,
    load_data,
    parse_sections,
    run_experiment,
    sweep_configs,
    write_csv,
    write_json,
    write_metrics_csv,
    write_summary_json,
)
from .core import RngStream

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

GRADIENT_CHECK_TOLERANCE = 1e-5


class _Failure(Exception):
    """A failure that :func:`main` prints as ``{"error": kind, "message": ...,
    **fields}`` before it returns ``code``."""

    def __init__(self, kind: str, message: str, code: int = EXIT_USAGE, **fields):
        super().__init__(message)
        self.payload = {"error": kind, "message": message, **fields}
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises a bad argv as a ``usage`` failure."""

    def error(self, message):
        raise _Failure("usage", message)


def _read_config(path: str, overrides=()) -> dict:
    """``{section: {key: value}}`` of an INI file, with ``section.key=value``
    overrides applied; an OSError from opening the file propagates.  An
    override's key and value read as an INI line's: stripped, the key lower-cased."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as handle:
        parser.read_file(handle)
    mapping = {section: dict(parser.items(section)) for section in parser.sections()}
    for item in overrides or ():
        key, sep, value = item.partition("=")
        section, dot, name = key.strip().partition(".")
        if not sep or not dot or not section or not name:
            raise ValueError(f"override {item!r} must look like section.key=value")
        mapping.setdefault(section, {})[parser.optionxform(name.strip())] = value.strip()
    return mapping


@contextlib.contextmanager
def _reading(what: str):
    """Block that reads and parses a config: a file that cannot be opened is
    ``config-not-found``, a value that does not parse or validate ``config-invalid``."""
    try:
        yield
    except OSError as exc:
        raise _Failure("config-not-found", f"cannot read {what}: {exc}") from exc
    except (configparser.Error, ValueError) as exc:
        raise _Failure("config-invalid", str(exc)) from exc


@contextlib.contextmanager
def _writing(path: str):
    """Block that writes ``path``; an OSError in it becomes a usage error naming it."""
    try:
        yield path
    except OSError as exc:  # e.g. the path is a directory, or lies under a file
        raise _Failure("usage", f"cannot write {path!r}: {exc}") from exc


@contextlib.contextmanager
def _building(**fields):
    """Block that builds a dataset and runs on it: a dataset that cannot be read
    is ``dataset-error``, a run that diverges ``diverged`` (exit 1) with its round
    and ``fields``."""
    try:
        yield
    except (IdxFormatError, OSError) as exc:
        raise _Failure("dataset-error", str(exc)) from exc
    except DivergedError as exc:
        raise _Failure("diverged", str(exc), EXIT_FAIL, round=exc.round, **fields) from exc


def _load_config(args) -> ExperimentConfig:
    with _reading("config"):
        return config_from_mapping(_read_config(args.config, args.set))


def _make_dir(path: str) -> str:
    with _writing(path):
        os.makedirs(path, exist_ok=True)
    return path


def _write_run(record: RunRecord, out_dir: str) -> dict:
    with _writing(os.path.join(out_dir, "metrics.csv")) as path:
        write_metrics_csv(record, path)
    with _writing(os.path.join(out_dir, "summary.json")) as path:
        write_summary_json(record, path)
    last = record.metrics[-1]
    return {
        "out": out_dir,
        "final_step": last.step,
        "final_loss": last.train_loss,
        "final_accuracy": last.eval_accuracy,
    }


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _make_dir(args.out)
    with _building():
        record = run_experiment(cfg)
    write_json({"status": "ok", **_write_run(record, out)}, sys.stdout)
    return EXIT_OK


def _grid(convert):
    """Parser of a comma-separated grid; items are stripped, and empty ones skipped."""
    def grid(text):  # argparse names a value it rejects by this function's name
        return [convert(item.strip()) for item in text.split(",") if item.strip()]
    return grid


def _cmd_sweep(args) -> int:
    base = _load_config(args)
    try:  # a grid that is empty or names one run twice
        pairs = sweep_configs(base, args.alphas, args.rules)
    except ValueError as exc:
        raise _Failure("usage", str(exc)) from exc
    out = _make_dir(args.out)
    run_dirs = [_make_dir(os.path.join(out, name)) for name, _ in pairs]
    runs = []
    for (name, cfg), run_dir in zip(pairs, run_dirs):
        with _building(run=name):
            record = run_experiment(cfg)
        runs.append({"name": name, **_write_run(record, run_dir)})
    write_json({"status": "ok", "out": out, "runs": runs}, sys.stdout)
    return EXIT_OK


# every key a --grid-config file may use: (section, key) -> (bound_report argument,
# parser); an empty grid here is legal and drops that family of checks
GRID_KEYS = {
    ("sign-error", "snr"): ("snr_grid", _grid(float)),
    ("sign-error", "families"): ("families", _grid(str)),
    ("sign-error", "samples"): ("mc_samples", int),
    ("vote", "workers"): ("vote_workers", _grid(int)),
    ("vote", "p"): ("vote_p", _grid(float)),
    ("vote", "alpha"): ("vote_alpha", _grid(float)),
    ("mc", "seed"): ("seed", int),
}


def _cmd_verify_bounds(args) -> int:
    with _reading("grid config"):
        grids = (parse_sections(_read_config(args.grid_config), GRID_KEYS)
                 if args.grid_config else {})
        rows = theory.bound_report(**{GRID_KEYS[key][0]: value for key, value in grids.items()})
    if not rows:
        raise _Failure("empty-grid", "the configured grids contain no check points")
    out = _make_dir(args.out)
    with _writing(os.path.join(out, "bounds.csv")) as path:
        write_csv(path, theory.REPORT_HEADER,
                  ([row[key] for key in theory.REPORT_HEADER] for row in rows))
    summary = theory.summarize_report(rows)
    with (_writing(os.path.join(out, "bounds_summary.json")) as path,
          open(path, "w", encoding="utf-8") as handle):
        write_json(summary, handle, indent=2)
    write_json({"status": "ok" if summary["all_pass"] else "violations", **summary}, sys.stdout)
    return EXIT_OK if summary["all_pass"] else EXIT_FAIL


def _cmd_gradient_check(args) -> int:
    if args.points < 1:
        raise _Failure("usage", f"--points must be >= 1, got {args.points}")
    cfg = _load_config(args)
    with _building():
        data = load_data(cfg)
    stream = RngStream(cfg.seed, 2**33)
    worst = 0.0
    for _ in range(args.points):
        params = stream.generator.standard_normal(cfg.model.param_dim)
        batch = sample_batch(stream, data.n_samples, min(8, data.n_samples))
        worst = max(worst, max_relative_grad_error(cfg.model, params, data, batch))
    ok = worst < GRADIENT_CHECK_TOLERANCE
    write_json({
        "status": "ok" if ok else "gradient-mismatch",
        "max_relative_error": worst,
        "tolerance": GRADIENT_CHECK_TOLERANCE,
        "points": args.points,
    }, sys.stdout)
    return EXIT_OK if ok else EXIT_FAIL


def _load_run_dir(run_dir: str) -> dict:
    """Config (from the ``summary.json`` echo), and loss curve and final loss
    and accuracy (from ``metrics.csv``) of one finished run."""
    with open(os.path.join(run_dir, "summary.json"), "r", encoding="utf-8") as handle:
        config = config_from_mapping(json.load(handle)["config"])
    steps, losses = [], []
    with open(os.path.join(run_dir, "metrics.csv"), "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        step_i, loss_i, accuracy_i = map(header.index, ("step", "loss", "accuracy"))
        for line in handle:
            cells = line.strip().split(",")
            if len(cells) != len(header):
                raise ValueError(f"metrics.csv line {len(steps) + 2}: {len(cells)} cells "
                                 f"under a {len(header)}-cell header")
            steps.append(int(cells[step_i]))
            losses.append(float(cells[loss_i]))
            accuracy = float(cells[accuracy_i])
    if not steps:
        raise ValueError(f"{run_dir}: metrics.csv has no rows")
    return {"config": config, "loss": losses[-1], "accuracy": accuracy, "steps": steps,
            "losses": losses}


def _cmd_report(args) -> int:
    rows = []
    for run_dir in args.run_dirs:
        try:
            run = _load_run_dir(run_dir)
        # a summary.json of the wrong shape (a list for an object, ...) or nested
        # too deep to parse is skipped like a missing one
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            print(f"warning: skipping {run_dir}: {exc}", file=sys.stderr)
            continue
        threshold = args.loss_threshold
        if threshold is None:
            threshold = 0.5 * run["losses"][0]
        steps_to = next((step for step, value in zip(run["steps"], run["losses"])
                         if value <= threshold), "")
        config = run["config"]
        rows.append((config.optimizer.rule, config.adversary.alpha, run["loss"],
                     run["accuracy"], steps_to))
    if not rows:
        raise _Failure("no-valid-runs", "none of the given run directories were readable")
    with _writing(args.out) as out_path:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        write_csv(out_path, ("rule", "alpha", "final_loss", "final_accuracy",
                             "steps_to_threshold"), rows)
    write_json({"status": "ok", "out": out_path, "rows": len(rows)}, sys.stdout)
    return EXIT_OK


def _add_config_args(sub) -> None:
    sub.add_argument("--config", required=True, help="path to an INI experiment config")
    sub.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                     help="override a config entry (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    def finite(text):  # argparse names a value it rejects by this function's name
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(text)
        return value

    parser = _Parser(
        prog="signvote",
        description="sign-based distributed gradient descent under adversarial workers",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute one experiment")
    sweep = commands.add_parser("sweep", help="one run per (alpha, rule) pair")
    for sub in (run, sweep):
        _add_config_args(sub)
        sub.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_run)
    sweep.add_argument("--alphas", required=True, type=_grid(float),
                       help="comma-separated adversary fractions")
    sweep.add_argument("--rules", required=True, type=_grid(str),
                       help="comma-separated optimizer rules")
    sweep.set_defaults(func=_cmd_sweep)

    verify = commands.add_parser("verify-bounds", help="check bounds on a numeric grid")
    verify.add_argument("--out", default=".", help="output directory (default: %(default)s)")
    verify.add_argument("--grid-config", help="INI file customizing the grids")
    verify.set_defaults(func=_cmd_verify_bounds)

    gradcheck = commands.add_parser("gradient-check",
                                    help="compare analytic gradients with finite differences")
    _add_config_args(gradcheck)
    gradcheck.add_argument("--points", type=int, default=20,
                           help="random evaluation points (>= 1)")
    gradcheck.set_defaults(func=_cmd_gradient_check)

    report = commands.add_parser("report", help="tabulate finished runs into one CSV")
    report.add_argument("run_dirs", nargs="+", help="run directories with metrics + summary")
    report.add_argument("--out", default="report.csv",
                        help="output CSV path (default: %(default)s)")
    report.add_argument("--loss-threshold", type=finite,
                        help="finite loss level for the steps-to-threshold column "
                             "(default: half of each run's initial loss)")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _Failure as failure:
        write_json(failure.payload, sys.stdout)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())
