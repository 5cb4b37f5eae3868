"""Command-line front end: runs, sweeps, bound verification, and report tables.

Config files are flat INI with five sections (model, data, optimizer,
adversary, run); ``--set section.key=value`` overrides individual entries.
Every failure prints a machine-readable JSON object with an ``error`` kind.
Exit codes: 0 success, 1 assertion/bound failure or a diverged run, 2 usage
or config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

from . import theory
from .models import IdxFormatError, max_relative_grad_error, sample_batch
from .simulation import (
    DivergedError,
    RunRecord,
    config_from_mapping,
    load_data,
    run_experiment,
    sweep_configs,
    write_json,
    write_metrics_csv,
    write_summary_json,
)
from .core import RngStream

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

GRADIENT_CHECK_TOLERANCE = 1e-5


def _emit(payload: dict) -> None:
    write_json(payload, sys.stdout)


def _error(kind: str, message: str, code: int = EXIT_USAGE, **fields) -> int:
    _emit({"error": kind, "message": message, **fields})
    return code


def _diverged(exc: DivergedError, **fields) -> int:
    return _error("diverged", str(exc), EXIT_FAIL, round=exc.round, **fields)


def _read_config(path: str, overrides, seed: int | None) -> dict:
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as handle:
        parser.read_file(handle)
    mapping = {section: dict(parser.items(section)) for section in parser.sections()}
    for item in overrides or ():
        key, sep, value = item.partition("=")
        section, dot, name = key.partition(".")
        if not sep or not dot or not section or not name:
            raise ValueError(f"override {item!r} must look like section.key=value")
        mapping.setdefault(section, {})[name] = value
    if seed is not None:
        mapping.setdefault("run", {})["seed"] = str(seed)
    return mapping


def _make_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # e.g. the path names an existing file
        raise ValueError(f"cannot use {path!r} as output directory: {exc}") from exc
    return path


def _resolve_out(args, cfg) -> str:
    out = args.out or cfg.out_dir
    if not out:
        raise ValueError("no output directory: pass --out or set run.out in the config")
    return _make_dir(out)


def _write_run(record: RunRecord, out_dir: str) -> dict:
    metrics_path = os.path.join(out_dir, "metrics.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    write_metrics_csv(record, metrics_path)
    write_summary_json(record, summary_path)
    last = record.metrics[-1]
    return {
        "out": out_dir,
        "final_step": last.step,
        "final_loss": last.train_loss,
        "final_accuracy": last.eval_accuracy,
    }


def _with_config(args, body) -> int:
    """Shared config-loading error handling for run-like commands."""
    try:
        mapping = _read_config(args.config, args.set, args.seed)
    except FileNotFoundError as exc:
        return _error("config-not-found", f"config file not found: {exc}")
    except (configparser.Error, ValueError) as exc:
        return _error("config-invalid", str(exc))
    try:
        cfg = config_from_mapping(mapping)
    except ValueError as exc:
        return _error("config-invalid", str(exc))
    try:
        return body(cfg)
    except (IdxFormatError, FileNotFoundError) as exc:
        return _error("dataset-error", str(exc))


def _cmd_run(args) -> int:
    def body(cfg) -> int:
        try:
            out = _resolve_out(args, cfg)
        except ValueError as exc:
            return _error("usage", str(exc))
        try:
            record = run_experiment(cfg)
        except DivergedError as exc:
            return _diverged(exc)
        result = _write_run(record, out)
        _emit({"status": "ok", **result})
        return EXIT_OK

    return _with_config(args, body)


def _parse_grid(text: str, convert, what: str):
    try:
        values = [convert(item) for item in text.split(",") if item.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad {what} grid {text!r}") from exc
    if not values:
        raise ValueError(f"empty {what} grid")
    return values


def _cmd_sweep(args) -> int:
    def body(base) -> int:
        try:
            out = _resolve_out(args, base)
            alphas = _parse_grid(args.alphas, float, "alpha")
            rules = _parse_grid(args.rules, str, "rule")
            pairs = sweep_configs(base, alphas, rules)
            run_dirs = [_make_dir(os.path.join(out, name)) for name, _ in pairs]
        except ValueError as exc:
            return _error("usage", str(exc))
        runs = []
        for (name, cfg), run_dir in zip(pairs, run_dirs):
            try:
                record = run_experiment(cfg)
            except DivergedError as exc:
                return _diverged(exc, run=name)
            runs.append({"name": name, **_write_run(record, run_dir)})
        _emit({"status": "ok", "out": out, "runs": runs})
        return EXIT_OK

    return _with_config(args, body)


def _read_grid_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as handle:
        parser.read_file(handle)

    def grid(text, convert):
        # empty sub-grids are legal here; they just drop that family of checks
        return [convert(item) for item in text.split(",") if item.strip() != ""]

    kwargs = {}
    if parser.has_section("sign-error"):
        section = parser["sign-error"]
        if "snr" in section:
            kwargs["snr_grid"] = grid(section["snr"], float)
        if "families" in section:
            kwargs["families"] = grid(section["families"], str)
        if "samples" in section:
            kwargs["mc_samples"] = int(section["samples"])
    if parser.has_section("vote"):
        section = parser["vote"]
        if "workers" in section:
            kwargs["vote_workers"] = grid(section["workers"], int)
        if "p" in section:
            kwargs["vote_p"] = grid(section["p"], float)
        if "alpha" in section:
            kwargs["vote_alpha"] = grid(section["alpha"], float)
    if parser.has_section("mc") and "seed" in parser["mc"]:
        kwargs["seed"] = int(parser["mc"]["seed"])
    return kwargs


def _cmd_verify_bounds(args) -> int:
    kwargs = {}
    if args.grid_config:
        if not os.path.exists(args.grid_config):
            return _error("config-not-found", f"grid config not found: {args.grid_config}")
        try:
            kwargs = _read_grid_config(args.grid_config)
        except (configparser.Error, ValueError) as exc:
            return _error("config-invalid", str(exc))
    try:
        rows = theory.bound_report(**kwargs)
    except ValueError as exc:
        return _error("config-invalid", str(exc))
    if not rows:
        return _error("empty-grid", "the configured grids contain no check points")
    try:
        out = _make_dir(args.out or ".")
    except ValueError as exc:
        return _error("usage", str(exc))
    theory.write_bound_report_csv(rows, os.path.join(out, "bounds.csv"))
    summary = theory.summarize_report(rows)
    with open(os.path.join(out, "bounds_summary.json"), "w", encoding="utf-8") as handle:
        write_json(summary, handle, indent=2)
    _emit({"status": "ok" if summary["all_pass"] else "violations", **summary})
    return EXIT_OK if summary["all_pass"] else EXIT_FAIL


def _cmd_gradient_check(args) -> int:
    def body(cfg) -> int:
        data = load_data(cfg)
        stream = RngStream(cfg.seed, 2**33)
        worst = 0.0
        for _ in range(args.points):
            params = stream.generator.standard_normal(cfg.model.param_dim)
            batch = sample_batch(stream, data.n_samples, min(8, data.n_samples))
            worst = max(worst, max_relative_grad_error(cfg.model, params, data, batch))
        ok = worst < GRADIENT_CHECK_TOLERANCE
        _emit({
            "status": "ok" if ok else "gradient-mismatch",
            "max_relative_error": worst,
            "tolerance": GRADIENT_CHECK_TOLERANCE,
            "points": args.points,
        })
        return EXIT_OK if ok else EXIT_FAIL

    return _with_config(args, body)


def _load_run_dir(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "summary.json"), "r", encoding="utf-8") as handle:
        summary = json.load(handle)
    steps, losses = [], []
    with open(os.path.join(run_dir, "metrics.csv"), "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        step_i, loss_i = header.index("step"), header.index("loss")
        for line in handle:
            cells = line.strip().split(",")
            steps.append(int(cells[step_i]))
            losses.append(float(cells[loss_i]))
    if not steps:
        raise ValueError(f"{run_dir}: metrics.csv has no rows")
    return {"summary": summary, "steps": steps, "losses": losses}


def _float_or_nan(value) -> float:
    """A summary number; ``null`` (written for NaN or infinity) reads as NaN."""
    return float("nan") if value is None else float(value)


def _cmd_report(args) -> int:
    rows = []
    for run_dir in args.run_dirs:
        try:
            run = _load_run_dir(run_dir)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {run_dir}: {exc}", file=sys.stderr)
            continue
        config = run["summary"]["config"]
        threshold = args.loss_threshold
        if threshold is None:
            threshold = 0.5 * run["losses"][0]
        steps_to = ""
        for step, value in zip(run["steps"], run["losses"]):
            if value <= threshold:
                steps_to = str(step)
                break
        final = run["summary"]["final"]
        rows.append(",".join([
            str(config["optimizer"]["rule"]),
            repr(float(config["adversary"]["alpha"])),
            repr(_float_or_nan(final["loss"])),
            repr(_float_or_nan(final["accuracy"])),
            steps_to,
        ]))
    if not rows:
        return _error("no-valid-runs", "none of the given run directories were readable")
    out_path = args.out or "report.csv"
    out_dir = os.path.dirname(out_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write("rule,alpha,final_loss,final_accuracy,steps_to_threshold\n")
        handle.write("\n".join(rows) + "\n")
    _emit({"status": "ok", "out": out_path, "rows": len(rows)})
    return EXIT_OK


def _add_config_args(sub) -> None:
    sub.add_argument("--config", required=True, help="path to an INI experiment config")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                     help="override a config entry (repeatable)")
    sub.add_argument("--seed", type=int, help="override run.seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signvote",
        description="sign-based distributed gradient descent under adversarial workers",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute one experiment")
    _add_config_args(run)
    run.set_defaults(func=_cmd_run)

    sweep = commands.add_parser("sweep", help="one run per (alpha, rule) pair")
    _add_config_args(sweep)
    sweep.add_argument("--alphas", required=True, help="comma-separated adversary fractions")
    sweep.add_argument("--rules", required=True, help="comma-separated optimizer rules")
    sweep.set_defaults(func=_cmd_sweep)

    verify = commands.add_parser("verify-bounds", help="check bounds on a numeric grid")
    verify.add_argument("--out", help="output directory (default: current)")
    verify.add_argument("--grid-config", help="INI file customizing the grids")
    verify.set_defaults(func=_cmd_verify_bounds)

    gradcheck = commands.add_parser("gradient-check",
                                    help="compare analytic gradients with finite differences")
    _add_config_args(gradcheck)
    gradcheck.add_argument("--points", type=int, default=20, help="random evaluation points")
    gradcheck.set_defaults(func=_cmd_gradient_check)

    report = commands.add_parser("report", help="tabulate finished runs into one CSV")
    report.add_argument("run_dirs", nargs="+", help="run directories with metrics + summary")
    report.add_argument("--out", help="output CSV path (default: report.csv)")
    report.add_argument("--loss-threshold", type=float,
                        help="loss level for the steps-to-threshold column "
                             "(default: half of each run's initial loss)")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
