"""signvote benchmark: four workloads, each run from one closed-loop client.

    python3 bench/run.py --workload vote-m101 --seed 8005 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each invocation generates the workload's inputs from ``--seed`` (config
overrides, IDX files, a grid config) into a scratch directory of the
checkout, then starts one workload process (``workload.py``) that calls
signvote in a closed loop for ``--seconds`` seconds, checks every output and,
between calls, times the cold start in fresh interpreters.  The metric names and units
come from BENCHMARK.json at the checkout root.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The lines before it print the same numbers by
name, with unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

# one BLAS thread per process: no workload uses more threads than nproc
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  -- after the thread pin

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 8005  # the bundled configs' seed; workload anchors hold at this seed
SETUP_PROBES = 7
MIN_ROUNDS = 3
IDX_SAMPLES = 4000  # MNIST-shaped, 1/15 of the MNIST training set
SCALE = ["run.workers=101", "model.input_dim=200"]

WORKLOADS = {
    "vote-m101": {"config": "logistic_byzantine.cfg", "overrides": SCALE},
    "sgd-freeze-m101": {"config": "sgd_inverse_sum.cfg", "overrides": SCALE},
    "mlp-idx": {"config": "mnist_mlp.cfg", "overrides": []},
    # the estimation dataset and model: logistic_blind's, as in demo 07
    "theory-oracles": {"config": "logistic_blind.cfg", "overrides": []},
}


class BenchmarkError(Exception):
    """The benchmark could not run or measure; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def write_idx(directory: Path, seed: int) -> tuple[Path, Path]:
    """Big-endian IDX image/label files: 28x28 uint8 images, 10 classes.

    Labels come from a seeded linear teacher on the centred pixels, so they
    are learnable and the loss moves.
    """
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(IDX_SAMPLES, 28, 28), dtype=np.uint8)
    teacher = rng.standard_normal((10, 28 * 28))
    pixels = images.reshape(IDX_SAMPLES, -1) / 255.0
    labels = np.argmax((pixels - pixels.mean(axis=0)) @ teacher.T, axis=1).astype(np.uint8)
    images_path, labels_path = directory / "images-idx3-ubyte", directory / "labels-idx1-ubyte"
    images_path.write_bytes(struct.pack(">IIII", 0x803, IDX_SAMPLES, 28, 28) + images.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, IDX_SAMPLES) + labels.tobytes())
    return images_path, labels_path


def make_inputs(name: str, seed: int, scratch: Path) -> dict:
    """Config path, overrides and input files of one workload at one seed."""
    workload = WORKLOADS[name]
    inputs = {
        "config": str(ROOT / "configs" / workload["config"]),
        "overrides": workload["overrides"] + [f"run.seed={seed}"],
    }
    if name == "mlp-idx":
        images, labels = write_idx(scratch, seed)
        inputs["overrides"] += [f"data.images={images}", f"data.labels={labels}"]
    if name == "theory-oracles":
        grid = scratch / "grid.cfg"
        grid.write_text(f"[mc]\nseed = {seed}\n", encoding="utf-8")
        inputs["grid_config"] = str(grid)
    return inputs


def run_workload(name: str, seed: int, seconds: float, trace: bool, anchors: dict) -> dict:
    """One workload at one seed, in its own process."""
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        inputs = make_inputs(name, seed, scratch)
        spec = {
            **inputs,
            "workload": name,
            "seconds": seconds,
            "trace": trace,
            "min_rounds": MIN_ROUNDS,
            "setup_probes": SETUP_PROBES,
            "setup_probe": str(BENCH / "setup_probe.py"),
            "work_dir": str(scratch),
            "configs_dir": str(ROOT / "configs"),
            "bundled_anchors": anchors["bundled"],
            "anchor": anchors["workloads"].get(name) if seed == DEFAULT_SEED else None,
            "spans_path": str(WORK / f"spans-{name}.csv"),
        }
        done = subprocess.run([sys.executable, str(BENCH / "workload.py"), json.dumps(spec)],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=seconds + 120)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchmarkError(f"{name}: workload process exit {done.returncode}:\n"
                                 f"{done.stderr[-4000:]}")
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    probes = result["probes"]
    if not probes or not result["durations"]:
        raise BenchmarkError(f"{name}: nothing measured: {result['errors']}")
    # metric -> (median, sample count)
    measured = {
        "run_s": result["durations"],
        "setup_s": [p["setup_s"] for p in probes],
        "peak_rss_mb": [result["peak_rss_mb"]],
    }
    if trace:
        measured["models.load_data_s"] = [p["load_data_s"] for p in probes]
        measured["cli.import_s"] = [p["import_s"] for p in probes]
        measured["cli.import_scipy_s"] = [p["import_scipy_s"] for p in probes]
    result["measured"] = {metric: (statistics.median(v), len(v)) for metric, v in measured.items()}
    result["measured"]["failed_share"] = (result["failed"] / result["attempted"], result["attempted"])
    for metric, value in result.get("layers", {}).items():
        result["measured"][metric] = (value, result["traced_runs"])
    return result


def report(name: str, result: dict, metrics: list[dict]) -> dict:
    """Print each metric by name with unit and sample count; return the JSON metrics."""
    out = {}
    for metric in metrics:
        if metric["name"] not in result["measured"]:
            raise BenchmarkError(f"{name}: metric {metric['name']} was not measured")
        value, count = result["measured"][metric["name"]]
        print(f"{name:16s} {metric['name']:44s} {value:>14.6g} {metric['unit']:6s} n={count}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time budget of the closed loop (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "signvote" / "__init__.py", ROOT / "configs",
                   ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full signvote checkout",
                  file=sys.stderr)
            return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    anchors = json.loads((BENCH / "anchors.json").read_text(encoding="utf-8"))
    # failed_share is printed, not put in the JSON metrics: it is 0 when all is well,
    # and the JSON line carries attempted and failed instead
    metrics = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    metrics = [*metrics, {"name": "failed_share", "unit": "share"}]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, bool(args.trace), anchors)
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if name == names[0]:
            env = " ".join(f"{k}={v}" for k, v in result["environment"].items())
            print(f"# environment: {env}")
        for error in result["errors"]:
            print(f"# {name} failure: {error}", file=sys.stderr)
        printed = report(name, result, metrics)
        printed.pop("failed_share", None)
        if len(names) == 1:
            out = printed
        else:
            out.update({f"{name}/{metric}": value for metric, value in printed.items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
