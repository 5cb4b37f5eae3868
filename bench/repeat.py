"""Run workloads over several seeds and report each end-to-end metric's spread.

    python3 bench/repeat.py --workloads vote-m101 mlp-idx --seeds 1-10 --out spread.json

Runs ``bench/run.py`` once per (workload, seed), one after another, with the
``run_seconds`` of BENCHMARK.json.  For every workload and end-to-end metric
it prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the quartile distance as a share of the median, next to the metric's
bound.  This is the steadiness test a benchmark change must pass, and the
before/after record of a performance change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(item) for item in text.split(",")]


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", help="write every run's result and the spreads as JSON")
    args = parser.parse_args()

    record = {"seconds": args.seconds, "runs": {}, "spread": {}}
    ok = True
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            record.setdefault("environment", lines[0])
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            ok &= result["correct"]
        record["runs"][name] = runs
        for metric in benchmark["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            record["spread"][f"{name}/{metric['name']}"] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"]}
            print(f"{name:16s} {metric['name']:12s} median {median:10.5g} {metric['unit']:3s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.3f} (bound {metric['bound']})",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if not ok:
        print("some runs failed their output checks", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
