"""One workload process: a closed loop of timed calls into signvote.

    python3 bench/workload.py SPEC_JSON

Started by ``bench/run.py``, which generates the inputs and passes them in
SPEC_JSON.  The process checks the three bundled-config anchors once, then
runs the workload's timed call again and again, starting the next call when
the previous one has ended, until the time budget is spent.  Every call's
output is checked.  With tracing on, untraced calls alternate with calls
under :class:`tracer.Tracer`.  The last line
of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

from signvote import cli, simulation, theory
from signvote.core import RngStream
from signvote.optimizers import SIGN_RULES

from inputs import read_config
from tracer import Tracer

# theory-oracles: seeded parameter points per batch, and demo 07's estimation plan
THEORY_POINTS = 8
MATCH_BATCH_SIZES = (2, 8, 32, 128, 512)  # plus the full batch, which draws nothing
MATCH_SAMPLES = 400
SIGMA_BATCH, SIGMA_SAMPLES = 32, 1000

ERRORS_KEPT = 5


class CheckFailed(Exception):
    """A workload's output broke one of its invariants."""


def sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# -- timed calls and their output checks -----------------------------------------------


class RoundWorkload:
    """``run_experiment`` on one config; the output is its ``metrics.csv``."""

    def __init__(self, spec: dict):
        self.name = spec["workload"]
        self.cfg = read_config(spec["config"], spec["overrides"])
        self.csv_path = os.path.join(spec["work_dir"], "metrics.csv")
        self.anchor = spec["anchor"]

    def call(self):
        return simulation.run_experiment(self.cfg, parallel=False)

    def check(self, record) -> str:
        simulation.write_metrics_csv(record, self.csv_path)
        digest = sha256(self.csv_path)
        if self.anchor is not None and digest != self.anchor:
            raise CheckFailed(f"metrics.csv sha256 {digest} != anchor {self.anchor}")
        losses = [row.train_loss for row in record.metrics]
        if not all(math.isfinite(value) for value in losses):
            raise CheckFailed("non-finite loss")
        if self.name == "sgd-freeze-m101":
            # the loss alone can hide a residue below one ulp; the broadcast mean must be
            # the exact zero vector
            if len({value.hex() for value in losses}) != 1:
                raise CheckFailed("inverse-sum attack did not freeze the loss bit for bit")
            if any(row.zero_fraction != 1.0 for row in record.metrics[1:]):
                raise CheckFailed("inverse-sum attack left a non-zero mean aggregate")
        else:
            for row in record.metrics[1:]:
                for value in (row.sign_agreement, row.zero_fraction):
                    if not 0.0 <= value <= 1.0:
                        raise CheckFailed(f"step {row.step}: fraction {value!r} outside [0, 1]")
        return digest

    def expected_calls(self) -> dict:
        """Closed-form call counts of one run, from the config alone."""
        cfg = self.cfg
        rounds, workers = cfg.n_rounds, cfg.n_workers
        strategy = cfg.adversary.strategy
        f = simulation.byzantine_count(cfg.adversary.alpha, workers)
        honest = workers if strategy in ("none", "blind-invert") else workers - f
        evals = sum(1 for t in range(rounds)
                    if (t + 1) % cfg.eval_every == 0 or t + 1 == rounds)
        colluders = strategy.startswith("byz-collude")
        sign_rule = cfg.optimizer.rule in SIGN_RULES
        return {
            "models.sample_batch": rounds * honest,
            "models.grad.worker": rounds * honest,
            "models.grad.full": rounds if strategy == "byz-oppose-true-sign" else evals,
            "optimizers.worker_message": rounds * honest,
            "optimizers.server_aggregate": rounds,
            "core.as_signs": rounds * (workers + (honest if colluders else 0)) if sign_rule else 0,
            "simulation.run_experiment": 1,
        }


class TheoryWorkload:
    """``signvote verify-bounds`` on the default grid, then p and sigma estimation."""

    def __init__(self, spec: dict):
        cfg = read_config(spec["config"], spec["overrides"])
        self.spec_model = cfg.model
        self.data = simulation.load_data(cfg)
        self.seed = cfg.seed
        self.work_dir = spec["work_dir"]
        self.grid_config = spec["grid_config"]

    def call(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["verify-bounds", "--out", self.work_dir,
                             "--grid-config", self.grid_config])
        estimates = []
        n, dim = self.data.n_samples, self.spec_model.param_dim
        for point in range(THEORY_POINTS):
            key = 10 * point  # point 0 uses demo 07's stream ids
            params = 0.1 * RngStream(self.seed, key + 1).generator.standard_normal(dim)
            probs = [theory.estimate_sign_match_prob(self.spec_model, params, self.data, size,
                                                     MATCH_SAMPLES, RngStream(self.seed, key + 2))
                     for size in MATCH_BATCH_SIZES + (n,)]
            rates, mask = theory.estimate_sign_match_profile(
                self.spec_model, params, self.data, 32, MATCH_SAMPLES, RngStream(self.seed, key + 3))
            sigma = theory.estimate_sigma(self.spec_model, params, self.data, SIGMA_BATCH,
                                          SIGMA_SAMPLES, RngStream(self.seed, key + 4))
            estimates.append((np.array(probs), rates, mask, sigma))
        return code, stdout.getvalue(), estimates

    def check(self, output) -> str:
        code, stdout, estimates = output
        summary = json.loads(stdout.strip().splitlines()[-1])
        if code != 0 or summary.get("all_pass") is not True:
            raise CheckFailed(f"verify-bounds exit {code}: {stdout.strip()}")
        digest = hashlib.sha256()
        with open(os.path.join(self.work_dir, "bounds.csv"), "rb") as handle:
            digest.update(handle.read())
        for probs, rates, mask, sigma in estimates:
            if not (np.all((probs >= 0) & (probs <= 1)) and np.all((rates >= 0) & (rates <= 1))):
                raise CheckFailed("sign-match rate outside [0, 1]")
            if probs[-1] != 1.0:
                raise CheckFailed(f"full-batch sign-match rate {probs[-1]!r} != 1")
            if not np.all(np.isfinite(sigma) & (sigma >= 0)):
                raise CheckFailed("sigma estimate not finite and non-negative")
            for array in (probs, rates, mask, sigma):
                digest.update(array.tobytes())
        return digest.hexdigest()

    def expected_calls(self) -> dict:
        per_point_sampled = len(MATCH_BATCH_SIZES) * MATCH_SAMPLES + MATCH_SAMPLES + SIGMA_SAMPLES
        return {
            "cli.main": 1,
            "theory.mc_sign_error": len(theory.NOISE_FAMILIES) * len(theory.DEFAULT_SNR_GRID),
            "theory.estimate_sigma": THEORY_POINTS,
            "models.grad.worker": THEORY_POINTS * per_point_sampled,
            "models.grad.full": THEORY_POINTS * (len(MATCH_BATCH_SIZES) + 2),
        }


# -- checks made once per invocation --------------------------------------------------


def check_bundled_anchors(spec: dict) -> None:
    """The bundled configs, unmodified, must reproduce their recorded hashes."""
    path = os.path.join(spec["work_dir"], "anchor.csv")
    for name, expected in spec["bundled_anchors"].items():
        cfg = read_config(os.path.join(spec["configs_dir"], f"{name}.cfg"))
        simulation.write_metrics_csv(simulation.run_experiment(cfg, parallel=False), path)
        if sha256(path) != expected:
            raise CheckFailed(f"bundled config {name}: metrics.csv sha256 {sha256(path)} "
                              f"!= anchor {expected}")


def peak_rss_mb() -> float:
    """This process's peak RSS in MiB.

    Read from VmHWM, the high-water mark of the current address space:
    ``getrusage`` would carry over the peak of the parent process that
    spawned this one.
    """
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if unavailable."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    def blas_version(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(np),
        "scipy_blas": blas_version(scipy),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- the closed loop ----------------------------------------------------------------


class Loop:
    """Durations, output digests and failures of the timed calls."""

    def __init__(self, workload):
        self.workload = workload
        self.durations: list[float] = []
        self.digests: list[str] = []
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < ERRORS_KEPT:
            self.errors.append(message)

    def once(self, wrap=contextlib.nullcontext) -> None:
        """One timed call and its output check; ``wrap`` is entered outside the timing."""
        with wrap():
            t0 = time.perf_counter()
            try:
                output = self.workload.call()
            except Exception:  # a raising call is a failed run, not a crashed benchmark
                self.durations.append(time.perf_counter() - t0)
                self.fail(traceback.format_exc(limit=3))
                return
            self.durations.append(time.perf_counter() - t0)
        try:
            digest = self.workload.check(output)
        except CheckFailed as exc:
            self.fail(f"check failed: {exc}")
            return
        if self.digests and digest != self.digests[0]:
            self.fail(f"output changed between calls with one seed: {digest} != {self.digests[0]}")
        self.digests.append(digest)


class ColdStarts:
    """Cold-start probes (``setup_probe.py``), each in a fresh interpreter.

    With ``importtime`` the probes run under ``python -X importtime`` and
    also report the import time of signvote and of scipy.
    """

    def __init__(self, spec: dict, importtime: bool):
        self.command = [sys.executable] + (["-X", "importtime"] if importtime else [])
        self.command += [spec["setup_probe"], spec["config"], *spec["overrides"]]
        self.importtime = importtime
        self.wanted = spec["setup_probes"]
        self.probes: list[dict] = []
        self.tried = 0
        self.errors: list[str] = []

    def once(self) -> None:
        if self.tried >= self.wanted:
            return
        self.tried += 1
        done = subprocess.run(self.command, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            self.errors.append(f"setup probe exit {done.returncode}: {done.stderr[-2000:]}")
            return
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if self.importtime:
            probe["import_s"], probe["import_scipy_s"] = import_times(done.stderr)
        self.probes.append(probe)


def import_times(stderr: str) -> tuple[float, float]:
    """Seconds spent importing signvote (with all it pulls in) and scipy.

    Reads ``python -X importtime`` output: one line per module, children
    before their parent and indented two spaces deeper.  The signvote figure
    sums the top-level signvote imports; the scipy figure sums every scipy
    subtree that is not inside another scipy module.
    """
    stack: list[tuple] = []  # (depth, cumulative_us, name, children); roots at the end
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        depth = (len(raw) - len(raw.lstrip())) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, int(cumulative), raw.strip(), children))

    def scipy_us(node) -> int:
        if node[2] == "scipy" or node[2].startswith("scipy."):
            return node[1]
        return sum(scipy_us(child) for child in node[3])

    signvote = sum(n[1] for n in stack if n[2] == "signvote" or n[2].startswith("signvote."))
    return signvote / 1e6, sum(scipy_us(n) for n in stack) / 1e6


def closed_loop(budget: float, min_rounds: int, steps, cold: ColdStarts) -> None:
    """Run each ``(loop, wrap)`` step once per round, round after round.

    Stops when the next round would overrun ``budget`` seconds, judged by
    the last round's durations, after at least ``min_rounds`` rounds.  One
    cold-start probe follows each round, so that the probes meet the same
    spells of machine speed as the timed calls; the rest run at the end.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        for loop, wrap in steps:
            loop.once(wrap)
        cold.once()
        rounds += 1
        last = sum(loop.durations[-1] for loop, _ in steps)
        if rounds >= min_rounds and time.perf_counter() - start + last > budget:
            break
    while cold.tried < cold.wanted:
        cold.once()


def layer_metrics(tracer: Tracer, k: int) -> dict:
    """Per-layer metrics of traced run ``k``.

    ``<span>.calls`` and ``<span>.self_s`` for every traced name, 0 for the
    layers the workload never reaches, plus the derived ratios.
    """
    run = tracer.run_summary(k)
    calls, self_s = run["calls"], run["self_s"]
    metrics = {f"{name}.calls": count for name, count in calls.items()}
    metrics.update({f"{name}.self_s": seconds for name, seconds in self_s.items()})
    metrics["simulation.self_s"] = self_s["simulation.run_experiment"]
    metrics["core.as_signs.per_message"] = (
        calls["core.as_signs"] / run["messages"] if run["messages"] else 0.0)
    aggregations = calls["optimizers.server_aggregate"]
    metrics["optimizers.message_bytes_per_round"] = (
        run["message_bytes"] / aggregations if aggregations else 0.0)
    rounds_ms = 1000.0 * run["round_s"]
    for q in (50, 95):
        metrics[f"simulation.round_ms_p{q}"] = (
            float(np.percentile(rounds_ms, q)) if rounds_ms.size else 0.0)
    return metrics


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = (TheoryWorkload if spec["workload"] == "theory-oracles" else RoundWorkload)(spec)
    attempted, failed, errors = 1, 0, []
    try:
        check_bundled_anchors(spec)
    except CheckFailed as exc:
        failed, errors = 1, [str(exc)]

    loop = Loop(workload)
    cold = ColdStarts(spec, importtime=spec["trace"])
    result = {"environment": environment()}
    if not spec["trace"]:
        closed_loop(spec["seconds"], spec["min_rounds"], [(loop, contextlib.nullcontext)], cold)
    else:
        # traced and untraced calls alternate, so drift in machine speed
        # reaches both sides of trace.overhead alike
        tracer = Tracer()
        traced = Loop(workload)

        @contextlib.contextmanager
        def tracing():
            with tracer.installed(), tracer.run():
                yield

        closed_loop(spec["seconds"], spec["min_rounds"],
                    [(loop, contextlib.nullcontext), (traced, tracing)], cold)
        if set(traced.digests) - set(loop.digests):
            traced.fail("traced output differs from the untraced output")
        per_run = [layer_metrics(tracer, k) for k in range(len(tracer.runs))]
        for metrics in per_run:
            wrong = {name: (metrics[f"{name}.calls"], count)
                     for name, count in workload.expected_calls().items()
                     if metrics[f"{name}.calls"] != count}
            if wrong:
                traced.fail(f"traced call counts (seen, closed form) differ: {wrong}")
        layers = {name: statistics.median_low([run[name] for run in per_run])
                  for name in per_run[0]}
        layers["trace.overhead"] = (statistics.median(traced.durations)
                                    / statistics.median(loop.durations))
        result["layers"] = layers
        result["traced_runs"] = len(tracer.runs)
        tracer.write(spec["spans_path"])
        attempted += len(traced.durations)
        failed += traced.failed
        errors += traced.errors

    attempted += len(loop.durations) + cold.tried
    failed += loop.failed + len(cold.errors)
    errors += loop.errors + cold.errors
    result.update({
        "probes": cold.probes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:ERRORS_KEPT],
        "durations": loop.durations,
        "peak_rss_mb": peak_rss_mb(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
