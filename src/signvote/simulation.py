"""Synchronous parameter-server rounds with adversarial workers.

One canonical parameter vector stands in for the per-worker replicas: the
server broadcasts the same direction to everyone, so the replicas can never
diverge (a small-scale consistency test asserts this).  Each round runs in
two phases -- honest and blind workers commit messages first, omniscient
adversaries observe them and answer -- followed by aggregation and the shared
update.

Determinism contract: every random draw comes from an :class:`~signvote.core.RngStream`
keyed by (seed, stream id).  Worker m uses stream id m and synthetic data
generation uses :data:`DATA_STREAM_ID`, so results do not depend on the
order in which workers are visited.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .adversaries import (
    SGD_ONLY_STRATEGIES,
    SIGN_ONLY_STRATEGIES,
    STRATEGIES,
    blind_invert,
    byz_collude_signs,
    byz_inverse_sum,
    byz_oppose_true_sign,
)
from .core import NonFiniteError, RngStream, sum_signs
from .models import (
    SYNTHETIC_KINDS,
    Dataset,
    IdxFormatError,
    ModelSpec,
    accuracy,
    full_batch,
    generate_synthetic,
    grad,
    initial_params,
    load_idx,
    loss,
    sample_batch,
)
from .optimizers import (
    SIGN_RULES,
    OptimizerConfig,
    Schedule,
    apply_update,
    effective_eta,
    server_aggregate_sgd,
    server_aggregate_signs,
    worker_message,
)

__all__ = [
    "AdversaryConfig",
    "DATA_STREAM_ID",
    "DivergedError",
    "INIT_STREAM_ID",
    "ExperimentConfig",
    "IdxData",
    "METRICS_HEADER",
    "RoundMetrics",
    "RunRecord",
    "SyntheticData",
    "byzantine_count",
    "config_from_mapping",
    "config_to_mapping",
    "load_data",
    "run_experiment",
    "run_sweep",
    "sweep_configs",
    "write_json",
    "write_metrics_csv",
    "write_summary_json",
]

# reserved stream ids, far above any worker index
DATA_STREAM_ID = 2**32
INIT_STREAM_ID = 2**32 + 1


def byzantine_count(alpha: float, n_workers: int) -> int:
    """Adversarial worker count f = round(alpha * M), half rounding away from zero."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    return int(np.floor(alpha * n_workers + 0.5))


@dataclass(frozen=True, kw_only=True)
class SyntheticData:
    """Synthetic dataset request; ``kind`` names the generating family.

    The feature width is the model's ``input_dim``.
    """

    kind: str
    n_samples: int
    noise_level: float = 0.0

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(f"synthetic data supports {SYNTHETIC_KINDS}, not {self.kind!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.noise_level < 0:
            raise ValueError("noise_level must be >= 0")


@dataclass(frozen=True)
class IdxData:
    """Paths to a big-endian IDX image/label pair."""

    images_path: str
    labels_path: str


@dataclass(frozen=True)
class AdversaryConfig:
    strategy: str = "none"
    alpha: float = 0.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; two configs with equal fields replay identically."""

    model: ModelSpec
    data: SyntheticData | IdxData
    optimizer: OptimizerConfig
    n_workers: int
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    n_rounds: int = 100
    seed: int = 0
    eval_every: int = 10
    p_estimate: float | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        f = byzantine_count(self.adversary.alpha, self.n_workers)
        if f > 0:
            strategy = self.adversary.strategy
            rule = self.optimizer.rule
            if strategy in SIGN_ONLY_STRATEGIES and rule not in SIGN_RULES:
                raise ValueError(f"strategy {strategy!r} requires a sign rule, got {rule!r}")
            if strategy in SGD_ONLY_STRATEGIES and rule != "dist-sgd":
                raise ValueError(f"strategy {strategy!r} requires rule 'dist-sgd', got {rule!r}")
        if self.p_estimate is not None:
            if not 0.0 < self.p_estimate <= 1.0:
                raise ValueError("p_estimate must lie in (0, 1]")
            edge = 1.0 - 1.0 / (2.0 * self.p_estimate)
            if self.adversary.alpha >= edge:
                warnings.warn(
                    f"alpha={self.adversary.alpha:g} is at or beyond the admissible "
                    f"fraction 1 - 1/(2p) = {edge:g} for p={self.p_estimate:g}; "
                    "the vote-failure guarantees do not apply",
                    stacklevel=2,
                )


@dataclass(frozen=True)
class RoundMetrics:
    """One recorded evaluation point.

    ``sign_agreement`` is the fraction of coordinates where the broadcast
    direction's sign matches the true full-batch gradient's sign, and
    ``zero_fraction`` the fraction of exactly-zero broadcast coordinates;
    both are NaN on the pre-update baseline row.  ``eval_accuracy`` is NaN
    for regression models.
    """

    step: int
    train_loss: float
    eval_accuracy: float
    effective_eta: float
    sign_agreement: float
    zero_fraction: float


class DivergedError(ArithmeticError):
    """The run left the finite numbers: a parameter, a loss or a worker's
    estimate became NaN or infinite.  ``round`` is the 1-based round in which
    it was seen (the ``step`` its evaluation row would have had)."""

    def __init__(self, round_number: int):
        super().__init__(f"non-finite parameters, loss or gradient in round {round_number}")
        self.round = round_number


@dataclass
class RunRecord:
    config: ExperimentConfig
    metrics: list[RoundMetrics]
    final_params: np.ndarray
    wall_time_s: float


def load_data(cfg: ExperimentConfig) -> Dataset:
    """Materialize the configured dataset (synthetic generation is seeded).

    IDX files must fit the model: one pixel per input and labels below
    ``num_classes``; anything else raises :class:`IdxFormatError`.
    """
    spec = cfg.model
    if isinstance(cfg.data, IdxData):
        data = load_idx(cfg.data.images_path, cfg.data.labels_path)
        if data.input_dim != spec.input_dim:
            raise IdxFormatError(f"{cfg.data.images_path}: {data.input_dim} pixels per image "
                                 f"!= model input_dim {spec.input_dim}")
        if spec.is_classification and data.labels.max() >= spec.num_classes:
            raise IdxFormatError(f"{cfg.data.labels_path}: label {int(data.labels.max())} out "
                                 f"of range for {spec.num_classes} classes")
        return data
    data, _ = generate_synthetic(
        RngStream(cfg.seed, DATA_STREAM_ID),
        cfg.data.kind,
        spec.input_dim,
        cfg.data.n_samples,
        cfg.data.noise_level,
    )
    return data


def run_experiment(cfg: ExperimentConfig, parallel: bool = False) -> RunRecord:
    """Execute the configured run and collect metrics every ``eval_every`` steps.

    Rounds run sequentially, worker by worker; worker m's momentum is row m
    of one zero-initialized (workers x params) array.  ``parallel`` is
    accepted and has no effect; it stays for existing callers that pass it.

    Raises :class:`DivergedError` when the parameters after an update, an
    evaluated loss, or any vector the round must sign or measure stops being
    finite.  A finite but huge loss is not treated as divergence.
    """
    t_start = time.perf_counter()
    data = load_data(cfg)
    spec, opt = cfg.model, cfg.optimizer
    dim = spec.param_dim
    n_workers = cfg.n_workers
    f = 0 if cfg.adversary.strategy == "none" else byzantine_count(cfg.adversary.alpha, n_workers)
    strategy = cfg.adversary.strategy if f > 0 else "none"
    sign_rule = opt.rule in SIGN_RULES

    x = initial_params(spec, RngStream(cfg.seed, INIT_STREAM_ID))
    streams = [RngStream(cfg.seed, m) for m in range(n_workers)]
    momentum = np.zeros((n_workers, dim), dtype=np.float64)
    # phase-one workers: everyone for none/blind (blind workers see nothing and
    # flip only their own estimate); only the honest tail for omniscient attacks
    phase_one = range(n_workers) if strategy in ("none", "blind-invert") else range(f, n_workers)
    whole = full_batch(data)

    def evaluate(step: int, eta: float, agreement: float, zero_frac: float) -> RoundMetrics:
        value = loss(spec, x, data, whole)
        if not math.isfinite(value):
            raise DivergedError(step)
        acc = accuracy(spec, x, data) if spec.is_classification else float("nan")
        return RoundMetrics(step, value, acc, eta, agreement, zero_frac)

    metrics = [evaluate(0, effective_eta(opt, 0), float("nan"), float("nan"))]
    for t in range(cfg.n_rounds):
        eval_now = (t + 1) % cfg.eval_every == 0 or t + 1 == cfg.n_rounds
        true_grad = None
        if eval_now or strategy == "byz-oppose-true-sign":
            true_grad = grad(spec, x, data, whole)

        try:
            messages = []
            for m in phase_one:
                batch = sample_batch(streams[m], data.n_samples, opt.batch_size)
                g = grad(spec, x, data, batch)
                if strategy == "blind-invert" and m < f:
                    g = blind_invert(g)
                messages.append(worker_message(opt, momentum[m], g))

            if strategy == "byz-inverse-sum":
                messages += byz_inverse_sum(messages, f, dim=dim)
            elif strategy == "byz-oppose-true-sign":
                messages += byz_oppose_true_sign(true_grad, f)
            elif strategy in ("byz-collude-zeroing", "byz-collude-alternating"):
                honest_sum = sum_signs(messages) if messages else np.zeros(dim)
                variant = "zeroing" if strategy == "byz-collude-zeroing" else "alternating"
                byz_messages, _ = byz_collude_signs(honest_sum, f, variant)
                messages += byz_messages

            if sign_rule:
                direction = server_aggregate_signs(messages)
            else:
                direction = server_aggregate_sgd(messages)
        except NonFiniteError as exc:
            raise DivergedError(t + 1) from exc
        x = apply_update(opt, x, direction, t)
        if not np.isfinite(x).all():
            raise DivergedError(t + 1)

        if eval_now:
            dense = np.asarray(direction, dtype=np.float64)
            agreement = float(np.mean(np.sign(dense) == np.sign(true_grad)))
            zero_frac = float(np.mean(dense == 0.0))
            metrics.append(evaluate(t + 1, effective_eta(opt, t), agreement, zero_frac))

    return RunRecord(cfg, metrics, x, time.perf_counter() - t_start)


def sweep_configs(base: ExperimentConfig, alpha_grid, rule_grid):
    """Name/config pairs for every (alpha, rule) combination, row-major in alpha.

    Rules other than signum force beta to 0 (momentum is signum's defining
    feature); every other knob carries over from the base config.
    """
    alphas = list(alpha_grid)
    rules = list(rule_grid)
    if not alphas or not rules:
        raise ValueError("alpha and rule grids must be non-empty")
    pairs = []
    for alpha in alphas:
        for rule in rules:
            beta = base.optimizer.beta if rule == "signum" else 0.0
            cfg = replace(
                base,
                optimizer=replace(base.optimizer, rule=rule, beta=beta),
                adversary=replace(base.adversary, alpha=float(alpha)),
            )
            pairs.append((f"{rule}-alpha{float(alpha):g}", cfg))
    return pairs


def run_sweep(base: ExperimentConfig, alpha_grid, rule_grid) -> list[RunRecord]:
    """One run per (alpha, rule) combination; see :func:`sweep_configs`."""
    return [run_experiment(cfg) for _, cfg in sweep_configs(base, alpha_grid, rule_grid)]


# -- artifacts -----------------------------------------------------------------

METRICS_HEADER = ("step", "loss", "accuracy", "eta", "sign_agreement", "zero_fraction")


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the float64 exactly."""
    return repr(float(value))


def write_metrics_csv(record: RunRecord, path) -> None:
    lines = [",".join(METRICS_HEADER)]
    for row in record.metrics:
        lines.append(",".join([
            str(row.step),
            _fmt(row.train_loss),
            _fmt(row.eval_accuracy),
            _fmt(row.effective_eta),
            _fmt(row.sign_agreement),
            _fmt(row.zero_fraction),
        ]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _finite_or_none(value):
    """Copy of a JSON payload with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(item) for item in value]
    return value


def write_json(payload, handle, indent: int | None = None) -> None:
    """Write ``payload`` and a newline as strict JSON, with keys sorted.

    NaN and infinities have no JSON spelling; they are written as ``null``.
    """
    json.dump(_finite_or_none(payload), handle, indent=indent, sort_keys=True, allow_nan=False)
    handle.write("\n")


def write_summary_json(record: RunRecord, path) -> None:
    last = record.metrics[-1]
    payload = {
        "config": config_to_mapping(record.config),
        "final": {
            "step": last.step,
            "loss": last.train_loss,
            "accuracy": last.eval_accuracy,
            "sign_agreement": last.sign_agreement,
            "zero_fraction": last.zero_fraction,
        },
        "wall_time_s": record.wall_time_s,
    }
    with open(path, "w", encoding="utf-8") as handle:
        write_json(payload, handle, indent=2)


# -- config <-> plain mapping ---------------------------------------------------


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    """Flatten a config into the five-section mapping used by config files."""
    model = {"kind": cfg.model.kind, "input_dim": cfg.model.input_dim}
    if cfg.model.hidden_dim is not None:
        model["hidden_dim"] = cfg.model.hidden_dim
    if cfg.model.num_classes is not None:
        model["num_classes"] = cfg.model.num_classes
    if isinstance(cfg.data, IdxData):
        data = {"source": "idx", "images": cfg.data.images_path, "labels": cfg.data.labels_path}
    else:
        data = {
            "source": "synthetic",
            "kind": cfg.data.kind,
            "samples": cfg.data.n_samples,
            "noise_level": cfg.data.noise_level,
        }
    optimizer = {
        "rule": cfg.optimizer.rule,
        "eta": cfg.optimizer.eta,
        "beta": cfg.optimizer.beta,
        "weight_decay": cfg.optimizer.weight_decay,
        "batch_size": cfg.optimizer.batch_size,
        "decay_factor": cfg.optimizer.schedule.decay_factor,
        "decay_every": cfg.optimizer.schedule.decay_every,
    }
    adversary = {"strategy": cfg.adversary.strategy, "alpha": cfg.adversary.alpha}
    run = {
        "workers": cfg.n_workers,
        "rounds": cfg.n_rounds,
        "seed": cfg.seed,
        "eval_every": cfg.eval_every,
    }
    if cfg.p_estimate is not None:
        run["p_estimate"] = cfg.p_estimate
    if cfg.out_dir is not None:
        run["out"] = cfg.out_dir
    return {"model": model, "data": data, "optimizer": optimizer, "adversary": adversary, "run": run}


def _take(section: dict, key: str, convert, default=None, required=False):
    if key not in section:
        if required:
            raise ValueError(f"missing config key {key!r}")
        return default
    try:
        return convert(section[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for config key {key!r}: {section[key]!r}") from exc


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a validated config from the five-section mapping.

    Values may be strings (fresh from a config file) or already typed (from a
    summary-JSON echo); both parse identically, so echoed configs replay.
    """
    for name in ("model", "data", "optimizer", "run"):
        if name not in mapping:
            raise ValueError(f"missing config section [{name}]")
    msec = dict(mapping["model"])
    model = ModelSpec(
        kind=_take(msec, "kind", str, required=True),
        input_dim=_take(msec, "input_dim", int, required=True),
        hidden_dim=_take(msec, "hidden_dim", int),
        num_classes=_take(msec, "num_classes", int),
    )
    dsec = dict(mapping["data"])
    source = _take(dsec, "source", str, default="synthetic")
    if source == "idx":
        data = IdxData(
            images_path=_take(dsec, "images", str, required=True),
            labels_path=_take(dsec, "labels", str, required=True),
        )
    elif source == "synthetic":
        data = SyntheticData(
            kind=_take(dsec, "kind", str, default=model.kind),
            n_samples=_take(dsec, "samples", int, required=True),
            noise_level=_take(dsec, "noise_level", float, default=0.0),
        )
    else:
        raise ValueError(f"unknown data source {source!r} (expected 'synthetic' or 'idx')")
    osec = dict(mapping["optimizer"])
    optimizer = OptimizerConfig(
        rule=_take(osec, "rule", str, required=True),
        eta=_take(osec, "eta", float, required=True),
        beta=_take(osec, "beta", float, default=0.0),
        weight_decay=_take(osec, "weight_decay", float, default=0.0),
        batch_size=_take(osec, "batch_size", int, default=32),
        schedule=Schedule(
            decay_factor=_take(osec, "decay_factor", float, default=10.0),
            decay_every=_take(osec, "decay_every", int, default=30),
        ),
    )
    asec = dict(mapping.get("adversary", {}))
    adversary = AdversaryConfig(
        strategy=_take(asec, "strategy", str, default="none"),
        alpha=_take(asec, "alpha", float, default=0.0),
    )
    rsec = dict(mapping["run"])
    return ExperimentConfig(
        model=model,
        data=data,
        optimizer=optimizer,
        n_workers=_take(rsec, "workers", int, required=True),
        adversary=adversary,
        n_rounds=_take(rsec, "rounds", int, required=True),
        seed=_take(rsec, "seed", int, default=0),
        eval_every=_take(rsec, "eval_every", int, default=10),
        p_estimate=_take(rsec, "p_estimate", float),
        out_dir=_take(rsec, "out", str),
    )
