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
from dataclasses import MISSING, astuple, dataclass, field, replace

import numpy as np

from .adversaries import (
    SGD_ONLY_STRATEGIES,
    SIGN_ONLY_STRATEGIES,
    STRATEGIES,
    blind_invert,
    byz_collude_signs,
    byz_inverse_sum,
    byz_oppose_true_sign,
    byzantine_count,
)
from .core import NonFiniteError, RngStream, as_int, sum_signs
from .models import (
    Dataset,
    IdxFormatError,
    ModelSpec,
    evaluate,
    full_batch,
    generate_synthetic,
    grad,
    initial_params,
    load_idx,
    sample_batch,
)
from .optimizers import (
    SIGN_RULES,
    OptimizerConfig,
    apply_update,
    effective_eta,
    server_aggregate_sgd,
    server_aggregate_signs,
    worker_message,
)

__all__ = [
    "AdversaryConfig",
    "CONFIG_KEYS",
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
    "parse_sections",
    "run_experiment",
    "sweep_configs",
    "write_csv",
    "write_json",
    "write_metrics_csv",
    "write_summary_json",
]

# reserved stream ids, far above any worker index
DATA_STREAM_ID = 2**32
INIT_STREAM_ID = 2**32 + 1


@dataclass(frozen=True, kw_only=True)
class SyntheticData:
    """Synthetic dataset request.  The model fixes the rest: the feature width
    is its ``input_dim``, and the labels are the family it fits (class labels
    for a classifier, real targets otherwise)."""

    n_samples: int

    def __post_init__(self):
        if as_int(self.n_samples) < 1:
            raise ValueError("n_samples must be >= 1")


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

    def __post_init__(self):
        if as_int(self.n_workers) < 1:
            raise ValueError("n_workers must be >= 1")
        if as_int(self.n_rounds) < 1:
            raise ValueError("n_rounds must be >= 1")
        if as_int(self.eval_every) < 1:
            raise ValueError("eval_every must be >= 1")
        if not 0 <= as_int(self.seed) < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        f = byzantine_count(self.adversary.alpha, self.n_workers)
        if f > 0:
            strategy = self.adversary.strategy
            rule = self.optimizer.rule
            if strategy in SIGN_ONLY_STRATEGIES and rule not in SIGN_RULES:
                raise ValueError(f"strategy {strategy!r} requires a sign rule, got {rule!r}")
            if strategy in SGD_ONLY_STRATEGIES and rule != "dist-sgd":
                raise ValueError(f"strategy {strategy!r} requires rule 'dist-sgd', got {rule!r}")


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
        if spec.is_classification and data.max_label >= spec.num_classes:
            raise IdxFormatError(f"{cfg.data.labels_path}: label {data.max_label} out "
                                 f"of range for {spec.num_classes} classes")
        return data
    family = "logistic-regression" if spec.is_classification else "linear-regression"
    data, _ = generate_synthetic(RngStream(cfg.seed, DATA_STREAM_ID), family,
                                 spec.input_dim, cfg.data.n_samples)
    return data


def run_experiment(cfg: ExperimentConfig, parallel: bool = False) -> RunRecord:
    """Execute the configured run and collect metrics every ``eval_every`` steps.

    Rounds run sequentially, worker by worker; worker m's momentum is row m
    of one zero-initialized (workers x params) array.  The messages are one
    more such array (int8 for sign rules): phase-one workers fill its first
    rows in worker order, omniscient adversaries the last f.  ``parallel``
    is accepted and has no effect; it stays for existing callers that pass it.

    Raises :class:`DivergedError` when the parameters after an update, an
    evaluated loss, or any vector the round must sign or measure stops being
    finite; the overflow on the way there raises no numpy warning.  A finite
    but huge loss is not treated as divergence.
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
    n_honest = len(phase_one)
    messages = np.empty((n_workers, dim), dtype=np.int8 if sign_rule else np.float64)
    whole = full_batch(data)

    def measure(step: int, eta: float, agreement: float, zero_frac: float) -> RoundMetrics:
        value, acc = evaluate(spec, x, data)
        if not math.isfinite(value):
            raise DivergedError(step)
        return RoundMetrics(step, value, acc, eta, agreement, zero_frac)

    with np.errstate(over="ignore", invalid="ignore"):
        metrics = [measure(0, effective_eta(opt, 0), float("nan"), float("nan"))]
        for t in range(cfg.n_rounds):
            eval_now = (t + 1) % cfg.eval_every == 0 or t + 1 == cfg.n_rounds
            true_grad = None
            if eval_now or strategy == "byz-oppose-true-sign":
                true_grad = grad(spec, x, data, whole)

            try:
                for row, m in enumerate(phase_one):
                    batch = sample_batch(streams[m], data.n_samples, opt.batch_size)
                    g = grad(spec, x, data, batch)
                    if strategy == "blind-invert" and m < f:
                        g = blind_invert(g)
                    messages[row] = worker_message(opt, momentum[m], g)

                if strategy == "byz-inverse-sum":
                    messages[n_honest:] = byz_inverse_sum(messages[:n_honest], f)
                elif strategy == "byz-oppose-true-sign":
                    messages[n_honest:] = byz_oppose_true_sign(true_grad, f)
                elif strategy in ("byz-collude-zeroing", "byz-collude-alternating"):
                    honest_sum = sum_signs(messages[:n_honest])
                    variant = "zeroing" if strategy == "byz-collude-zeroing" else "alternating"
                    messages[n_honest:] = byz_collude_signs(honest_sum, f, variant)

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
                agreement = float(np.mean(np.sign(direction) == np.sign(true_grad)))
                zero_frac = float(np.mean(direction == 0))
                metrics.append(measure(t + 1, effective_eta(opt, t), agreement, zero_frac))

    return RunRecord(cfg, metrics, x, time.perf_counter() - t_start)


def sweep_configs(base: ExperimentConfig, alpha_grid, rule_grid):
    """Name/config pairs for every (alpha, rule) combination, row-major in alpha.

    Rules other than signum force beta to 0 (momentum is signum's defining
    feature); every other knob carries over from the base config.  Two
    combinations with one name (alphas equal to 6 significant digits, or a
    repeated rule) raise ValueError, since a name is a run's directory.
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
            name = f"{rule}-alpha{float(alpha):g}"
            if any(name == seen for seen, _ in pairs):
                raise ValueError(f"the alpha and rule grids name run {name!r} twice")
            pairs.append((name, cfg))
    return pairs


# -- artifacts -----------------------------------------------------------------

# RoundMetrics' fields in order: write_metrics_csv writes each row's astuple
METRICS_HEADER = ("step", "loss", "accuracy", "eta", "sign_agreement", "zero_fraction")


def _text(value) -> str:
    """``value`` spelled as a CSV cell or an INI value: a str as is, a Python or
    numpy integer with ``str``, any other number as ``repr(float(value))``, the
    shortest decimal that round-trips the float64 exactly (``nan`` for NaN)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(value)
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """Write a header line and one comma-separated line per row, each cell
    spelled by :func:`_text`.  No cell is quoted, so none may hold a comma."""
    lines = [",".join(header)]
    lines += [",".join(map(_text, row)) for row in rows]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_metrics_csv(record: RunRecord, path) -> None:
    write_csv(path, METRICS_HEADER, map(astuple, record.metrics))


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
    """The run's config echo, as text, and its wall time; the numbers it
    reached are in ``metrics.csv``."""
    payload = {"config": config_to_mapping(record.config), "wall_time_s": record.wall_time_s}
    with open(path, "w", encoding="utf-8") as handle:
        write_json(payload, handle, indent=2)


# -- config <-> plain mapping ---------------------------------------------------


# Every key a run config may use: (section, key) -> (dataclass, field it fills,
# parser).  Defaults live only in the dataclasses; a key whose field has none
# is required.  The [data] keys given pick ExperimentConfig.data's class.
CONFIG_KEYS = {
    ("model", "kind"): (ModelSpec, "kind", str),
    ("model", "input_dim"): (ModelSpec, "input_dim", int),
    ("model", "hidden_dim"): (ModelSpec, "hidden_dim", int),
    ("model", "num_classes"): (ModelSpec, "num_classes", int),
    ("data", "samples"): (SyntheticData, "n_samples", int),
    ("data", "images"): (IdxData, "images_path", str),
    ("data", "labels"): (IdxData, "labels_path", str),
    ("optimizer", "rule"): (OptimizerConfig, "rule", str),
    ("optimizer", "eta"): (OptimizerConfig, "eta", float),
    ("optimizer", "beta"): (OptimizerConfig, "beta", float),
    ("optimizer", "batch_size"): (OptimizerConfig, "batch_size", int),
    ("optimizer", "decay_factor"): (OptimizerConfig, "decay_factor", float),
    ("optimizer", "decay_every"): (OptimizerConfig, "decay_every", int),
    ("adversary", "strategy"): (AdversaryConfig, "strategy", str),
    ("adversary", "alpha"): (AdversaryConfig, "alpha", float),
    ("run", "workers"): (ExperimentConfig, "n_workers", int),
    ("run", "rounds"): (ExperimentConfig, "n_rounds", int),
    ("run", "seed"): (ExperimentConfig, "seed", int),
    ("run", "eval_every"): (ExperimentConfig, "eval_every", int),
}


def parse_sections(mapping: dict, keys: dict) -> dict:
    """Parse a ``{section: {key: value}}`` mapping against a key table.

    ``keys`` maps every (section, key) the mapping may use to a tuple whose
    last item parses the value.  Returns ``{(section, key): parsed value}``
    for the keys present.  A mapping or section body that is not a dict, an
    unknown section or key, a value that is not a str (a config value is text,
    as in an INI file), or one its parser rejects, raises ValueError.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"config must map sections to keys, got {type(mapping).__name__}")
    sections = {section for section, _ in keys}
    parsed = {}
    for section, body in mapping.items():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        if not isinstance(body, dict):
            raise ValueError(f"config section [{section}] must map keys to values, "
                             f"got {type(body).__name__}")
        for key, raw in body.items():
            if (section, key) not in keys:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")
            try:
                if not isinstance(raw, str):
                    raise TypeError(f"{raw!r} is not text")
                parsed[section, key] = keys[section, key][-1](raw)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for config key {key!r}: {raw!r}") from exc
    return parsed


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    """Flatten a config into the five-section mapping used by config files,
    every value spelled as its INI line would hold it (see :func:`_text`).

    Fields that are None (no hidden layer) are left out.
    """
    parts = {type(part): part for part in (cfg, cfg.model, cfg.data, cfg.optimizer, cfg.adversary)}
    mapping = {section: {} for section, _ in CONFIG_KEYS}
    for (section, key), (cls, name, _) in CONFIG_KEYS.items():
        value = getattr(parts[cls], name) if cls in parts else None
        if value is not None:
            mapping[section][key] = _text(value)
    return mapping


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a validated config from the five-section mapping.

    Every value is text, as a config file or a ``summary.json`` echo holds
    it, so an echoed config replays; a typed value is rejected, and so are
    sections and keys outside :data:`CONFIG_KEYS`.  ``images`` or ``labels``
    in [data] make IDX data, anything else synthetic; a section with keys of
    both is rejected.
    """
    parsed = parse_sections(mapping, CONFIG_KEYS)
    filled = {CONFIG_KEYS[key][:2]: value for key, value in parsed.items()}

    def build(cls, **given):
        kwargs = {name: value for (owner, name), value in filled.items() if owner is cls}
        kwargs.update(given)
        for (section, key), (owner, name, _) in CONFIG_KEYS.items():
            if owner is not cls or name in kwargs:
                continue
            spec = cls.__dataclass_fields__[name]
            if spec.default is MISSING and spec.default_factory is MISSING:
                if section not in mapping:
                    raise ValueError(f"missing config section [{section}]")
                raise ValueError(f"missing config key {key!r}")
        return cls(**kwargs)

    sources = {owner for owner, _ in filled} & {SyntheticData, IdxData}
    if len(sources) > 1:
        raise ValueError("[data] takes samples for synthetic data or images and labels "
                         "for IDX files, not both")
    return build(
        ExperimentConfig,
        model=build(ModelSpec),
        data=build(sources.pop() if sources else SyntheticData),
        optimizer=build(OptimizerConfig),
        adversary=build(AdversaryConfig),
    )
