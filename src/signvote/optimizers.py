"""Update rules: plain distributed SGD, sign descent, and its momentum variant.

Workers fold each stochastic gradient estimate into a momentum buffer
``v <- (1 - beta) g + beta v``, one row of the engine's (workers x params)
momentum array, and transmit either ``sign(v)`` (sign rules) or
the raw estimate (dist-sgd).  The server is a one-liner either way: the mean
of dense messages, or the sign of the coordinate-wise sign sum -- a majority
vote whose exact ties broadcast 0 and freeze the coordinate for the round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_int, as_vector, sequential_sum, sign, sum_signs

__all__ = [
    "OptimizerConfig",
    "RULES",
    "SIGN_RULES",
    "apply_update",
    "effective_eta",
    "prescribed_hyperparams",
    "server_aggregate_sgd",
    "server_aggregate_signs",
    "worker_message",
]

RULES = ("dist-sgd", "signsgd", "signum")
SIGN_RULES = ("signsgd", "signum")


@dataclass(frozen=True)
class OptimizerConfig:
    """Update rule and its hyperparameters.

    The learning rate decays in steps: ``eta`` is divided by ``decay_factor``
    every ``decay_every`` steps (see :func:`effective_eta`).
    """

    rule: str
    eta: float
    beta: float = 0.0
    weight_decay: float = 0.0
    batch_size: int = 32
    decay_factor: float = 10.0
    decay_every: int = 30

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}, expected one of {RULES}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be finite and > 0")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if self.rule != "signum" and self.beta != 0.0:
            raise ValueError(f"{self.rule} requires beta = 0; use rule 'signum' for momentum")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be finite and >= 0")
        if as_int(self.batch_size) < 1:
            raise ValueError("batch_size must be >= 1")
        # an infinite factor would zero the rate for good after the first decay
        if not (math.isfinite(self.decay_factor) and self.decay_factor > 0):
            raise ValueError("decay_factor must be finite and > 0")
        if as_int(self.decay_every) < 1:
            raise ValueError("decay_every must be >= 1")


def effective_eta(cfg: OptimizerConfig, step: int) -> float:
    """Learning rate at a given step index under the decay schedule."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return cfg.eta / cfg.decay_factor ** (step // cfg.decay_every)


def worker_message(cfg: OptimizerConfig, momentum: np.ndarray, grad_estimate) -> np.ndarray:
    """Fold the new gradient estimate into momentum and emit the wire message.

    ``momentum`` is the worker's float64 buffer, updated in place in both
    cases (start it at zero).  Sign rules send ``sign(v)`` as an int8 sign
    vector; dist-sgd sends the dense estimate itself.
    """
    g = as_vector(grad_estimate, "gradient estimate")
    # an in-place write into any other dtype would cast silently
    if not isinstance(momentum, np.ndarray) or momentum.dtype != np.float64:
        raise ValueError("momentum must be a float64 numpy array")
    if momentum.shape != g.shape:
        raise ValueError(f"gradient length {g.size} != momentum shape {momentum.shape}")
    # the same bits as (1 - beta) g + beta v, since IEEE addition commutes;
    # the scaled estimate is taken first in case g shares memory with v
    scaled = (1.0 - cfg.beta) * g
    momentum *= cfg.beta
    momentum += scaled
    if cfg.rule in SIGN_RULES:
        return sign(momentum)
    return g


def server_aggregate_signs(messages) -> np.ndarray:
    """Majority vote: sign of the coordinate-wise sign sum (exact ties -> 0)."""
    return sign(sum_signs(messages))


def server_aggregate_sgd(messages) -> np.ndarray:
    """Coordinate-wise mean of dense messages.

    The sum runs strictly left to right (see :func:`core.sequential_sum`), so
    an attacker that negates the same running sum cancels it bit for bit.
    Entries need not be finite: an unbounded attack vector is legal input and
    poisons the mean, which is the point of the attack.
    """
    if len(messages) == 0:
        raise ValueError("cannot aggregate an empty message list")
    return sequential_sum(messages) / len(messages)


def apply_update(cfg: OptimizerConfig, x, direction, step: int) -> np.ndarray:
    """One descent step: ``x - eta_t * (direction + weight_decay * x)``.

    ``direction`` is the broadcast sign vector for sign rules or the mean
    gradient for dist-sgd; ``eta_t`` follows the decay schedule.
    """
    xv = as_vector(x, "parameters")
    dv = np.asarray(direction, dtype=np.float64)
    if dv.shape != xv.shape:
        raise ValueError(f"direction shape {dv.shape} != parameter shape {xv.shape}")
    return xv - effective_eta(cfg, step) * (dv + cfg.weight_decay * xv)


def prescribed_hyperparams(f0: float, fstar: float, smoothness_l1: float,
                           n_rounds: int) -> tuple[float, int]:
    """Learning rate and batch size under which the convergence-rate bounds hold.

    eta = sqrt((f0 - fstar) / (smoothness_l1 * n_rounds)) and the per-worker
    batch size equals the round count, so the total number of stochastic
    gradient calls per worker is n_rounds**2.
    """
    if f0 <= fstar:
        raise ValueError("initial objective f0 must exceed the lower bound fstar")
    if smoothness_l1 <= 0:
        raise ValueError("smoothness_l1 must be > 0")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    return math.sqrt((f0 - fstar) / (smoothness_l1 * n_rounds)), int(n_rounds)
