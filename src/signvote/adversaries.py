"""Attack strategies for compromised workers.

Rounds are two-phase: honest (and blind) workers commit their messages first,
omniscient adversaries observe them and answer.  Blind adversaries see
nothing, so all they can do is flip their own gradient estimate before it
enters their local momentum/sign pipeline.  Omniscient ones get the honest
messages (or the true gradient) handed to them and reply in kind with one
(f, d) block, a row per adversary: dense vectors against mean aggregation,
int8 sign votes against the majority vote.
"""

from __future__ import annotations

import numpy as np

from .core import as_vector, sequential_sum, sign

__all__ = [
    "COLLUDE_VARIANTS",
    "SGD_ONLY_STRATEGIES",
    "SIGN_ONLY_STRATEGIES",
    "STRATEGIES",
    "blind_invert",
    "byz_collude_signs",
    "byz_inverse_sum",
    "byz_oppose_true_sign",
    "byzantine_count",
]

STRATEGIES = (
    "none",
    "blind-invert",
    "byz-collude-zeroing",
    "byz-collude-alternating",
    "byz-oppose-true-sign",
    "byz-inverse-sum",
)

# sign votes only make sense against the majority vote; the gradient-cancelling
# attack only against mean aggregation
SIGN_ONLY_STRATEGIES = ("byz-collude-zeroing", "byz-collude-alternating", "byz-oppose-true-sign")
SGD_ONLY_STRATEGIES = ("byz-inverse-sum",)

COLLUDE_VARIANTS = ("zeroing", "alternating")


def byzantine_count(alpha: float, n_workers: int) -> int:
    """Adversarial worker count f = round(alpha * M), half rounding away from zero."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    return int(np.floor(alpha * n_workers + 0.5))


def blind_invert(grad_estimate) -> np.ndarray:
    """Flip the worker's own stochastic gradient estimate (applied before momentum)."""
    return -as_vector(grad_estimate, "gradient estimate")


def byz_collude_signs(honest_sign_sum, f: int, variant: str = "zeroing") -> np.ndarray:
    """Colluding sign votes against the observed honest sign sum.

    Per coordinate with honest sum s:

    * ``|s| > f`` (both variants): the vote cannot be overturned, so all f
      adversaries oppose with -sign(s).
    * ``zeroing``, ``|s| <= f``: |s| adversaries cancel the honest sum exactly
      with -sign(s); the remaining f - |s| alternate -sign(s), +sign(s), ...
      starting with the opposition.  The total therefore lands on 0 when
      f and |s| share parity and flips to -sign(s) otherwise.
    * ``alternating``, ``0 <= s <= f``: f - s adversaries vote -1 and the
      remaining s alternate -1, +1, ... starting with -1; mirrored with +1
      for negative s.  Kept as a separate variant because it fails to cancel
      the honest sum in reachable cases (f=2, s=2 leaves the total at +2),
      unlike ``zeroing``.
    * ``s == 0`` (both variants): alternate -1, +1, ... starting with -1.

    Returns the (f, d) int8 block of votes.
    """
    if f < 1:
        raise ValueError("collusion needs f >= 1 adversaries (use strategy 'none' otherwise)")
    if variant not in COLLUDE_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {COLLUDE_VARIANTS}")
    s = np.asarray(honest_sign_sum)
    if s.ndim != 1:
        raise ValueError(f"honest sign sum must be 1-D, got shape {s.shape}")
    if s.dtype.kind not in "iu":  # a float sum would cast inf and 1e30 to INT64_MIN
        raise ValueError(f"honest sign sum must be an integer array, got dtype {s.dtype}")
    s = s.astype(np.int64)
    sg = np.sign(s)
    abs_s = np.abs(s)
    # treat s == 0 as "sign +1" so the -base alternation starts at -1
    base = np.where(sg == 0, 1, sg)[None, :]
    if variant == "zeroing":
        cancel = abs_s[None, :]
    else:
        cancel = np.where(s == 0, 0, f - abs_s)[None, :]
    k = np.arange(f)[:, None]
    alternation = np.where((k - cancel) % 2 == 0, -base, base)
    votes = np.where(k < cancel, -base, alternation)
    return np.where((abs_s > f)[None, :], -sg[None, :], votes).astype(np.int8)


def byz_inverse_sum(honest, f: int) -> np.ndarray:
    """Gradient-cancelling attack on mean aggregation.

    Takes the (H, d) block of observed honest gradients (H may be 0) and
    returns an (f, d) block: zero minus the left-to-right sum of the honest
    rows, then f - 1 zero rows.  The server sums messages in the same order
    with honest ones first, so the mean over all workers is the exact zero
    vector, bit for bit, and the round's update is a no-op.
    """
    if f < 1:
        raise ValueError("inverse-sum attack needs f >= 1 adversaries")
    block = np.asarray(honest, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError(f"honest gradients must be an (H, d) array, got shape {block.shape}")
    attack = np.zeros((f, block.shape[1]))
    attack[0] -= sequential_sum(block)
    return attack


def byz_oppose_true_sign(true_grad, f: int) -> np.ndarray:
    """Every adversary votes the exact opposite of the true gradient's sign.

    This is the worst case against the majority vote: it wastes no votes on
    coordinates the honest workers already get wrong, so only healthy workers
    can still deliver the true sign.  Returns the (f, d) int8 block of votes.
    """
    if f < 1:
        raise ValueError("oppose-true-sign needs f >= 1 adversaries")
    return np.repeat(-sign(true_grad, "true gradient")[None, :], f, axis=0)
