"""Vector primitives, the exact-zero sign operation, and reproducible random streams.

Workers and server exchange two kinds of values: dense float64 vectors and
sign vectors with entries in {-1, 0, +1}.  Both are plain numpy arrays; the
helpers here validate them and pin down the one convention everything else
leans on: the sign of an exact floating-point zero is 0, compared with no
epsilon.  Vote ties and the sign-cancelling collusion attack are only well
defined because sign sums are integers that can cancel to exactly zero.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NonFiniteError",
    "RngStream",
    "as_signs",
    "as_vector",
    "check_finite",
    "l1_norm",
    "sequential_sum",
    "sign",
    "sum_signs",
]


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, copying only if needed."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


class NonFiniteError(ValueError):
    """A vector that must be finite holds NaN or an infinity."""


def check_finite(values: np.ndarray, name: str = "vector") -> None:
    """Reject NaN/inf entries, reporting the first offending coordinate."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteError(f"{name} has non-finite entry {values[i]!r} at coordinate {i}")


def as_signs(values, name: str = "sign vector") -> np.ndarray:
    """Coerce to a 1-D int8 array and verify every entry is -1, 0, or +1.

    Integer and bool arrays are checked by range (min >= -1 and max <= 1),
    which for those dtypes accepts exactly what the set membership test
    accepts, at a fraction of its cost.  Every other dtype (float, complex, object) goes
    through ``np.isin``, so NaN and fractional values are rejected and -0.0
    is accepted as 0.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind in "biu":
        valid = arr.size == 0 or (np.minimum.reduce(arr) >= -1 and np.maximum.reduce(arr) <= 1)
    else:
        valid = np.isin(arr, (-1, 0, 1)).all()
    if not valid:
        raise ValueError(f"{name} entries must be -1, 0, or +1")
    return arr.astype(np.int8)


def sign(values) -> np.ndarray:
    """Coordinate-wise sign with sign(0) == 0 exactly.

    Returns an int8 array over {-1, 0, +1}.  Zero is matched exactly, not
    within a tolerance: a tied majority vote must broadcast 0 and leave the
    corresponding parameter untouched.
    """
    arr = as_vector(values, "sign input")
    check_finite(arr, "sign input")
    return np.sign(arr).astype(np.int8)


def sum_signs(signs) -> np.ndarray:
    """Coordinate-wise sum of sign vectors, accumulated in integers.

    The result is exposed as a float64 vector so it can flow through
    :func:`sign` and the update rules unchanged, but the arithmetic is exact
    int64 addition, so the order in which rows are added cannot change the
    result (no rounding for any realistic worker count).
    """
    rows = [as_signs(s) for s in signs]
    if not rows:
        raise ValueError("sum_signs needs at least one sign vector")
    dim = rows[0].size
    for row in rows:
        if row.size != dim:
            raise ValueError(f"sign vector length mismatch: {row.size} != {dim}")
    return np.stack(rows).sum(axis=0, dtype=np.int64).astype(np.float64)


def l1_norm(values) -> float:
    """Sum of absolute values."""
    arr = as_vector(values, "l1_norm input")
    check_finite(arr, "l1_norm input")
    return float(np.abs(arr).sum())


def sequential_sum(vectors) -> np.ndarray:
    """Strict left-to-right sum of equal-length vectors.

    Floating-point addition is order sensitive.  Fixing the order lets an
    omniscient attacker reproduce the server's partial sums bit for bit, so
    the gradient-cancelling attack zeroes the aggregate exactly rather than
    merely approximately.  Both sides of that exchange must use this helper.
    """
    arrays = [as_vector(v) for v in vectors]
    if not arrays:
        raise ValueError("sequential_sum needs at least one vector")
    dim = arrays[0].size
    total = arrays[0].copy()
    for arr in arrays[1:]:
        if arr.size != dim:
            raise ValueError(f"vector length mismatch: {arr.size} != {dim}")
        total += arr
    return total


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Built on the counter-based Philox generator: streams with distinct ids are
    statistically independent, and a stream's draws depend only on its key,
    never on the order streams are created or consumed.  Two streams built
    with the same (seed, stream_id) produce identical sequences, so a run's
    results do not depend on the order in which workers draw.

    The key is immutable; drawing from :attr:`generator` advances internal
    state as usual.
    """

    __slots__ = ("seed", "stream_id", "generator")

    def __init__(self, seed: int, stream_id: int = 0):
        for label, value in (("seed", seed), ("stream_id", stream_id)):
            value = int(value)
            if not 0 <= value < 2**64:
                raise ValueError(f"{label} must be an unsigned 64-bit integer, got {value}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.Philox(key))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
