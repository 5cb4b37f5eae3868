"""Vector primitives, the exact-zero sign operation, and reproducible random streams.

Workers and server exchange two kinds of values: dense float64 vectors and
sign vectors with entries in {-1, 0, +1}, as plain numpy arrays, many
messages as one (rows, d) block.  The helpers here validate them and pin down
the one convention everything else leans on: the sign of an exact zero is 0,
compared with no epsilon.  Vote ties and the sign-cancelling collusion attack
are only well defined because sign sums are int64 and cancel to exactly zero.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "NonFiniteError",
    "RngStream",
    "as_int",
    "as_signs",
    "as_vector",
    "check_finite",
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


def as_int(value) -> int:
    """A count, seed or index as a Python int.

    Python and numpy integers pass; a float raises TypeError rather than
    being truncated, and so does a bool, which is no count.
    """
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


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
    is accepted as 0.  A 1-D int8 input comes back as is, not copied.
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
    return arr.astype(np.int8, copy=False)


def sign(values, name: str = "sign input") -> np.ndarray:
    """Coordinate-wise sign with sign(0) == 0 exactly.

    Returns an int8 array over {-1, 0, +1}.  Zero is matched exactly, not
    within a tolerance: a tied majority vote must broadcast 0 and leave the
    corresponding parameter untouched.  Integer input (an int64 vote sum) is
    signed as is: it needs no float64 copy and is always finite.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" and arr.ndim == 1:
        return np.sign(arr).astype(np.int8)
    arr = as_vector(arr, name)
    check_finite(arr, name)
    return np.sign(arr).astype(np.int8)


def sum_signs(block) -> np.ndarray:
    """Coordinate-wise int64 sum of a (rows, d) block of sign vectors.

    Each row is one message and is checked by :func:`as_signs`.  The addition
    is exact integer arithmetic, so the order of the rows cannot change the
    result, and a (0, d) block sums to zeros.
    """
    try:
        block = np.asarray(block)
    except ValueError:
        raise ValueError("sign vector length mismatch between rows") from None
    if block.ndim != 2:
        raise ValueError(f"sum_signs needs at least one sign vector, got shape {block.shape}")
    for row in block:
        as_signs(row)
    return block.sum(axis=0, dtype=np.int64)


def sequential_sum(block) -> np.ndarray:
    """Strict left-to-right sum of the rows of a (rows, d) float64 block.

    Floating-point addition is order sensitive.  Fixing the order lets an
    omniscient attacker reproduce the server's partial sums bit for bit, so
    the gradient-cancelling attack zeroes the aggregate exactly rather than
    merely approximately.  Both sides of that exchange must use this helper.
    A (0, d) block sums to zeros; otherwise row 0 is copied, keeping its -0.0.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError(f"sequential_sum needs a (rows, d) block, got shape {block.shape}")
    total = block[0].copy() if len(block) else np.zeros(block.shape[1])
    for row in block[1:]:
        total += row
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
        self.seed, self.stream_id = as_int(seed), as_int(stream_id)
        for label, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= value < 2**64:
                raise ValueError(f"{label} must be an unsigned 64-bit integer, got {value}")
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.Philox(key))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
