"""Property tests for the sign-message check, the integer sign sum, the vote,
the momentum update, the two omniscient attacks and the batch check.

Each property compares the library with a plain reference kept here: the
``np.isin`` membership check, a per-row int64 loop, a per-coordinate count of
+1 and -1 votes, the textbook momentum expression, and the outcomes the
attacks promise (a zeroed or flipped vote, an exactly zero mean).
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from signvote.adversaries import byz_collude_signs, byz_inverse_sum
from signvote.core import as_signs, sum_signs
from signvote.models import Dataset, ModelSpec, grad, loss, max_relative_grad_error
from signvote.optimizers import (
    OptimizerConfig,
    server_aggregate_sgd,
    server_aggregate_signs,
    worker_message,
)

DTYPES = tuple(map(np.dtype, (np.int8, np.int16, np.int64, np.uint8, np.bool_, np.float64)))
SIGNED_DTYPES = tuple(map(np.dtype, (np.int8, np.int16, np.int64, np.float64)))
SIGNS = (-1, 0, 1)
EDGES = (-128, 127, 2, -2, 255, 2**40, math.nan, math.inf, -math.inf, -0.0)

SETTINGS = settings(max_examples=200, deadline=None)


def fits(value, dtype: np.dtype) -> bool:
    """Whether ``value`` converts to ``dtype`` without changing."""
    if dtype.kind == "f":
        return True
    if not math.isfinite(value) or value != int(value):
        return False
    if dtype.kind == "b":
        return value in (0, 1)
    info = np.iinfo(dtype)
    return info.min <= value <= info.max


def isin_reference(arr: np.ndarray):
    """The membership check: int8 copy if every entry is -1, 0 or +1, else None."""
    if not np.isin(arr, SIGNS).all():
        return None
    return arr.astype(np.int8)


def assert_matches_reference(arr: np.ndarray) -> None:
    expected = isin_reference(arr)
    if expected is None:
        with pytest.raises(ValueError, match="entries must be -1, 0, or \\+1"):
            as_signs(arr)
    else:
        got = as_signs(arr)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, expected)


@st.composite
def candidate_messages(draw):
    """Mostly-valid 1-D arrays: sign entries plus a few edge or arbitrary values."""
    dtype = draw(st.sampled_from(DTYPES))
    values = draw(st.lists(st.sampled_from([v for v in SIGNS if fits(v, dtype)]), max_size=40))
    edges = [v for v in EDGES if fits(v, dtype)]
    intruders = draw(st.lists(
        st.one_of(st.sampled_from(edges), hnp.from_dtype(dtype)),
        max_size=2,
    ))
    for value in intruders:
        position = draw(st.integers(0, len(values)))
        values.insert(position, value)
    return np.array(values, dtype=dtype)


class TestAsSignsProperties:
    @pytest.mark.parametrize(
        "dtype,edge",
        [(dtype, edge) for dtype in DTYPES for edge in EDGES if fits(edge, dtype)],
        ids=lambda value: str(value) if isinstance(value, np.dtype) else repr(value),
    )
    def test_every_edge_value_matches_reference(self, dtype, edge):
        for arr in (np.array([edge], dtype=dtype), np.array([1, 0, edge, 1], dtype=dtype)):
            assert_matches_reference(arr)

    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    def test_empty_accepted(self, dtype):
        got = as_signs(np.array([], dtype=dtype))
        assert got.dtype == np.int8 and got.shape == (0,)

    @SETTINGS
    @given(candidate_messages())
    def test_matches_isin_reference(self, arr):
        assert_matches_reference(arr)

    @SETTINGS
    @given(hnp.arrays(st.sampled_from(DTYPES), hnp.array_shapes(min_dims=2, max_dims=2, min_side=0),
                      elements=st.sampled_from((0, 1))))
    def test_rejects_two_dimensional(self, arr):
        with pytest.raises(ValueError, match="must be 1-D"):
            as_signs(arr)


def random_sign_rows(seed: int, workers: int, dim: int, dtype) -> list:
    rng = np.random.default_rng(seed)
    return list(rng.integers(-1, 2, size=(workers, dim)).astype(dtype))


class TestSumSignsProperties:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(0, 300),
           st.sampled_from(SIGNED_DTYPES))
    def test_equals_per_row_int64_loop(self, seed, workers, dim, dtype):
        rows = random_sign_rows(seed, workers, dim, dtype)
        expected = np.zeros(dim, dtype=np.int64)
        for row in rows:
            expected += row.astype(np.int64)
        got = sum_signs(rows)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(2, 120), st.integers(0, 300), st.data())
    def test_rejects_rows_of_different_lengths(self, seed, workers, dim, data):
        rows = random_sign_rows(seed, workers, dim, np.int8)
        m = data.draw(st.integers(1, workers - 1))
        other = data.draw(st.integers(0, 301).filter(lambda n: n != dim))
        rows[m] = np.zeros(other, dtype=np.int8)
        with pytest.raises(ValueError, match="length mismatch"):
            sum_signs(rows)


class TestMajorityVoteProperties:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(0, 50))
    def test_equals_brute_force_count(self, seed, workers, dim):
        rows = random_sign_rows(seed, workers, dim, np.int8)
        expected = np.zeros(dim, dtype=np.int8)
        for j in range(dim):
            plus = sum(1 for row in rows if row[j] == 1)
            minus = sum(1 for row in rows if row[j] == -1)
            expected[j] = 1 if plus > minus else -1 if minus > plus else 0  # tie -> 0
        np.testing.assert_array_equal(server_aggregate_signs(rows), expected)


class TestWorkerMessageProperties:
    @SETTINGS
    @given(st.data(), st.integers(0, 60), st.floats(0.0, 1.0, exclude_max=True),
           st.sampled_from(("signum", "dist-sgd")))
    def test_momentum_matches_textbook_expression(self, data, dim, beta, rule):
        """The in-place update gives the bits of ``(1 - beta) g + beta v``."""
        beta = beta if rule == "signum" else 0.0  # dist-sgd rejects momentum
        floats = hnp.arrays(np.float64, dim, elements=st.floats(allow_nan=True, allow_infinity=True))
        momentum, g = data.draw(floats), data.draw(floats)
        with np.errstate(all="ignore"):
            expected = (1.0 - beta) * g + beta * momentum
            try:
                worker_message(OptimizerConfig(rule, eta=0.1, beta=beta), momentum, g)
            except ValueError:  # a sign rule refuses a non-finite momentum, after updating it
                assert rule == "signum" and not np.isfinite(expected).all()
        nan = np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(momentum), nan)
        np.testing.assert_array_equal(momentum[~nan].view(np.uint64),
                                      expected[~nan].view(np.uint64))


class TestAttackProperties:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.data(), st.integers(0, 30))
    def test_zeroing_collusion_outcomes(self, seed, workers, data, dim):
        """Against an honest sum s, f zeroing colluders leave s - f sign(s) when
        |s| > f, else 0 when f - |s| is even and -sign(s) (-1 at s = 0) when odd."""
        f = data.draw(st.integers(1, workers))
        rng = np.random.default_rng(seed)
        honest = rng.integers(-1, 2, size=(workers - f, dim)).astype(np.int8)
        s = sum_signs(honest)
        votes = byz_collude_signs(s, f, "zeroing")
        assert votes.shape == (f, dim) and votes.dtype == np.int8
        total = s + votes.sum(axis=0, dtype=np.int64)
        for j in range(dim):
            sj = int(s[j])
            direction = 1 if sj > 0 else -1 if sj < 0 else 0
            if abs(sj) > f:
                assert total[j] == sj - f * direction
            elif (f - abs(sj)) % 2 == 0:
                assert total[j] == 0
            else:
                assert total[j] == (-direction if sj else -1)

    @SETTINGS
    @given(st.integers(1, 12), st.integers(0, 20), st.data())
    def test_inverse_sum_zeroes_the_mean(self, workers, dim, data):
        """Honest rows, then the attack block, through the server's mean: the
        result is exactly zero for any magnitudes, with no honest worker too."""
        f = data.draw(st.integers(1, workers))
        values = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
        honest = data.draw(hnp.arrays(np.float64, (workers - f, dim), elements=values))
        messages = np.concatenate([honest, byz_inverse_sum(honest, f)])
        assert messages.shape == (workers, dim)
        mean = server_aggregate_sgd(messages)
        assert np.all(mean == 0.0)


BATCH_SPEC = ModelSpec("logistic-regression", 3, num_classes=2)
BATCH_DATA = Dataset(np.arange(12.0).reshape(4, 3) / 12.0, np.array([0, 1, 1, 0]))


def bad_batches():
    """Index arrays the models must refuse: a negative index, no index, two
    dimensions, or a non-integer dtype (integral floats and bools included)."""
    indices = st.integers(0, BATCH_DATA.n_samples - 1)
    negative = st.tuples(st.lists(indices, max_size=4), st.integers(-2**62, -1)).map(
        lambda t: np.array(t[0] + [t[1]], dtype=np.int64))
    empty = st.sampled_from([np.array([], dtype=np.int64), np.zeros(0), []])
    two_d = hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=3),
                       elements=indices)
    non_integer = st.one_of(
        hnp.arrays(st.sampled_from([np.float64, np.float32]), st.integers(1, 5),
                   elements=st.integers(0, BATCH_DATA.n_samples - 1).map(float)),
        hnp.arrays(np.bool_, st.integers(1, 5)),
    )
    return st.one_of(negative, empty, two_d, non_integer)


class TestBatchRejectionProperties:
    @SETTINGS
    @given(bad_batches(), st.sampled_from([grad, loss, max_relative_grad_error]))
    def test_bad_batch_rejected(self, batch, fn):
        with pytest.raises(ValueError, match="batch"):
            fn(BATCH_SPEC, np.zeros(BATCH_SPEC.param_dim), BATCH_DATA, batch)


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert False
"""


def test_failing_property_reports_its_example(tmp_path):
    """Under the repository's pytest settings, where every warning is an
    error, a failing property prints its falsifying example; it must not end
    in an INTERNALERROR raised while hypothesis writes its patch file."""
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert result.returncode == 1, output
