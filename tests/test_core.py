import numpy as np
import pytest

from signvote.core import (
    NonFiniteError,
    RngStream,
    as_signs,
    l1_norm,
    sequential_sum,
    sign,
    sum_signs,
)


class TestSign:
    def test_basic_values(self):
        np.testing.assert_array_equal(sign([3.5, -0.1, 0.0]), [1, -1, 0])

    def test_all_zeros(self):
        np.testing.assert_array_equal(sign(np.zeros(4)), np.zeros(4, dtype=np.int8))

    def test_idempotent_on_sign_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.integers(-1, 2, size=13).astype(np.int8)
            np.testing.assert_array_equal(sign(s), s)

    def test_odd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.standard_normal(17) * rng.choice([0.0, 1.0, 100.0], size=17)
            np.testing.assert_array_equal(sign(-v), -sign(v))

    def test_result_dtype_and_range(self):
        out = sign(np.linspace(-2, 2, 9))
        assert out.dtype == np.int8
        assert set(np.unique(out)) <= {-1, 0, 1}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_reports_coordinate(self, bad):
        assert issubclass(NonFiniteError, ValueError)
        with pytest.raises(NonFiniteError, match="coordinate 2"):
            sign([1.0, 2.0, bad, 4.0])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            sign(np.zeros((2, 2)))


class TestSumSigns:
    def test_hand_sum(self):
        total = sum_signs([[1, 1], [1, -1], [-1, -1]])
        np.testing.assert_array_equal(total, [1.0, -1.0])
        assert total.dtype == np.float64

    def test_single_vector_identity(self):
        np.testing.assert_array_equal(sum_signs([[1, 0, -1]]), [1.0, 0.0, -1.0])

    def test_m_copies_scale(self):
        s = np.array([1, -1, 0, 1], dtype=np.int8)
        np.testing.assert_array_equal(sum_signs([s] * 7), 7.0 * s)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        rows = [rng.integers(-1, 2, size=6) for _ in range(9)]
        base = sum_signs(rows)
        for _ in range(5):
            perm = rng.permutation(len(rows))
            np.testing.assert_array_equal(sum_signs([rows[i] for i in perm]), base)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            sum_signs([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            sum_signs([[1, 1], [1, 1, 1]])

    def test_non_sign_entries_rejected(self):
        with pytest.raises(ValueError, match="-1, 0, or \\+1"):
            sum_signs([[2, 0]])


class TestL1Norm:
    def test_hand_values(self):
        assert l1_norm([1, -2, 3]) == 6.0
        assert l1_norm(np.zeros(5)) == 0.0

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(11)
            c = rng.standard_normal()
            expected = abs(c) * sum(abs(float(x)) for x in v)  # independent scalar loop
            assert l1_norm(c * v) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            l1_norm([1.0, float("nan")])


class TestSequentialSum:
    def test_matches_plain_sum_for_ints(self):
        vecs = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, -6.0])]
        np.testing.assert_array_equal(sequential_sum(vecs), [9.0, 0.0])

    def test_left_to_right_order(self):
        # the running sum must cancel exactly against its own negation
        rng = np.random.default_rng(4)
        vecs = [rng.standard_normal(8) for _ in range(5)]
        attack = -sequential_sum(vecs)
        total = sequential_sum(vecs + [attack])
        assert np.all(total == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequential_sum([])


class TestAsSigns:
    def test_accepts_float_signs(self):
        out = as_signs(np.array([1.0, -1.0, 0.0]))
        assert out.dtype == np.int8

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            as_signs([0.5])


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(8005, 3).generator.random(10_000)
        b = RngStream(8005, 3).generator.random(10_000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(8005, 0).generator.random(100)
        b = RngStream(8005, 1).generator.random(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(1, 0).generator.random(100)
        b = RngStream(2, 0).generator.random(100)
        assert not np.array_equal(a, b)

    def test_creation_order_irrelevant(self):
        first = [RngStream(7, i) for i in range(4)]
        second = [RngStream(7, i) for i in reversed(range(4))][::-1]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.generator.random(50), b.generator.random(50))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)
