import numpy as np
import pytest

from signvote.core import (
    NonFiniteError,
    RngStream,
    as_signs,
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

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint64])
    def test_integer_input_matches_float_path(self, dtype):
        # int64 vote sums, as server_aggregate_signs signs them, and other integer widths
        rng = np.random.default_rng(2)
        info = np.iinfo(dtype)
        sums = np.concatenate([rng.integers(max(info.min, -101), 102, size=50, dtype=dtype),
                               np.array([info.min, info.max, 0], dtype=dtype)])
        out = sign(sums)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, sign(sums.astype(np.float64)))

    def test_vote_sums_of_sign_blocks(self):
        block = np.random.default_rng(3).integers(-1, 2, size=(101, 40)).astype(np.int8)
        total = sum_signs(block)
        np.testing.assert_array_equal(sign(total), sign(total.astype(np.float64)))

    def test_integer_matrix_rejected_with_name(self):
        with pytest.raises(ValueError, match="vote sum must be 1-D, got shape"):
            sign(np.zeros((2, 2), dtype=np.int64), "vote sum")

    def test_bool_input(self):
        np.testing.assert_array_equal(sign(np.array([True, False])), [1, 0])


class TestSumSigns:
    def test_hand_sum(self):
        total = sum_signs([[1, 1], [1, -1], [-1, -1]])
        np.testing.assert_array_equal(total, [1, -1])
        assert total.dtype == np.int64

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

    def test_int8_input_returned_as_is(self):
        signs = np.array([1, 0, -1], dtype=np.int8)
        assert as_signs(signs) is signs
        wide = signs.astype(np.int64)
        out = as_signs(wide)
        assert out.dtype == np.int8 and not np.shares_memory(out, wide)


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

    @pytest.mark.parametrize("key", [(2.7,), (True,), (0, 1.0), (0, False)])
    def test_rejects_floats_and_bools(self, key):
        # a float key would be truncated, so two seeds could share one stream
        with pytest.raises(TypeError):
            RngStream(*key)

    def test_numpy_integer_key(self):
        stream = RngStream(np.uint64(2**64 - 1), np.int64(3))
        assert (stream.seed, stream.stream_id) == (2**64 - 1, 3)
        assert type(stream.seed) is int and type(stream.stream_id) is int
