import numpy as np
import pytest

from signvote.adversaries import (
    blind_invert,
    byz_collude_signs,
    byz_inverse_sum,
    byz_oppose_true_sign,
)
from signvote.core import sign


def server_sign(honest_sum, byz_sum):
    return int(np.sign(honest_sum + byz_sum))


class TestBlindInvert:
    def test_negates(self):
        np.testing.assert_array_equal(blind_invert([1.0, -2.0, 0.0]), [-1.0, 2.0, 0.0])

    def test_involution(self):
        g = np.random.default_rng(0).standard_normal(5)
        np.testing.assert_array_equal(blind_invert(blind_invert(g)), g)

    def test_commutes_with_sign(self):
        g = np.random.default_rng(1).standard_normal(5)
        np.testing.assert_array_equal(sign(blind_invert(g)), -sign(g))


def collude_sum(honest_sign_sum, f, variant):
    """Coordinate-wise total of the colluders' votes."""
    return byz_collude_signs(honest_sign_sum, f, variant).sum(axis=0, dtype=np.int64)


class TestColludeSigns:
    def test_zeroing_kill(self):
        summed = collude_sum([2], 2, "zeroing")
        np.testing.assert_array_equal(summed, [-2.0])
        assert server_sign(2, summed[0]) == 0

    def test_zeroing_flip(self):
        summed = collude_sum([1], 2, "zeroing")
        np.testing.assert_array_equal(summed, [-2.0])
        assert server_sign(1, summed[0]) == -1

    def test_outvoted_case_pure_opposition(self):
        summed = collude_sum([3], 1, "zeroing")
        np.testing.assert_array_equal(summed, [-1.0])
        assert server_sign(3, summed[0]) == 1  # honest majority survives

    def test_alternating_variant_can_fail_to_kill(self):
        # f - s = 0 straight opposition votes, the rest alternate -1, +1
        summed = collude_sum([2], 2, "alternating")
        np.testing.assert_array_equal(summed, [0.0])
        assert server_sign(2, summed[0]) == 1  # the honest sign survives intact

    def test_zero_coordinate_alternates_from_minus_one(self):
        for variant in ("zeroing", "alternating"):
            summed_odd = collude_sum([0], 3, variant)
            summed_even = collude_sum([0], 4, variant)
            assert summed_odd[0] == -1.0
            assert summed_even[0] == 0.0

    def test_messages_are_valid_sign_vectors(self):
        s = np.arange(-6, 7)
        for variant in ("zeroing", "alternating"):
            msgs = byz_collude_signs(s, 5, variant)
            assert isinstance(msgs, np.ndarray)
            assert msgs.shape == (5, s.size) and msgs.dtype == np.int8
            assert set(np.unique(msgs)) <= {-1, 0, 1}

    def test_zeroing_always_kills_or_flips_when_strong_enough(self):
        # exhaustive: for f >= |s|, total lands on 0 (matching parity) or -sign(s)
        for f in range(1, 7):
            s_values = np.arange(-f, f + 1)
            totals = s_values + collude_sum(s_values, f, "zeroing")
            for s, total in zip(s_values, totals):
                if s == 0:
                    assert total in (-1.0, 0.0)
                elif (f - abs(s)) % 2 == 0:
                    assert total == 0.0, (f, s)
                else:
                    assert np.sign(total) == -np.sign(s) and abs(total) == 1.0

    def test_cannot_flip_when_honest_majority_exceeds_f(self):
        for variant in ("zeroing", "alternating"):
            for f in range(1, 7):
                s_values = np.array([s for s in range(-10, 11) if abs(s) > f])
                totals = s_values + collude_sum(s_values, f, variant)
                np.testing.assert_array_equal(np.sign(totals), np.sign(s_values))

    def test_f_zero_rejected(self):
        with pytest.raises(ValueError, match="f >= 1"):
            byz_collude_signs([1], 0)

    @pytest.mark.parametrize("honest_sum, message", [
        ([0.5], "integer-valued"),
        ([[1, 0], [0, 1]], r"honest sign sum must be 1-D, got shape \(2, 2\)"),
    ])
    def test_fractional_sum_rejected(self, honest_sum, message):
        with pytest.raises(ValueError, match=message):
            byz_collude_signs(honest_sum, 2)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            byz_collude_signs([1], 2, "other")


class TestInverseSum:
    def test_hand_example(self):
        msgs = byz_inverse_sum(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
        assert msgs.shape == (1, 2) and msgs.dtype == np.float64
        np.testing.assert_array_equal(msgs[0], [-4.0, -6.0])
        mean = (msgs[0] + np.array([1.0, 2.0]) + np.array([3.0, 4.0])) / 3
        np.testing.assert_array_equal(mean, [0.0, 0.0])

    def test_extra_adversaries_send_zeros(self):
        msgs = byz_inverse_sum(np.ones((1, 3)), 3)
        assert msgs.shape == (3, 3) and msgs.dtype == np.float64
        np.testing.assert_array_equal(msgs[1], np.zeros(3))
        np.testing.assert_array_equal(msgs[2], np.zeros(3))

    def test_no_honest_workers_all_zero(self):
        # the width comes from the (0, d) block itself
        msgs = byz_inverse_sum(np.zeros((0, 4)), 2)
        assert msgs.shape == (2, 4) and msgs.dtype == np.float64
        for m in msgs:
            np.testing.assert_array_equal(m, np.zeros(4))

    # an empty list or a single vector has no row axis to read the width from
    @pytest.mark.parametrize("honest, f, message", [
        ([], 2, r"\(H, d\) array"),
        (np.ones(3), 2, r"\(H, d\) array"),
        (np.ones((2, 3)), 0, "inverse-sum attack needs f >= 1 adversaries"),
    ])
    def test_one_dimensional_input_rejected(self, honest, f, message):
        with pytest.raises(ValueError, match=message):
            byz_inverse_sum(honest, f)

    def test_exact_cancellation_with_float_noise(self):
        from signvote.optimizers import server_aggregate_sgd

        rng = np.random.default_rng(3)
        for trial in range(20):
            honest = [rng.standard_normal(10) * 10.0**rng.integers(-3, 4) for _ in range(5)]
            byz = byz_inverse_sum(np.vstack(honest), 2)
            mean = server_aggregate_sgd(np.vstack(honest + [byz]))
            assert np.all(mean == 0.0), trial


class TestOpposeTrueSign:
    def test_copies_of_negated_sign(self):
        msgs = byz_oppose_true_sign([1.0, -1.0], 3)
        assert msgs.shape == (3, 2) and msgs.dtype == np.int8
        for m in msgs:
            np.testing.assert_array_equal(m, [-1, 1])

    def test_zero_gradient_sends_zeros(self):
        msgs = byz_oppose_true_sign(np.zeros(3), 2)
        assert msgs.shape == (2, 3) and msgs.dtype == np.int8
        for m in msgs:
            np.testing.assert_array_equal(m, np.zeros(3, dtype=np.int8))

    def test_majority_of_adversaries_controls_vote(self):
        from signvote.optimizers import server_aggregate_signs

        true_grad = np.array([0.5, -2.0, 0.0])
        honest = [sign(true_grad)] * 2  # noiseless honest workers
        byz = byz_oppose_true_sign(true_grad, 3)
        out = server_aggregate_signs(np.vstack(honest + [byz]))
        np.testing.assert_array_equal(out, -sign(true_grad))

    def test_f_zero_rejected(self):
        with pytest.raises(ValueError):
            byz_oppose_true_sign([1.0], 0)

