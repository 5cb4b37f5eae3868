import itertools
import math

import numpy as np
import pytest

from signvote.optimizers import (
    OptimizerConfig,
    apply_update,
    effective_eta,
    prescribed_hyperparams,
    server_aggregate_sgd,
    server_aggregate_signs,
    worker_message,
)


def cfg(rule="signsgd", eta=0.1, **kw):
    return OptimizerConfig(rule=rule, eta=eta, **kw)


class TestWorkerMessage:
    def test_no_momentum_is_plain_sign(self):
        momentum = np.zeros(3)
        msg = worker_message(cfg("signsgd"), momentum, [10.0, -0.5, 0.0])
        np.testing.assert_array_equal(msg, [1, -1, 0])

    def test_first_momentum_step(self):
        momentum = np.zeros(2)
        msg = worker_message(cfg("signum", beta=0.9), momentum, [10.0, -10.0])
        np.testing.assert_allclose(momentum, [1.0, -1.0], rtol=1e-15)
        np.testing.assert_array_equal(msg, [1, -1])

    def test_constant_gradient_converges_geometrically(self):
        # v_t = g (1 - beta^t) for constant g from a zero buffer
        beta = 0.7
        g = np.array([2.0, -3.0])
        momentum = np.zeros(2)
        for t in range(1, 20):
            msg = worker_message(cfg("signum", beta=beta), momentum, g)
            np.testing.assert_allclose(momentum, g * (1 - beta**t), rtol=1e-12)
            np.testing.assert_array_equal(msg, [1, -1])

    def test_dist_sgd_sends_raw_estimate(self):
        momentum = np.zeros(2)
        g = np.array([0.25, -4.0])
        msg = worker_message(cfg("dist-sgd"), momentum, g)
        np.testing.assert_array_equal(msg, g)
        assert msg.dtype == np.float64

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            worker_message(cfg(), np.zeros(3), [1.0, 2.0])

    @pytest.mark.parametrize("momentum", [np.zeros((1, 2)), np.zeros(2, dtype=np.int64),
                                          np.zeros(2, dtype=np.float32), [0.0, 0.0]])
    def test_rejects_bad_momentum_buffer(self, momentum):
        # an in-place write into an integer buffer would truncate without a word
        with pytest.raises(ValueError, match="momentum"):
            worker_message(cfg("signum", beta=0.5), momentum, [0.75, -0.25])

    def test_updates_row_of_momentum_array_in_place(self):
        momentum = np.zeros((3, 2))
        worker_message(cfg("signum", beta=0.5), momentum[1], [2.0, -4.0])
        np.testing.assert_array_equal(momentum, [[0.0, 0.0], [1.0, -2.0], [0.0, 0.0]])


class TestServerAggregateSigns:
    def test_two_vs_one_majority(self):
        np.testing.assert_array_equal(server_aggregate_signs([[1], [1], [-1]]), [1])

    def test_exact_tie_is_zero(self):
        np.testing.assert_array_equal(server_aggregate_signs([[1], [-1]]), [0])

    def test_strict_majority_semantics(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            votes = rng.integers(-1, 2, size=(7, 5))
            out = server_aggregate_signs(list(votes))
            pos = (votes == 1).sum(axis=0)
            neg = (votes == -1).sum(axis=0)
            np.testing.assert_array_equal(out, np.sign(pos - neg))

    def test_brute_force_equivalence_small(self):
        # exhaustive over all message combinations for 3 workers, 1 coordinate
        for combo in itertools.product((-1, 0, 1), repeat=3):
            msgs = [np.array([v]) for v in combo]
            expected = np.sign(sum(combo))
            assert server_aggregate_signs(msgs)[0] == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            server_aggregate_signs([])


class TestServerAggregateSgd:
    def test_mean(self):
        np.testing.assert_array_equal(server_aggregate_sgd([[2.0, 0.0], [0.0, 2.0]]), [1.0, 1.0])

    def test_identical_messages_fixed_point(self):
        v = np.array([0.3, -0.7, 2.0])
        np.testing.assert_array_equal(server_aggregate_sgd([v] * 5), v)

    def test_cancels_running_sum_exactly(self):
        rng = np.random.default_rng(1)
        honest = [rng.standard_normal(6) for _ in range(4)]
        from signvote.core import sequential_sum

        attack = -sequential_sum(honest)
        mean = server_aggregate_sgd(honest + [attack, np.zeros(6)])
        assert np.all(mean == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="cannot aggregate an empty message list"):
            server_aggregate_sgd([])

    def test_allows_infinite_attack_vector(self):
        out = server_aggregate_sgd([[1.0], [float("inf")]])
        assert np.isinf(out[0])


class TestApplyUpdate:
    def test_basic_sign_step(self):
        out = apply_update(cfg(eta=0.1), np.zeros(2), np.array([1, -1], dtype=np.int8), 0)
        np.testing.assert_array_equal(out, [-0.1, 0.1])

    def test_decay_boundaries(self):
        c = cfg(eta=1.0, decay_factor=10.0, decay_every=30)
        assert effective_eta(c, 0) == 1.0
        assert effective_eta(c, 29) == 1.0
        assert effective_eta(c, 30) == pytest.approx(0.1)
        assert effective_eta(c, 60) == pytest.approx(0.01)
        assert effective_eta(c, 90) == pytest.approx(0.001)

    @pytest.mark.parametrize("decay_factor, step, expected", [
        (10.0, 308, 1e-308),  # 10**308 is the largest power of ten a float holds
        (10.0, 309, 0.0),  # the divisor overflows: the quotient is 0
        (1e-300, 1, 1.0 / 1e-300),
        (1e-300, 2, math.inf),  # the divisor underflows to 0: the quotient is inf
    ])
    def test_schedule_past_the_float_range(self, decay_factor, step, expected):
        c = cfg(eta=1.0, decay_factor=decay_factor, decay_every=1)
        assert effective_eta(c, step) == expected

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step must be >= 0"):
            effective_eta(cfg(), -1)

    def test_zero_direction_fixed_point(self):
        x = np.array([1.0, -2.0, 3.0])
        out = apply_update(cfg(eta=0.5), x, np.zeros(3), 7)
        np.testing.assert_array_equal(out, x)

    def test_sign_step_moves_by_exactly_eta(self):
        c = cfg(eta=0.25, decay_factor=10.0, decay_every=30)
        direction = np.array([1, 0, -1], dtype=np.int8)
        out = apply_update(c, np.zeros(3), direction, 0)
        assert set(np.unique(out)) <= {-0.25, 0.0, 0.25}
        out = apply_update(c, np.zeros(3), direction, 45)
        np.testing.assert_array_equal(np.abs(out[[0, 2]]), 0.025)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            apply_update(cfg(), np.zeros(2), np.zeros(3), 0)


class TestPrescribedHyperparams:
    def test_unit_case(self):
        assert prescribed_hyperparams(1.0, 0.0, 1.0, 1) == (1.0, 1)

    def test_perfect_square(self):
        eta, n = prescribed_hyperparams(4.0, 0.0, 1.0, 4)
        assert eta == 1.0
        assert n == 4

    def test_inverse_sqrt_scaling_in_rounds(self):
        eta1, _ = prescribed_hyperparams(2.0, 0.5, 3.0, 100)
        eta2, _ = prescribed_hyperparams(2.0, 0.5, 3.0, 400)
        assert eta1 / eta2 == pytest.approx(2.0, rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            prescribed_hyperparams(0.0, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            prescribed_hyperparams(1.0, 0.0, 0.0, 10)
        with pytest.raises(ValueError):
            prescribed_hyperparams(1.0, 0.0, 1.0, 0)


class TestOptimizerConfig:
    def test_signsgd_with_momentum_rejected(self):
        with pytest.raises(ValueError, match="signsgd requires beta = 0"):
            OptimizerConfig("signsgd", eta=0.1, beta=0.5)

    def test_dist_sgd_with_momentum_rejected(self):
        # dist-sgd sends the raw estimate, so a momentum setting would have no effect
        with pytest.raises(ValueError, match="dist-sgd requires beta = 0"):
            OptimizerConfig("dist-sgd", eta=0.1, beta=0.9)
        assert OptimizerConfig("dist-sgd", eta=0.1, beta=0.0).beta == 0.0

    @pytest.mark.parametrize("field", ["batch_size", "decay_every"])
    def test_integer_fields_reject_floats(self, field):
        for bad in (30.0, True):
            with pytest.raises(TypeError):
                OptimizerConfig("signum", eta=0.1, **{field: bad})

    def test_signum_momentum_allowed(self):
        assert OptimizerConfig("signum", eta=0.1, beta=0.9).beta == 0.9

    @pytest.mark.parametrize(
        "kw",
        [
            {"eta": 0.0},
            {"eta": -1.0},
            {"eta": 0.1, "beta": 1.0},
            {"eta": 0.1, "beta": -0.1},
            {"eta": 0.1, "batch_size": 0},
            {"eta": 0.1, "decay_factor": 0.0},
            {"eta": 0.1, "decay_every": 0},
        ],
    )
    def test_invalid_fields(self, kw):
        with pytest.raises(ValueError):
            OptimizerConfig("signum", **kw)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule"):
            OptimizerConfig("adam", eta=0.1)

    @pytest.mark.parametrize("field", ["eta", "decay_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        # NaN passes a bare `x <= 0` check; an infinite decay factor would zero the
        # rate for good after the first decay, so it is rejected too
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OptimizerConfig("signum", **{"eta": 0.1, field: value})


class TestAggregationPermutationInvariance:
    def test_signs_exact(self):
        rng = np.random.default_rng(5)
        msgs = [rng.integers(-1, 2, size=4) for _ in range(9)]
        base = server_aggregate_signs(msgs)
        for _ in range(10):
            perm = rng.permutation(9)
            np.testing.assert_array_equal(server_aggregate_signs([msgs[i] for i in perm]), base)

    def test_sign_rules_identical_when_beta_zero(self):
        # signum with beta=0 and signsgd share the exact same arithmetic
        g = np.random.default_rng(6).standard_normal(8)
        v1, v2 = np.zeros(8), np.zeros(8)
        m1 = worker_message(cfg("signsgd"), v1, g)
        m2 = worker_message(cfg("signum", beta=0.0), v2, g)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)
