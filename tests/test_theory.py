import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, norm

from signvote.adversaries import byzantine_count
from signvote import theory
from signvote.core import NonFiniteError, RngStream
from signvote.models import (
    ModelSpec,
    full_batch,
    generate_synthetic,
    grad,
    sample_batch,
    sample_batches,
)
from signvote.theory import (
    BERNOULLI_SUCCESS,
    DEFAULT_VOTE_ALPHA,
    DEFAULT_VOTE_P,
    DEFAULT_VOTE_WORKERS,
    DRAW_BLOCK,
    NOISE_FAMILIES,
    BoundInputs,
    NoiseModel,
    SYMMETRIC_BREAKPOINT,
    _binomial_cdf,
    _sampled_grads,
    bound_report,
    estimate_sigma,
    estimate_sign_match_prob,
    estimate_sign_match_profile,
    mc_sign_error,
    rate_bound_blind,
    rate_bound_byzantine,
    sign_error_bound_chebyshev,
    sign_error_bound_symmetric,
    sign_match_rate_mc,
    summarize_report,
    vote_failure_cantelli,
    vote_failure_exact,
)

SNR_GRID = (0.25, 0.5, 1.0, SYMMETRIC_BREAKPOINT, 2.0, 4.0)


class TestSignErrorBounds:
    def test_symmetric_at_zero_is_half(self):
        assert sign_error_bound_symmetric(0.0) == 0.5

    def test_branches_meet_at_one_sixth(self):
        breakpoint = 2.0 / math.sqrt(3.0)
        quadratic = (2.0 / 9.0) / breakpoint**2
        linear = 0.5 - breakpoint / (2.0 * math.sqrt(3.0))
        assert abs(quadratic - 1.0 / 6.0) < 1e-12
        assert abs(linear - 1.0 / 6.0) < 1e-12
        assert abs(sign_error_bound_symmetric(breakpoint) - 1.0 / 6.0) < 1e-12

    def test_quadratic_branch_value(self):
        assert sign_error_bound_symmetric(2.0) == pytest.approx(1.0 / 18.0, rel=1e-15)

    def test_chebyshev_values(self):
        assert sign_error_bound_chebyshev(1.0) == 0.5
        assert sign_error_bound_chebyshev(2.0) == 0.125

    @pytest.mark.parametrize("snr", [1e-170, 5e-324])
    def test_chebyshev_where_square_underflows(self, snr):
        """2 S^2 is 0 in float64 here: the bound is inf, not a ZeroDivisionError."""
        assert sign_error_bound_chebyshev(snr) == math.inf

    def test_symmetric_never_looser_than_chebyshev(self):
        for snr in np.linspace(0.01, 10.0, 500):
            assert sign_error_bound_symmetric(snr) <= sign_error_bound_chebyshev(snr) + 1e-15

    def test_symmetric_monotone_nonincreasing(self):
        grid = np.linspace(0.0, 8.0, 400)
        values = [sign_error_bound_symmetric(s) for s in grid]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sign_error_bound_symmetric(-0.1)
        with pytest.raises(ValueError):
            sign_error_bound_chebyshev(0.0)

    @pytest.mark.parametrize("bound", [sign_error_bound_symmetric, sign_error_bound_chebyshev])
    def test_nan_rejected(self, bound):
        with pytest.raises(ValueError, match="got nan"):
            bound(math.nan)


class TestMcSignError:
    @pytest.mark.parametrize("family, mean, sigma, message", [
        ("gaussian", math.nan, 1.0, "must be finite"),
        ("gaussian", math.inf, 1.0, "must be finite"),
        ("gaussian", 1.0, math.nan, "must be finite"),
        ("gaussian", 1.0, math.inf, "must be finite"),
        ("cauchy", 1.0, 1.0, "unknown family 'cauchy'"),
        ("gaussian", 1.0, -0.5, "sigma must be >= 0"),
    ])
    def test_non_finite_noise_rejected(self, family, mean, sigma, message):
        with pytest.raises(ValueError, match=message):
            NoiseModel(family, mean, sigma)

    def test_gaussian_matches_normal_cdf(self):
        noise = NoiseModel("gaussian", mean=1.0, sigma=1.0)
        estimate, se = mc_sign_error(noise, 100_000, RngStream(31, 0))
        assert abs(estimate - norm.cdf(-1.0)) <= 4 * se
        assert estimate < sign_error_bound_chebyshev(1.0)

    def test_gaussian_high_snr_error_vanishes(self):
        noise = NoiseModel("gaussian", mean=50.0, sigma=1.0)
        estimate, _ = mc_sign_error(noise, 10_000, RngStream(32, 0))
        assert estimate == 0.0

    def test_laplace_matches_closed_form(self):
        # P(Laplace(m, b) < 0) = 0.5 exp(-m/b) for m > 0, with b = sigma/sqrt(2)
        snr = 2.0
        noise = NoiseModel("laplace", mean=snr, sigma=1.0)
        estimate, se = mc_sign_error(noise, 100_000, RngStream(33, 0))
        expected = 0.5 * math.exp(-snr * math.sqrt(2.0))
        assert abs(estimate - expected) <= 4 * se
        assert estimate <= sign_error_bound_symmetric(snr) + 3 * se

    def test_shifted_bernoulli_matches_closed_form(self):
        # the low atom sits at mean - sigma sqrt(q/(1-q)) with mass 1 - q
        q = BERNOULLI_SUCCESS
        threshold = math.sqrt(q / (1.0 - q))
        below = NoiseModel("shifted-bernoulli", mean=0.5, sigma=1.0)
        estimate, se = mc_sign_error(below, 100_000, RngStream(34, 0))
        assert abs(estimate - (1.0 - q)) <= 4 * se
        above = NoiseModel("shifted-bernoulli", mean=threshold + 0.1, sigma=1.0)
        estimate, _ = mc_sign_error(above, 10_000, RngStream(34, 1))
        assert estimate == 0.0

    def test_shifted_bernoulli_moments(self):
        noise = NoiseModel("shifted-bernoulli", mean=2.0, sigma=1.5)
        draws = noise.sample(200_000, RngStream(35, 0))
        assert draws.mean() == pytest.approx(2.0, abs=0.02)
        assert draws.std() == pytest.approx(1.5, abs=0.02)
        assert len(np.unique(draws)) == 2  # two-point, not unimodal

    def test_deterministic_given_stream(self):
        noise = NoiseModel("laplace", mean=1.0, sigma=1.0)
        a = mc_sign_error(noise, 5_000, RngStream(10, 4))
        b = mc_sign_error(noise, 5_000, RngStream(10, 4))
        assert a == b

    def test_preconditions(self):
        with pytest.raises(ValueError, match="1000"):
            mc_sign_error(NoiseModel("gaussian", 1.0, 1.0), 10, RngStream(0))
        with pytest.raises(ValueError, match="zero mean"):
            mc_sign_error(NoiseModel("gaussian", 0.0, 1.0), 5_000, RngStream(0))


class TestVoteFailure:
    def test_hand_binomial_value(self):
        # Bin(3, 0.9) <= 1.5: P = 0.1^3 + 3 * 0.9 * 0.1^2 = 0.028
        assert vote_failure_exact(3, 0.0, 0.9) == pytest.approx(0.028, abs=1e-15)

    def test_perfect_workers_never_fail(self):
        for n_workers in (3, 11, 101):
            for alpha in (0.0, 0.2, 0.4):
                assert vote_failure_exact(n_workers, alpha, 1.0) == 0.0
        assert vote_failure_cantelli(11, 0.2, 1.0) == 0.0

    def test_matches_scipy_binomial_cdf(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 3000))
            k = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.01, 0.99))
            assert _binomial_cdf(k, n, p) == pytest.approx(binom.cdf(k, n, p), abs=1e-11)
        # every tail verify-bounds evaluates on its default grid, down to 1e-270
        for n_workers in DEFAULT_VOTE_WORKERS:
            for p in DEFAULT_VOTE_P:
                for alpha in DEFAULT_VOTE_ALPHA:
                    healthy = n_workers - byzantine_count(alpha, n_workers)
                    k = n_workers // 2
                    assert _binomial_cdf(k, healthy, p) == pytest.approx(
                        binom.cdf(k, healthy, p), rel=1e-12), (n_workers, p, alpha)

    @pytest.mark.parametrize("n_workers,alpha,healthy",
                             [(15, 0.1, 13), (5, 0.1, 4), (5, 0.3, 3), (3, 0.5, 1), (2, 0.25, 1)])
    def test_healthy_count_at_half_ties_is_the_engines(self, n_workers, alpha, healthy):
        # alpha * M ends in .5: f rounds up, so (1 - alpha) M rounds down, not up
        assert n_workers - byzantine_count(alpha, n_workers) == healthy
        assert vote_failure_exact(n_workers, alpha, 0.8) == pytest.approx(
            binom.cdf(n_workers // 2, healthy, 0.8), rel=1e-12)

    def test_healthy_count_follows_byzantine_count_on_grid(self):
        for n_workers in range(1, 40):
            for alpha in np.round(np.arange(0.0, 1.0, 0.05), 2):
                healthy = n_workers - byzantine_count(float(alpha), n_workers)
                assert vote_failure_exact(n_workers, float(alpha), 0.7) == _binomial_cdf(
                    n_workers // 2, healthy, 0.7), (n_workers, alpha)

    def test_log_factorials_built_once_per_n(self):
        theory._log_factorials.cache_clear()
        first = vote_failure_exact(10_001, 0.0, 0.6)
        assert vote_failure_exact(10_001, 0.0, 0.6) == first
        info = theory._log_factorials.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        table = theory._log_factorials(10_001)
        assert not table.flags.writeable
        np.testing.assert_array_equal(table, [math.lgamma(i + 1) for i in range(10_002)])

    def test_stable_at_ten_thousand_workers(self):
        value = vote_failure_exact(10_000, 0.0, 0.6)
        assert 0.0 < value < 1e-80

    def test_monotone_in_workers_odd_grid(self):
        for p, alpha in [(0.9, 0.0), (0.9, 0.1), (0.75, 0.2), (0.6, 0.1)]:
            values = [vote_failure_exact(m, alpha, p) for m in (11, 51, 101, 501)]
            assert all(a >= b for a, b in zip(values, values[1:])), (p, alpha)

    def test_cantelli_spot_value(self):
        # 0.5 sqrt(0.9*0.1*0.9) / (0.31 * 10)
        assert vote_failure_cantelli(100, 0.1, 0.9) == pytest.approx(0.0459, abs=5e-5)

    def test_cantelli_dominates_exact_on_grid(self):
        for n_workers in (11, 51, 101, 501):
            for p in (0.6, 0.75, 0.9, 0.99):
                for alpha in (0.0, 0.1, 0.2, 0.3):
                    if p * (1 - alpha) <= 0.5:
                        continue
                    exact = vote_failure_exact(n_workers, alpha, p)
                    bound = vote_failure_cantelli(n_workers, alpha, p)
                    assert exact <= bound, (n_workers, p, alpha)

    def test_cantelli_inverse_sqrt_scaling(self):
        a = vote_failure_cantelli(50, 0.1, 0.9)
        b = vote_failure_cantelli(200, 0.1, 0.9)
        assert a / b == pytest.approx(2.0, rel=1e-12)

    def test_inadmissible_point_rejected_with_condition(self):
        with pytest.raises(ValueError, match=r"alpha < 1 - 1/\(2p\)"):
            vote_failure_cantelli(11, 0.3, 0.6)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            vote_failure_exact(0, 0.0, 0.9)
        with pytest.raises(ValueError):
            vote_failure_exact(3, 1.0, 0.9)
        with pytest.raises(ValueError):
            vote_failure_exact(3, 0.0, 0.0)


def inputs(sigma=1.0, smoothness=1.0, f0=1.0, fstar=0.0, workers=10,
           alpha=0.0, rounds=100, dim=3):
    return BoundInputs(
        sigma=np.full(dim, sigma), smoothness=np.full(dim, smoothness),
        f0=f0, fstar=fstar, n_workers=workers, alpha=alpha, n_rounds=rounds,
    )


class TestRateBounds:
    def test_noise_free_reduction(self):
        clean = inputs(sigma=0.0)
        blind = rate_bound_blind(clean)
        expected = 4.0 / clean.n_rounds * 3.0 * 1.0  # 4/sqrt(K^2) * |L|_1 (f0-fstar)
        assert blind == pytest.approx(expected, rel=1e-12)

    def test_noise_free_bounds_coincide(self):
        clean = inputs(sigma=0.0, alpha=0.1)
        assert rate_bound_blind(clean) == pytest.approx(rate_bound_byzantine(clean, 0.8),
                                                        abs=1e-12)

    def test_doubling_rounds_halves_both(self):
        a, b = inputs(rounds=100), inputs(rounds=200)
        assert rate_bound_blind(a) / rate_bound_blind(b) == pytest.approx(2.0, rel=1e-12)
        assert (rate_bound_byzantine(a, 0.9) / rate_bound_byzantine(b, 0.9)
                == pytest.approx(2.0, rel=1e-12))

    def test_blind_alpha_quarter_doubles_noise_term(self):
        # with zero smoothness the bound is 4/sqrt(N) * (noise term)^2
        base = BoundInputs(np.ones(2), np.zeros(2), 1.0, 0.0, 16, 0.0, 10)
        bumped = BoundInputs(np.ones(2), np.zeros(2), 1.0, 0.0, 16, 0.25, 10)
        ratio = math.sqrt(rate_bound_blind(bumped) / rate_bound_blind(base))
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_byzantine_coefficient_at_p_one(self):
        base = BoundInputs(np.ones(1), np.zeros(1), 1.0, 0.0, 1, 0.0, 1)
        # bound = 4 * (c * |sigma|_1)^2 with c = 1/(2 sqrt(2)) / (1 - 1/2) = sqrt(2)/2
        coefficient = math.sqrt(rate_bound_byzantine(base, 1.0) / 4.0)
        assert coefficient == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)

    def test_pole_at_admissibility_edge(self):
        p = 0.8
        edge = 1.0 - 1.0 / (2.0 * p)
        near = rate_bound_byzantine(inputs(alpha=edge - 1e-9), p)
        far = rate_bound_byzantine(inputs(alpha=0.0), p)
        assert near > 1e6 * far

    def test_blind_rejects_alpha_half(self):
        with pytest.raises(ValueError, match="1/2"):
            rate_bound_blind(inputs(alpha=0.5))

    def test_byzantine_rejects_inadmissible(self):
        with pytest.raises(ValueError, match=r"alpha < 1 - 1/\(2p\)"):
            rate_bound_byzantine(inputs(alpha=0.2), 0.6)

    def test_monotone_structure(self):
        base = rate_bound_byzantine(inputs(alpha=0.1, workers=16), 0.8)
        assert rate_bound_byzantine(inputs(alpha=0.1, workers=64), 0.8) < base
        assert rate_bound_byzantine(inputs(alpha=0.1, workers=16), 0.9) < base
        assert rate_bound_byzantine(inputs(alpha=0.15, workers=16), 0.8) > base

    def test_input_validation(self):
        with pytest.raises(ValueError):
            inputs(sigma=-1.0)
        with pytest.raises(ValueError):
            BoundInputs(np.ones(1), np.ones(1), 0.0, 1.0, 1, 0.0, 1)
        with pytest.raises(ValueError, match="n_rounds must be >= 1"):
            inputs(rounds=0)
        for p in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
                rate_bound_byzantine(inputs(), p)

    # (alpha, p, M, K) -> float.hex of the blind and byzantine bounds, recorded
    # while each formula still had its own body
    RECORDED_BITS = {
        (0.0, 0.9, 10, 100): ("0x1.5cd0c57431f6dp-2", "0x1.3ec4c26c0866fp-2"),
        (0.2, 0.9, 15, 400): ("0x1.c2d1f7bcc251cp-4", "0x1.b44cb630afaeap-4"),
        (0.1, 0.7, 7, 33): ("0x1.748f754534848p+0", "0x1.c5f5a910a0b00p+1"),
        (0.3, 0.95, 101, 1000): ("0x1.d76fc301058c8p-6", "0x1.acb66a153f981p-6"),
    }

    @pytest.mark.parametrize("point", sorted(RECORDED_BITS))
    def test_bits_as_recorded(self, point):
        alpha, p, workers, rounds = point
        bound_inputs = BoundInputs(np.linspace(0.1, 1.3, 5), np.linspace(0.05, 0.7, 5),
                                   2.0, 0.25, workers, alpha, rounds)
        bits = (rate_bound_blind(bound_inputs).hex(), rate_bound_byzantine(bound_inputs, p).hex())
        assert bits == self.RECORDED_BITS[point]

    @pytest.mark.parametrize("field", ["sigma", "smoothness", "f0", "fstar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected_at_construction(self, field, value):
        # a NaN objective made both bounds NaN, and fstar = -inf made them inf
        fields = {"sigma": np.ones(3), "smoothness": np.ones(3), "f0": 1.0, "fstar": 0.0,
                  "n_workers": 10, "alpha": 0.1, "n_rounds": 10}
        fields[field] = np.array([1.0, value, 1.0]) if field in ("sigma", "smoothness") else value
        with pytest.raises(ValueError, match=field):
            BoundInputs(**fields)

    @pytest.mark.parametrize("field, value", [("workers", 2.5), ("workers", True),
                                              ("rounds", 3.5), ("rounds", True)])
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        with pytest.raises(TypeError):
            inputs(**{field: value})


class TestSignMatchEstimation:
    @staticmethod
    def toy_problem(seed=21):
        stream = RngStream(seed, 50)
        data, _ = generate_synthetic(stream, "logistic-regression", 6, 400)
        spec = ModelSpec("logistic-regression", 6, num_classes=2)
        params = 0.5 * stream.generator.standard_normal(spec.param_dim)
        return spec, params, data

    def test_full_batch_gives_probability_one(self):
        spec, params, data = self.toy_problem()
        p = estimate_sign_match_prob(spec, params, data, data.n_samples, 50, RngStream(1, 0))
        assert p == 1.0

    def test_gaussian_oracle_harness(self):
        # minibatch of size n from N(g, sigma^2) noise -> match prob = Phi(S sqrt(n))
        g = np.array([0.5, -0.25, 1.0])
        sigma, n = 1.0, 4
        stream = RngStream(77, 0)

        draws = g + (sigma / math.sqrt(n)) * stream.generator.standard_normal((40_000, 3))
        rates, mask = sign_match_rate_mc(draws, g)
        expected = norm.cdf(np.abs(g) * math.sqrt(n) / sigma)
        assert mask.all()
        np.testing.assert_allclose(rates, expected, atol=0.01)

    def test_profile_and_scalar_agree(self):
        spec, params, data = self.toy_problem()
        rates, mask = estimate_sign_match_profile(spec, params, data, 16, 200, RngStream(3, 9))
        scalar = estimate_sign_match_prob(spec, params, data, 16, 200, RngStream(3, 9))
        assert scalar == pytest.approx(rates[mask].mean())

    def test_nondecreasing_in_batch_size_on_average(self):
        spec, params, data = self.toy_problem()
        diffs = []
        for seed in range(8):
            small = estimate_sign_match_prob(spec, params, data, 4, 150, RngStream(seed, 1))
            large = estimate_sign_match_prob(spec, params, data, 64, 150, RngStream(seed, 2))
            diffs.append(large - small)
        assert np.mean(diffs) > 0.0

    @pytest.mark.parametrize("dim", [3, 6, 20])
    def test_all_below_floor_rejected(self, dim):
        # noiseless linear data at its generating parameters: the full gradient is exactly 0
        data, params = generate_synthetic(RngStream(dim, 50), "linear-regression", dim, 400)
        spec = ModelSpec("linear-regression", dim)
        assert not grad(spec, params, data, full_batch(data)).any()
        with pytest.raises(ValueError, match="below the floor 1e-08"):
            estimate_sign_match_profile(spec, params, data, 8, 10, RngStream(0))


class TestEstimateSigma:
    def test_matches_reference_std(self):
        spec, params, data = TestSignMatchEstimation.toy_problem(seed=5)
        sigma = estimate_sigma(spec, params, data, 8, 400, RngStream(9, 0))
        assert sigma.shape == (spec.param_dim,)
        assert (sigma > 0).all()
        # reference: numpy over freshly drawn minibatch gradients, same stream key
        stream = RngStream(9, 0)
        draws = np.array([
            grad(spec, params, data, sample_batch(stream, data.n_samples, 8))
            for _ in range(400)
        ])
        np.testing.assert_array_equal(sigma, draws.std(axis=0, ddof=1))

    def test_requires_two_samples(self):
        spec, params, data = TestSignMatchEstimation.toy_problem(seed=6)
        with pytest.raises(ValueError):
            estimate_sigma(spec, params, data, 8, 1, RngStream(0))


class TestEstimatorErrors:
    G = np.array([0.5, -0.25, 1.0])

    def test_exact_zero_draw_matches_no_sign(self):
        draws = np.array([self.G, np.zeros(3), [-0.0, 0.0, -0.0]])
        rates, mask = sign_match_rate_mc(draws, self.G)
        assert mask.all() and rates.tolist() == [1 / 3] * 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draw_rejected(self, bad):
        draws = np.array([self.G, [0.5, bad, 1.0], self.G])
        with pytest.raises(NonFiniteError, match="sampled gradient 1 has non-finite entry"):
            sign_match_rate_mc(draws, self.G)

    @pytest.mark.parametrize("true_grad", [[np.nan, 1.0], [np.nan, np.nan], [0.5, -np.inf]])
    def test_non_finite_true_gradient_rejected(self, true_grad):
        """Named as the true gradient, before the floor mask could call a NaN
        coordinate "below the floor"."""
        with pytest.raises(NonFiniteError, match="^true gradient has non-finite entry"):
            sign_match_rate_mc(np.ones((2, 2)), true_grad)

    @pytest.mark.parametrize("draws", [0.5, np.ones(3), np.ones((0, 3)), np.ones((2, 1)),
                                       np.ones((2, 2)), np.ones((2, 4)), np.ones((2, 3, 1))])
    def test_misshapen_draw_rejected(self, draws):
        with pytest.raises(ValueError, match=r"must be a non-empty \(samples, 3\) block"):
            sign_match_rate_mc(draws, self.G)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_checked_before_any_draw(self, samples):
        spec, params, data = TestSignMatchEstimation.toy_problem()
        for batch_size in (8, data.n_samples):
            stream = RngStream(4, 4)
            with pytest.raises(ValueError, match=">= 1"):
                estimate_sign_match_profile(spec, params, data, batch_size, samples, stream)
            assert (stream.generator.integers(0, 2**32)
                    == RngStream(4, 4).generator.integers(0, 2**32))

    def test_zero_batch_size_rejected_before_any_gradient(self, monkeypatch):
        spec, params, data = TestSignMatchEstimation.toy_problem()

        def no_grad(*args):
            raise AssertionError("computed a gradient")

        monkeypatch.setattr(theory, "grad", no_grad)
        for estimate in (estimate_sign_match_profile, estimate_sign_match_prob, estimate_sigma):
            with pytest.raises(ValueError, match="batch size must be >= 1"):
                estimate(spec, params, data, 0, 10, RngStream(0))


def traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate during one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDrawBlocks:
    """The oracles hold at most DRAW_BLOCK batch indices or noise draws at
    once, and return the bits of one draw of them all."""

    ROWS = DRAW_BLOCK // 512  # batches of 512 indices per block

    @pytest.mark.parametrize("batch_size, samples", [
        (512, ROWS - 1), (512, ROWS), (512, ROWS + 1), (512, 3 * ROWS + 5),
        (DRAW_BLOCK, 2), (DRAW_BLOCK + 1, 3),
    ])
    def test_sampled_grads_equal_one_draw(self, batch_size, samples):
        spec, params, data = TestSignMatchEstimation.toy_problem()
        stream, reference = RngStream(6, 1), RngStream(6, 1)
        draws = _sampled_grads(spec, params, data, batch_size, samples, stream)
        batches = sample_batches(reference, data.n_samples, batch_size, samples)
        np.testing.assert_array_equal(draws, [grad(spec, params, data, b) for b in batches])
        # and the stream ends where one draw leaves it
        assert stream.generator.integers(0, 2**32) == reference.generator.integers(0, 2**32)

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    @pytest.mark.parametrize("samples", [1000, DRAW_BLOCK, DRAW_BLOCK + 1, 100_000])
    def test_mc_sign_error_equals_one_draw(self, family, samples):
        for mean in (0.4, -1.3):
            noise = NoiseModel(family, mean, 1.0)
            stream, reference = RngStream(12, 3), RngStream(12, 3)
            draws = noise.sample(samples, reference)
            rate = float(np.mean(np.sign(draws) != np.sign(mean)))
            assert mc_sign_error(noise, samples, stream) == (
                rate, math.sqrt(rate * (1.0 - rate) / samples))
            assert stream.generator.random() == reference.generator.random()

    def test_profile_memory_does_not_grow_with_samples(self):
        # one draw of 4,000 batches of 512 int64 indices alone is 15.6 MiB
        spec, params, data = TestSignMatchEstimation.toy_problem()
        peak = traced_peak(lambda: estimate_sign_match_profile(spec, params, data, 512, 4000,
                                                               RngStream(2, 2)))
        assert peak < 4 * 2**20

    def test_mc_sign_error_memory_does_not_grow_with_samples(self):
        # one draw of 10**6 float64 samples is 7.6 MiB, and its float64 sign as much again
        noise = NoiseModel("laplace", 1.0, 1.0)
        assert traced_peak(lambda: mc_sign_error(noise, 10**6, RngStream(2))) < 2**20


# sha256 of the estimators' outputs on demo 07's data and parameters, recorded
# before their batch indices were drawn in one call and their signs counted in one pass
ESTIMATOR_SHA256 = {
    "profile": "f74327f839e7cf86c7fba8578e2d726fb204567df93eda5ea18be4804993a3c5",
    "prob": "5c516c901e5a3e80454ebaf6d5c871c72361686ba2cd48b939f372478766e27f",
    "sigma": "4b787063b12158dfa80e9b51cf5f3a569f1acc3be898fb1891c8d39771fe8778",
}


def test_estimators_keep_recorded_bytes():
    spec = ModelSpec("logistic-regression", 20, num_classes=2)
    data, _ = generate_synthetic(RngStream(8005, 2**32), "logistic-regression", 20, 2000)
    params = 0.1 * RngStream(8005, 1).generator.standard_normal(spec.param_dim)
    rates, mask = estimate_sign_match_profile(spec, params, data, 32, 400, RngStream(8005, 3))
    probs = np.array([estimate_sign_match_prob(spec, params, data, size, 400, RngStream(8005, 2))
                      for size in (2, 15, 32, 512, data.n_samples)])
    sigma = estimate_sigma(spec, params, data, 32, 1000, RngStream(8005, 4))
    digests = {name: hashlib.sha256(b"".join(array.tobytes() for array in arrays)).hexdigest()
               for name, arrays in (("profile", (rates, mask)), ("prob", (probs,)),
                                    ("sigma", (sigma,)))}
    assert digests == ESTIMATOR_SHA256


class TestCallStructure:
    """The estimators' calls on the closed forms the benchmark's traced
    ``theory-oracles`` run checks: one sampled gradient per sample, one
    full-batch gradient per sign-match estimate (none for sigma) and no
    per-batch ``sample_batch``; and one ``sample_batches`` call per block of
    at most DRAW_BLOCK indices, at least one batch each.

    A gradient counts as full when its batch is an object that ``full_batch``
    returned, the way the tracer tells the two apart.
    """

    SIZES, SAMPLES = (2, DRAW_BLOCK // 4, DRAW_BLOCK + 1), 10  # 1, 3 and 10 blocks

    def test_counts_on_a_small_plan(self, monkeypatch):
        import signvote.models

        spec, params, data = TestSignMatchEstimation.toy_problem()
        counts = dict.fromkeys(("grad.worker", "grad.full", "sample_batch", "sample_batches"), 0)
        full_batches = []

        def counting(module, attr, key):
            fn = getattr(module, attr)

            def wrapper(*args, **kwargs):
                counts[key(*args, **kwargs) if callable(key) else key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, attr, wrapper)

        def grad_kind(spec, params, data, batch):
            return "grad.full" if any(batch is b for b in full_batches) else "grad.worker"

        def recording_full_batch(data, _full_batch=theory.full_batch):
            full_batches.append(_full_batch(data))
            return full_batches[-1]

        counting(theory, "grad", grad_kind)
        counting(theory, "sample_batches", "sample_batches")
        for module in (signvote.models, theory):  # wherever a per-batch draw could come from
            if hasattr(module, "sample_batch"):
                counting(module, "sample_batch", "sample_batch")
        monkeypatch.setattr(theory, "full_batch", recording_full_batch)
        sizes = self.SIZES + (data.n_samples,)
        for stream, size in enumerate(sizes):
            estimate_sign_match_prob(spec, params, data, size, self.SAMPLES, RngStream(4, stream))
        estimate_sign_match_profile(spec, params, data, 4, self.SAMPLES, RngStream(4, 10))
        estimate_sigma(spec, params, data, 4, self.SAMPLES, RngStream(4, 11))

        sampled_sizes = self.SIZES + (4, 4)  # the sizes, the profile and sigma
        blocks = [-(-self.SAMPLES // max(1, DRAW_BLOCK // size)) for size in sampled_sizes]
        assert blocks == [1, 3, 10, 1, 1]
        assert counts == {
            "grad.worker": len(sampled_sizes) * self.SAMPLES,
            "grad.full": len(sizes) + 1,
            "sample_batch": 0,
            "sample_batches": sum(blocks),
        }


class TestBoundReport:
    def test_default_grid_all_pass(self):
        rows = bound_report(mc_samples=20_000)
        summary = summarize_report(rows)
        assert summary["failed"] == 0
        assert summary["all_pass"]
        assert summary["inadmissible"] > 0  # the grid does contain excluded corners
        checks = {row["check"] for row in rows}
        assert checks == {"sign-error-chebyshev", "sign-error-symmetric", "vote-failure-cantelli"}

    def test_inadmissible_points_flagged_not_failed(self):
        rows = bound_report(snr_grid=(), families=(), vote_workers=(11,),
                            vote_p=(0.6,), vote_alpha=(0.3,))
        assert [row["status"] for row in rows] == ["inadmissible"]
        assert summarize_report(rows)["all_pass"]

    @pytest.mark.parametrize("workers, p, alpha, message", [
        (0, 0.5, 0.0, "n_workers must be >= 1"),
        (11, -0.3, 0.0, r"p must lie in \(0, 1\]"),
        (11, 0.0, 0.0, r"p must lie in \(0, 1\]"),
        (11, 0.9, 1.5, r"alpha must lie in \[0, 1\)"),
    ])
    def test_out_of_range_vote_point_raises(self, workers, p, alpha, message):
        # p * (1 - alpha) <= 1/2 at each point, so unchecked it would read inadmissible
        with pytest.raises(ValueError, match=message):
            bound_report(snr_grid=(), families=(), vote_workers=(workers,),
                         vote_p=(p,), vote_alpha=(alpha,))
