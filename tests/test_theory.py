import math

import numpy as np
import pytest
from scipy.stats import binom, norm

from signvote.core import RngStream
from signvote.models import ModelSpec, generate_synthetic, grad
from signvote.theory import (
    BERNOULLI_SUCCESS,
    DEFAULT_VOTE_ALPHA,
    DEFAULT_VOTE_P,
    DEFAULT_VOTE_WORKERS,
    BoundInputs,
    NoiseModel,
    SYMMETRIC_BREAKPOINT,
    _binomial_cdf,
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


class TestMcSignError:
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
                    healthy = int(np.floor((1.0 - alpha) * n_workers + 0.5))
                    k = n_workers // 2
                    assert _binomial_cdf(k, healthy, p) == pytest.approx(
                        binom.cdf(k, healthy, p), rel=1e-12), (n_workers, p, alpha)

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


def inputs(sigma=1.0, smoothness=1.0, f0=1.0, fstar=0.0, p=0.9, workers=10,
           alpha=0.0, rounds=100, dim=3):
    return BoundInputs(
        sigma=np.full(dim, sigma), smoothness=np.full(dim, smoothness),
        f0=f0, fstar=fstar, p=p, n_workers=workers, alpha=alpha, n_rounds=rounds,
    )


class TestRateBounds:
    def test_noise_free_reduction(self):
        clean = inputs(sigma=0.0)
        blind = rate_bound_blind(clean)
        expected = 4.0 / clean.n_rounds * 3.0 * 1.0  # 4/sqrt(K^2) * |L|_1 (f0-fstar)
        assert blind == pytest.approx(expected, rel=1e-12)

    def test_noise_free_bounds_coincide(self):
        clean = inputs(sigma=0.0, alpha=0.1, p=0.8)
        assert rate_bound_blind(clean) == pytest.approx(rate_bound_byzantine(clean), abs=1e-12)

    def test_doubling_rounds_halves_both(self):
        a, b = inputs(rounds=100), inputs(rounds=200)
        assert rate_bound_blind(a) / rate_bound_blind(b) == pytest.approx(2.0, rel=1e-12)
        assert rate_bound_byzantine(a) / rate_bound_byzantine(b) == pytest.approx(2.0, rel=1e-12)

    def test_blind_alpha_quarter_doubles_noise_term(self):
        # with zero smoothness the bound is 4/sqrt(N) * (noise term)^2
        base = BoundInputs(np.ones(2), np.zeros(2), 1.0, 0.0, 0.9, 16, 0.0, 10)
        bumped = BoundInputs(np.ones(2), np.zeros(2), 1.0, 0.0, 0.9, 16, 0.25, 10)
        ratio = math.sqrt(rate_bound_blind(bumped) / rate_bound_blind(base))
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_byzantine_coefficient_at_p_one(self):
        base = BoundInputs(np.ones(1), np.zeros(1), 1.0, 0.0, 1.0, 1, 0.0, 1)
        # bound = 4 * (c * |sigma|_1)^2 with c = 1/(2 sqrt(2)) / (1 - 1/2) = sqrt(2)/2
        coefficient = math.sqrt(rate_bound_byzantine(base) / 4.0)
        assert coefficient == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)

    def test_pole_at_admissibility_edge(self):
        p = 0.8
        edge = 1.0 - 1.0 / (2.0 * p)
        near = rate_bound_byzantine(inputs(p=p, alpha=edge - 1e-9))
        far = rate_bound_byzantine(inputs(p=p, alpha=0.0))
        assert near > 1e6 * far

    def test_blind_rejects_alpha_half(self):
        with pytest.raises(ValueError, match="1/2"):
            rate_bound_blind(inputs(alpha=0.5))

    def test_byzantine_rejects_inadmissible(self):
        with pytest.raises(ValueError, match=r"alpha < 1 - 1/\(2p\)"):
            rate_bound_byzantine(inputs(p=0.6, alpha=0.2))

    def test_monotone_structure(self):
        base = inputs(p=0.8, alpha=0.1, workers=16)
        assert rate_bound_byzantine(inputs(p=0.8, alpha=0.1, workers=64)) < rate_bound_byzantine(base)
        assert rate_bound_byzantine(inputs(p=0.9, alpha=0.1, workers=16)) < rate_bound_byzantine(base)
        assert rate_bound_byzantine(inputs(p=0.8, alpha=0.15, workers=16)) > rate_bound_byzantine(base)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            inputs(sigma=-1.0)
        with pytest.raises(ValueError):
            BoundInputs(np.ones(1), np.ones(1), 0.0, 1.0, 0.9, 1, 0.0, 1)


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

        def draw():
            return g + (sigma / math.sqrt(n)) * stream.generator.standard_normal(3)

        rates, mask = sign_match_rate_mc(draw, g, samples=40_000)
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

    def test_all_below_floor_rejected(self):
        spec, params, data = self.toy_problem()
        with pytest.raises(ValueError, match="floor"):
            estimate_sign_match_profile(spec, params, data, 8, 10, RngStream(0), floor=1e9)


class TestEstimateSigma:
    def test_matches_reference_std(self):
        spec, params, data = TestSignMatchEstimation.toy_problem(seed=5)
        sigma = estimate_sigma(spec, params, data, 8, 400, RngStream(9, 0))
        assert sigma.shape == (spec.param_dim,)
        assert (sigma > 0).all()
        # reference: numpy over freshly drawn minibatch gradients, same stream key
        stream = RngStream(9, 0)
        from signvote.models import sample_batch

        draws = np.array([
            grad(spec, params, data, sample_batch(stream, data.n_samples, 8))
            for _ in range(400)
        ])
        np.testing.assert_allclose(sigma, draws.std(axis=0, ddof=1), rtol=1e-12)

    def test_requires_two_samples(self):
        spec, params, data = TestSignMatchEstimation.toy_problem(seed=6)
        with pytest.raises(ValueError):
            estimate_sigma(spec, params, data, 8, 1, RngStream(0))


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
