"""Closed-form failure bounds and the numerical oracles that check them.

Three layers of guarantees are evaluated here, each paired with an
independent numerical route:

* per-coordinate sign-error bounds in the signal-to-noise ratio S = |g|/sigma
  (one assuming unimodal symmetric noise, one variance-only), checked by
  Monte Carlo over concrete noise families;
* the per-round vote-failure probability: the exact binomial tail for the
  number of correct healthy votes versus the closed-form Cantelli chain;
* the end-to-end convergence-rate expressions for blind and omniscient
  adversaries, evaluated as formulas.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .adversaries import byzantine_count
from .core import RngStream, as_int, as_vector, check_finite, sign
from .models import Dataset, ModelSpec, full_batch, grad, sample_batches

__all__ = [
    "BoundInputs",
    "NOISE_FAMILIES",
    "NoiseModel",
    "bound_report",
    "estimate_sigma",
    "estimate_sign_match_prob",
    "estimate_sign_match_profile",
    "mc_sign_error",
    "rate_bound_blind",
    "rate_bound_byzantine",
    "sign_error_bound_chebyshev",
    "sign_error_bound_symmetric",
    "sign_match_rate_mc",
    "summarize_report",
    "vote_failure_cantelli",
    "vote_failure_exact",
]

NOISE_FAMILIES = ("gaussian", "laplace", "shifted-bernoulli")

# most batch indices or Monte Carlo draws held at once: the oracles draw in
# blocks of this size, so their working set does not grow with the sample count
DRAW_BLOCK = 1 << 14

# low-atom mass of the shifted-bernoulli family: 0.6 on the short side, 0.4 on
# the long side.  Asymmetric two-point noise violates the unimodal-symmetric
# assumption outright, yet with the heavy atom below the mean the variance-only
# sign-error bound still holds for every S (mass 0.6 <= 1/(2 S^2) whenever the
# low atom can cross zero), so it stresses exactly one of the two bounds.
BERNOULLI_SUCCESS = 0.4


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the convergence-rate formulas.

    ``sigma`` and ``smoothness`` are the per-coordinate noise scales and
    smoothness constants; their l1 norms enter the bounds.  All inputs are finite.
    """

    sigma: np.ndarray
    smoothness: np.ndarray
    f0: float
    fstar: float
    n_workers: int
    alpha: float
    n_rounds: int

    def __post_init__(self):
        for name in ("sigma", "smoothness"):
            values = as_vector(getattr(self, name), name)
            if not (np.isfinite(values) & (values >= 0)).all():
                raise ValueError(f"{name} entries must be finite and >= 0")
            object.__setattr__(self, name, values)
        for name in ("f0", "fstar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.f0 < self.fstar:
            raise ValueError("f0 must be >= fstar")
        _check_workers(self.n_workers, self.alpha)
        if as_int(self.n_rounds) < 1:
            raise ValueError("n_rounds must be >= 1")

    @property
    def total_gradient_calls(self) -> int:
        """N = K**2 stochastic gradient calls per worker (batch size = round count)."""
        return self.n_rounds**2


@dataclass(frozen=True)
class NoiseModel:
    """A gradient-coordinate noise distribution with given mean and std.

    gaussian and laplace are unimodal and symmetric about the mean;
    shifted-bernoulli is an asymmetric two-point distribution (the stress
    case for the variance-only bound).
    """

    family: str
    mean: float
    sigma: float

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {NOISE_FAMILIES}")
        if not (math.isfinite(self.mean) and math.isfinite(self.sigma)):
            raise ValueError(f"mean and sigma must be finite, got mean={self.mean!r}, "
                             f"sigma={self.sigma!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        gen = rng.generator
        if self.family == "gaussian":
            return gen.normal(self.mean, self.sigma, size=n)
        if self.family == "laplace":
            # laplace scale b gives variance 2 b^2
            return gen.laplace(self.mean, self.sigma / math.sqrt(2.0), size=n)
        q = BERNOULLI_SUCCESS
        hi = self.mean + self.sigma * math.sqrt((1.0 - q) / q)
        lo = self.mean - self.sigma * math.sqrt(q / (1.0 - q))
        return np.where(gen.random(n) < q, hi, lo)


# -- per-coordinate sign-error bounds -------------------------------------------

SYMMETRIC_BREAKPOINT = 2.0 / math.sqrt(3.0)


def sign_error_bound_symmetric(snr: float) -> float:
    """Sign-error bound for unimodal noise symmetric about the mean.

    Piecewise in S = |g|/sigma: (2/9)/S^2 above the breakpoint 2/sqrt(3),
    1/2 - S/(2 sqrt(3)) below it; both branches meet at 1/6 and the value
    never exceeds 1/2.
    """
    if not snr >= 0:  # NaN fails too
        raise ValueError(f"snr must be >= 0, got {snr!r}")
    if snr > SYMMETRIC_BREAKPOINT:
        return (2.0 / 9.0) / (snr * snr)
    return 0.5 - snr / (2.0 * math.sqrt(3.0))


def sign_error_bound_chebyshev(snr: float) -> float:
    """Variance-only sign-error bound 1/(2 S^2).

    Needs no shape assumption on the noise.  Not capped: below S = 1 the
    value exceeds 1/2 and the bound is vacuous (inf where 2 S^2 underflows).
    """
    if not snr > 0:  # NaN fails too
        raise ValueError(f"snr must be > 0 (the ratio is undefined at zero signal), got {snr!r}")
    denominator = 2.0 * snr * snr
    return 1.0 / denominator if denominator else math.inf


def mc_sign_error(noise: NoiseModel, samples: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo sign-error rate of a noisy estimate, with binomial std error.

    Counts draws whose sign differs from the sign of the mean (a draw of
    exactly zero counts as an error, consistent with sign(0) = 0).  The draws
    come in blocks of at most :data:`DRAW_BLOCK`; successive draws continue
    the stream, so the rate equals that of one ``samples``-long draw.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful rate")
    if noise.mean == 0:
        raise ValueError("sign-error rate is undefined for zero mean")
    target = 1 if noise.mean > 0 else -1
    misses = 0
    for start in range(0, samples, DRAW_BLOCK):
        draws = noise.sample(min(DRAW_BLOCK, samples - start), rng)
        misses += int(np.count_nonzero(np.sign(draws) != target))
    estimate = misses / samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return estimate, std_error


# -- vote-failure probability ----------------------------------------------------


@functools.lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only table of log(i!) for i = 0 .. n, built once per n."""
    table = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    table.flags.writeable = False
    return table


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P(Binomial(n, p) <= k), k >= 0 and 0 < p <= 1, by log-space summation (stable past 1e4)."""
    if k >= n:
        return 1.0
    if p >= 1.0:
        return 0.0
    log_factorial = _log_factorials(n)
    ks = np.arange(0, k + 1)
    log_pmf = (log_factorial[n] - log_factorial[ks] - log_factorial[n - ks]
               + ks * math.log(p) + (n - ks) * math.log1p(-p))
    top = float(log_pmf.max())
    log_total = top + math.log(float(np.exp(log_pmf - top).sum()))
    return min(1.0, math.exp(log_total))


def _check_workers(n_workers: int, alpha: float) -> None:
    if as_int(n_workers) < 1:
        raise ValueError("n_workers must be >= 1")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")


def _check_vote_args(n_workers: int, alpha: float, p: float) -> None:
    _check_workers(n_workers, alpha)
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")


def _premise_margin(n_workers: int, alpha: float, p: float) -> float:
    """p (1 - alpha) - 1/2 of checked vote arguments; ValueError unless it is positive."""
    _check_vote_args(n_workers, alpha, p)
    margin = p * (1.0 - alpha) - 0.5
    if margin <= 0:
        raise ValueError(f"requires p (1 - alpha) > 1/2, i.e. alpha < 1 - 1/(2p): "
                         f"got p={p:g}, alpha={alpha:g}")
    return margin


def vote_failure_exact(n_workers: int, alpha: float, p: float) -> float:
    """Exact tail P(correct healthy votes <= M/2) under the binomial model.

    The healthy vote count is Binomial(M - f, p) with the simulator's
    f = byzantine_count(alpha, M), and the threshold M/2 is inclusive.
    Against adversaries that oppose the true sign outright, this upper-bounds
    the probability that the majority vote misses the true sign in a round.
    """
    _check_vote_args(n_workers, alpha, p)
    healthy = n_workers - byzantine_count(alpha, n_workers)
    return _binomial_cdf(n_workers // 2, healthy, p)


def vote_failure_cantelli(n_workers: int, alpha: float, p: float) -> float:
    """Closed-form Cantelli-chain bound on the vote-failure tail.

    (1/2) sqrt(p (1-p) (1-alpha)) / ((p (1-alpha) - 1/2) sqrt(M)), valid only
    when the expected healthy-correct fraction clears one half.
    """
    margin = _premise_margin(n_workers, alpha, p)
    return 0.5 * math.sqrt(p * (1.0 - p) * (1.0 - alpha)) / (margin * math.sqrt(n_workers))


# -- convergence-rate formulas ----------------------------------------------------


def _rate_bound(inputs: BoundInputs, noise_scale: float) -> float:
    """4/sqrt(N) [ |sigma|_1 / (noise_scale sqrt(M)) + sqrt(|L|_1 (f0 - fstar)) ]^2, N = K^2."""
    noise_term = float(inputs.sigma.sum()) / (noise_scale * math.sqrt(inputs.n_workers))
    curvature_term = math.sqrt(float(inputs.smoothness.sum()) * (inputs.f0 - inputs.fstar))
    return 4.0 / math.sqrt(inputs.total_gradient_calls) * (noise_term + curvature_term) ** 2


def rate_bound_blind(inputs: BoundInputs) -> float:
    """Rate bound for a fraction alpha < 1/2 of sign-inverting blind workers.

    4/sqrt(N) [ 1/(1-2 alpha) |sigma|_1 / sqrt(M) + sqrt(|L|_1 (f0 - fstar)) ]^2
    with N = K^2.
    """
    if inputs.alpha >= 0.5:
        raise ValueError("blind-adversary rate bound requires alpha < 1/2")
    return _rate_bound(inputs, 1.0 - 2.0 * inputs.alpha)


def rate_bound_byzantine(inputs: BoundInputs, p: float) -> float:
    """Rate bound for arbitrary (omniscient, colluding) adversaries.

    4/sqrt(N) [ 1/(2 sqrt(2)) 1/(p(1-alpha) - 1/2) |sigma|_1 / sqrt(M)
                + sqrt(|L|_1 (f0 - fstar)) ]^2
    where ``p`` is the per-worker probability that a stochastic gradient
    coordinate carries the true sign.  Valid for alpha < 1 - 1/(2p); the
    noise term has a pole at that edge.
    """
    margin = _premise_margin(inputs.n_workers, inputs.alpha, p)
    return _rate_bound(inputs, 2.0 * math.sqrt(2.0) * margin)


# -- empirical estimation of p and sigma ------------------------------------------

# |true gradient| at or below this masks a coordinate out of the sign-match rates
GRADIENT_FLOOR = 1e-8


def sign_match_rate_mc(draws, true_grad) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate rate at which sampled gradients carry the true sign.

    ``draws`` is a non-empty (samples, d) block with one sampled gradient per
    row, such as minibatch gradients, momentum buffers or one worker's shard.
    Coordinates with |true gradient| <= :data:`GRADIENT_FLOOR` are masked out
    (the target sign is ill-defined there).  The block is checked for
    finiteness and counted in one pass.  Returns (rates, mask).
    """
    g = as_vector(true_grad, "true gradient")
    check_finite(g, "true gradient")
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] != g.size or len(draws) == 0:
        raise ValueError(f"sampled gradients must be a non-empty (samples, {g.size}) block, "
                         f"got shape {draws.shape}")
    mask = np.abs(g) > GRADIENT_FLOOR
    if not mask.any():
        raise ValueError("every coordinate of the true gradient is below the floor "
                         f"{GRADIENT_FLOOR:g}")
    if not np.isfinite(draws).all():
        i = int(np.argmin(np.isfinite(draws).all(axis=1)))
        check_finite(draws[i], f"sampled gradient {i}")
    matches = (np.sign(draws) == sign(g)).sum(axis=0, dtype=np.int64)
    return matches / len(draws), mask


def _sampled_grads(spec: ModelSpec, params, data: Dataset, batch_size: int, samples: int,
                   rng: RngStream) -> np.ndarray:
    """(samples, d) block of minibatch gradients, one per row.

    The batches are drawn by successive ``sample_batches`` calls of at most
    :data:`DRAW_BLOCK` indices each (at least one batch), which continue the
    stream, so row i equals the i-th of ``samples`` successive
    ``sample_batch`` draws.  The first call checks ``batch_size`` and
    ``samples`` before the first gradient.
    """
    params = as_vector(params, "params")
    rows = max(1, DRAW_BLOCK // max(1, batch_size))
    batches = sample_batches(rng, data.n_samples, batch_size, min(rows, samples))
    draws = np.empty((samples, spec.param_dim))
    for start in range(0, samples, rows):
        if start:
            batches = sample_batches(rng, data.n_samples, batch_size, min(rows, samples - start))
        for i, batch in enumerate(batches, start):
            draws[i] = grad(spec, params, data, batch)
    return draws


def estimate_sign_match_profile(spec: ModelSpec, params, data: Dataset, batch_size: int,
                                samples: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate sign-match rates of minibatch gradients vs the full gradient.

    Requesting ``batch_size == data.n_samples`` disables resampling: the
    exact full gradient is the one-row block, so every rate is 1 by
    construction.  Otherwise ``batch_size`` and ``samples`` are checked
    before any gradient, and the batches are drawn in blocks of at most
    :data:`DRAW_BLOCK` indices.
    """
    full = batch_size == data.n_samples
    if full and as_int(samples) < 1:  # the sampled path's sample_batches checks its count
        raise ValueError("samples must be >= 1")
    draws = None if full else _sampled_grads(spec, params, data, batch_size, samples, rng)
    true_grad = grad(spec, params, data, full_batch(data))
    return sign_match_rate_mc(true_grad[None] if full else draws, true_grad)


def estimate_sign_match_prob(spec: ModelSpec, params, data: Dataset, batch_size: int,
                             samples: int, rng: RngStream) -> float:
    """Scalar p: the profile of :func:`estimate_sign_match_profile` averaged
    over the coordinates above the gradient floor."""
    rates, mask = estimate_sign_match_profile(spec, params, data, batch_size, samples, rng)
    return float(rates[mask].mean())


def estimate_sigma(spec: ModelSpec, params, data: Dataset, batch_size: int,
                   samples: int, rng: RngStream) -> np.ndarray:
    """Per-coordinate std of minibatch gradients (unbiased sample variance).

    A thousand or more minibatches keep the l1 norm stable enough for the
    rate formulas.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for an unbiased variance")
    return _sampled_grads(spec, params, data, batch_size, samples, rng).std(axis=0, ddof=1)


# -- bound-verification report -----------------------------------------------------

DEFAULT_SNR_GRID = (0.25, 0.5, 1.0, SYMMETRIC_BREAKPOINT, 2.0, 4.0)
DEFAULT_VOTE_WORKERS = (11, 51, 101, 501)
DEFAULT_VOTE_P = (0.6, 0.75, 0.9, 0.99)
DEFAULT_VOTE_ALPHA = (0.0, 0.1, 0.2, 0.3)

REPORT_HEADER = ("check", "point", "value", "bound", "tolerance", "margin", "status")


def _row(check: str, point: str, value: float, bound: float, tolerance: float = 0.0,
         status: str | None = None) -> dict:
    """One report row, keyed by REPORT_HEADER; without an explicit ``status``
    it passes when the margin ``bound + tolerance - value`` is >= 0."""
    margin = bound + tolerance - value
    if status is None:
        status = "pass" if margin >= 0 else "fail"
    return dict(zip(REPORT_HEADER, (check, point, value, bound, tolerance, margin, status)))


def bound_report(snr_grid=DEFAULT_SNR_GRID, families=NOISE_FAMILIES,
                 mc_samples: int = 100_000, vote_workers=DEFAULT_VOTE_WORKERS,
                 vote_p=DEFAULT_VOTE_P, vote_alpha=DEFAULT_VOTE_ALPHA,
                 seed: int = 0) -> list[dict]:
    """Evaluate every configured grid point against its bound.

    Monte Carlo rows pass when the observed rate is within three standard
    errors above the bound; exact rows pass outright.  Points outside a
    bound's validity region are reported with status ``inadmissible`` and do
    not count as failures.  A vote point outside ``workers >= 1``,
    ``0 <= alpha < 1`` and ``0 < p <= 1`` raises ValueError before any work.
    """
    vote_grid = list(itertools.product(vote_workers, vote_p, vote_alpha))
    for n_workers, p, alpha in vote_grid:
        _check_vote_args(n_workers, alpha, p)
    rows = []
    stream_id = 0
    for family in families:
        for snr in snr_grid:
            stream_id += 1
            noise = NoiseModel(family, mean=float(snr), sigma=1.0)
            observed, std_error = mc_sign_error(noise, mc_samples, RngStream(seed, stream_id))
            tolerance = 3.0 * std_error
            checks = [("sign-error-chebyshev",
                       min(1.0, sign_error_bound_chebyshev(snr)))]
            if family in ("gaussian", "laplace"):
                checks.append(("sign-error-symmetric", sign_error_bound_symmetric(snr)))
            point = f"family={family} S={snr:g} samples={mc_samples}"
            rows += [_row(check, point, observed, bound, tolerance) for check, bound in checks]
    for n_workers, p, alpha in vote_grid:
        point = f"M={n_workers} p={p:g} alpha={alpha:g}"
        try:
            bound = vote_failure_cantelli(n_workers, alpha, p)
        except ValueError:  # the arguments are checked above, so only the premise raises
            rows.append(_row("vote-failure-cantelli", point, math.nan, math.nan,
                             status="inadmissible"))
        else:
            rows.append(_row("vote-failure-cantelli", point,
                             vote_failure_exact(n_workers, alpha, p), bound))
    return rows


def summarize_report(rows) -> dict:
    statuses = [row["status"] for row in rows]
    summary = {
        "total": len(rows),
        "passed": statuses.count("pass"),
        "failed": statuses.count("fail"),
        "inadmissible": statuses.count("inadmissible"),
    }
    summary["all_pass"] = summary["failed"] == 0
    summary["violations"] = [row["point"] for row in rows if row["status"] == "fail"]
    return summary

