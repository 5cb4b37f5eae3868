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

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_vector, l1_norm, sign
from .models import Dataset, ModelSpec, full_batch, grad, sample_batch

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
    "write_bound_report_csv",
]

NOISE_FAMILIES = ("gaussian", "laplace", "shifted-bernoulli")

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
    smoothness constants; their l1 norms enter the bounds.  ``p`` is the
    per-worker probability that a stochastic gradient coordinate carries the
    true sign.  ``snr`` optionally records the signal-to-noise ratio used in
    coordinate-level checks; the rate formulas do not consume it.
    """

    sigma: np.ndarray
    smoothness: np.ndarray
    f0: float
    fstar: float
    p: float
    n_workers: int
    alpha: float
    n_rounds: int
    snr: float | None = None

    def __post_init__(self):
        sigma = as_vector(self.sigma, "sigma")
        smoothness = as_vector(self.smoothness, "smoothness")
        if (sigma < 0).any():
            raise ValueError("sigma entries must be >= 0")
        if (smoothness < 0).any():
            raise ValueError("smoothness entries must be >= 0")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "smoothness", smoothness)
        if self.f0 < self.fstar:
            raise ValueError("f0 must be >= fstar")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.n_workers < 1 or self.n_rounds < 1:
            raise ValueError("n_workers and n_rounds must be >= 1")

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
    if snr < 0:
        raise ValueError("snr must be >= 0")
    if snr > SYMMETRIC_BREAKPOINT:
        return (2.0 / 9.0) / (snr * snr)
    return 0.5 - snr / (2.0 * math.sqrt(3.0))


def sign_error_bound_chebyshev(snr: float) -> float:
    """Variance-only sign-error bound 1/(2 S^2).

    Needs no shape assumption on the noise.  Not capped: below S = 1 the
    value exceeds 1/2 and the bound is vacuous.
    """
    if snr <= 0:
        raise ValueError("snr must be > 0 (the ratio is undefined at zero signal)")
    return 1.0 / (2.0 * snr * snr)


def mc_sign_error(noise: NoiseModel, samples: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo sign-error rate of a noisy estimate, with binomial std error.

    Counts draws whose sign differs from the sign of the mean (a draw of
    exactly zero counts as an error, consistent with sign(0) = 0).
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful rate")
    if noise.mean == 0:
        raise ValueError("sign-error rate is undefined for zero mean")
    draws = noise.sample(samples, rng)
    target = 1 if noise.mean > 0 else -1
    estimate = float(np.mean(np.sign(draws) != target))
    std_error = math.sqrt(estimate * (1.0 - estimate) / samples)
    return estimate, std_error


# -- vote-failure probability ----------------------------------------------------


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P(Binomial(n, p) <= k) via log-space summation (stable past n = 1e4)."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    log_factorial = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    ks = np.arange(0, k + 1)
    log_pmf = (
        log_factorial[n]
        - log_factorial[ks]
        - log_factorial[n - ks]
        + ks * math.log(p)
        + (n - ks) * math.log1p(-p)
    )
    top = float(log_pmf.max())
    log_total = top + math.log(float(np.exp(log_pmf - top).sum()))
    return min(1.0, math.exp(log_total))


def _check_vote_args(n_workers: int, alpha: float, p: float) -> None:
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")


def vote_failure_exact(n_workers: int, alpha: float, p: float) -> float:
    """Exact tail P(correct healthy votes <= M/2) under the binomial model.

    The healthy vote count is Binomial((1-alpha) M, p); (1-alpha) M is rounded
    to the nearest integer and the threshold M/2 is inclusive.  Against
    adversaries that oppose the true sign outright, this upper-bounds the
    probability that the majority vote misses the true sign in a round.
    """
    _check_vote_args(n_workers, alpha, p)
    healthy = int(np.floor((1.0 - alpha) * n_workers + 0.5))
    return _binomial_cdf(n_workers // 2, healthy, p)


def vote_failure_cantelli(n_workers: int, alpha: float, p: float) -> float:
    """Closed-form Cantelli-chain bound on the vote-failure tail.

    (1/2) sqrt(p (1-p) (1-alpha)) / ((p (1-alpha) - 1/2) sqrt(M)), valid only
    when the expected healthy-correct fraction clears one half.
    """
    _check_vote_args(n_workers, alpha, p)
    margin = p * (1.0 - alpha) - 0.5
    if margin <= 0:
        raise ValueError(
            f"requires p (1 - alpha) > 1/2, i.e. alpha < 1 - 1/(2p): "
            f"got p={p:g}, alpha={alpha:g}"
        )
    return 0.5 * math.sqrt(p * (1.0 - p) * (1.0 - alpha)) / (margin * math.sqrt(n_workers))


# -- convergence-rate formulas ----------------------------------------------------


def rate_bound_blind(inputs: BoundInputs) -> float:
    """Rate bound for a fraction alpha < 1/2 of sign-inverting blind workers.

    4/sqrt(N) [ 1/(1-2 alpha) |sigma|_1 / sqrt(M) + sqrt(|L|_1 (f0 - fstar)) ]^2
    with N = K^2.
    """
    if inputs.alpha >= 0.5:
        raise ValueError("blind-adversary rate bound requires alpha < 1/2")
    noise_term = l1_norm(inputs.sigma) / ((1.0 - 2.0 * inputs.alpha) * math.sqrt(inputs.n_workers))
    curvature_term = math.sqrt(l1_norm(inputs.smoothness) * (inputs.f0 - inputs.fstar))
    return 4.0 / math.sqrt(inputs.total_gradient_calls) * (noise_term + curvature_term) ** 2


def rate_bound_byzantine(inputs: BoundInputs) -> float:
    """Rate bound for arbitrary (omniscient, colluding) adversaries.

    4/sqrt(N) [ 1/(2 sqrt(2)) 1/(p(1-alpha) - 1/2) |sigma|_1 / sqrt(M)
                + sqrt(|L|_1 (f0 - fstar)) ]^2
    valid for alpha < 1 - 1/(2p); the noise term has a pole at that edge.
    """
    margin = inputs.p * (1.0 - inputs.alpha) - 0.5
    if margin <= 0:
        raise ValueError(
            f"requires alpha < 1 - 1/(2p): got p={inputs.p:g}, alpha={inputs.alpha:g}"
        )
    noise_term = (
        l1_norm(inputs.sigma) / (2.0 * math.sqrt(2.0) * margin * math.sqrt(inputs.n_workers))
    )
    curvature_term = math.sqrt(l1_norm(inputs.smoothness) * (inputs.f0 - inputs.fstar))
    return 4.0 / math.sqrt(inputs.total_gradient_calls) * (noise_term + curvature_term) ** 2


# -- empirical estimation of p and sigma ------------------------------------------


def sign_match_rate_mc(sample_grad, true_grad, samples: int,
                       floor: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate rate at which sampled gradients carry the true sign.

    ``sample_grad`` is a zero-argument callable returning one stochastic
    gradient.  Coordinates with |true gradient| <= floor are masked out (the
    target sign is ill-defined there).  Returns (rates, mask).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    g = as_vector(true_grad, "true gradient")
    mask = np.abs(g) > floor
    if not mask.any():
        raise ValueError(f"every coordinate of the true gradient is below the floor {floor:g}")
    target = sign(g)
    matches = np.zeros(g.size, dtype=np.int64)
    for _ in range(samples):
        matches += sign(np.asarray(sample_grad(), dtype=np.float64)) == target
    return matches / samples, mask


def estimate_sign_match_profile(spec: ModelSpec, params, data: Dataset, batch_size: int,
                                samples: int, rng: RngStream,
                                floor: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate sign-match rates of minibatch gradients vs the full gradient.

    Requesting ``batch_size == data.n_samples`` disables resampling and uses
    the exact full batch, so every rate is 1 by construction.
    """
    params = as_vector(params, "params")
    true_grad = grad(spec, params, data, full_batch(data))
    if batch_size == data.n_samples:
        def draw():
            return true_grad
    else:
        def draw():
            return grad(spec, params, data, sample_batch(rng, data.n_samples, batch_size))
    return sign_match_rate_mc(draw, true_grad, samples, floor=floor)


def estimate_sign_match_prob(spec: ModelSpec, params, data: Dataset, batch_size: int,
                             samples: int, rng: RngStream, floor: float = 1e-8) -> float:
    """Scalar p: the profile of :func:`estimate_sign_match_profile` averaged
    over the coordinates above the gradient floor."""
    rates, mask = estimate_sign_match_profile(
        spec, params, data, batch_size, samples, rng, floor=floor
    )
    return float(rates[mask].mean())


def estimate_sigma(spec: ModelSpec, params, data: Dataset, batch_size: int,
                   samples: int, rng: RngStream) -> np.ndarray:
    """Per-coordinate std of minibatch gradients (unbiased sample variance).

    A thousand or more minibatches keep the l1 norm stable enough for the
    rate formulas.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for an unbiased variance")
    params = as_vector(params, "params")
    draws = np.empty((samples, spec.param_dim))
    for i in range(samples):
        draws[i] = grad(spec, params, data, sample_batch(rng, data.n_samples, batch_size))
    return draws.std(axis=0, ddof=1)


# -- bound-verification report -----------------------------------------------------

DEFAULT_SNR_GRID = (0.25, 0.5, 1.0, SYMMETRIC_BREAKPOINT, 2.0, 4.0)
DEFAULT_VOTE_WORKERS = (11, 51, 101, 501)
DEFAULT_VOTE_P = (0.6, 0.75, 0.9, 0.99)
DEFAULT_VOTE_ALPHA = (0.0, 0.1, 0.2, 0.3)

REPORT_HEADER = ("check", "point", "value", "bound", "tolerance", "margin", "status")


def bound_report(snr_grid=DEFAULT_SNR_GRID, families=NOISE_FAMILIES,
                 mc_samples: int = 100_000, vote_workers=DEFAULT_VOTE_WORKERS,
                 vote_p=DEFAULT_VOTE_P, vote_alpha=DEFAULT_VOTE_ALPHA,
                 seed: int = 0) -> list[dict]:
    """Evaluate every configured grid point against its bound.

    Monte Carlo rows pass when the observed rate is within three standard
    errors above the bound; exact rows pass outright.  Points outside a
    bound's validity region are reported with status ``inadmissible`` and do
    not count as failures.
    """
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
            for check, bound in checks:
                margin = bound + tolerance - observed
                rows.append({
                    "check": check,
                    "point": f"family={family} S={snr:g} samples={mc_samples}",
                    "value": observed,
                    "bound": bound,
                    "tolerance": tolerance,
                    "margin": margin,
                    "status": "pass" if margin >= 0 else "fail",
                })
    for n_workers in vote_workers:
        for p in vote_p:
            for alpha in vote_alpha:
                point = f"M={n_workers} p={p:g} alpha={alpha:g}"
                if p * (1.0 - alpha) <= 0.5:
                    rows.append({
                        "check": "vote-failure-cantelli", "point": point,
                        "value": float("nan"), "bound": float("nan"),
                        "tolerance": 0.0, "margin": float("nan"),
                        "status": "inadmissible",
                    })
                    continue
                exact = vote_failure_exact(n_workers, alpha, p)
                bound = vote_failure_cantelli(n_workers, alpha, p)
                margin = bound - exact
                rows.append({
                    "check": "vote-failure-cantelli", "point": point,
                    "value": exact, "bound": bound, "tolerance": 0.0,
                    "margin": margin,
                    "status": "pass" if margin >= 0 else "fail",
                })
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


def write_bound_report_csv(rows, path) -> None:
    lines = [",".join(REPORT_HEADER)]
    for row in rows:
        lines.append(",".join([
            row["check"],
            row["point"].replace(",", ";"),
            repr(float(row["value"])),
            repr(float(row["bound"])),
            repr(float(row["tolerance"])),
            repr(float(row["margin"])),
            row["status"],
        ]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
