"""Estimating the per-worker sign accuracy p on a real objective.

The convergence guarantee for omniscient adversaries depends on p, the
probability that a worker's minibatch gradient coordinate carries the true
full-batch sign.  p is not a universal constant -- it depends on the data,
the current parameters, and the batch size -- so here we measure it by
Monte Carlo, watch it grow with the batch size, and plug it into the rate
bound together with an empirical noise-scale estimate.
"""

from pathlib import Path

import numpy as np

from signvote.core import RngStream
from signvote.models import full_batch, loss
from signvote.simulation import config_from_mapping, load_data, read_ini
from signvote.theory import (
    BoundInputs,
    estimate_sigma,
    estimate_sign_match_prob,
    estimate_sign_match_profile,
    rate_bound_byzantine,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
cfg = config_from_mapping(read_ini(CONFIGS / "logistic_blind.cfg"))
spec, data = cfg.model, load_data(cfg)
params = 0.1 * RngStream(8005, 1).generator.standard_normal(spec.param_dim)

print("p vs batch size (400 Monte Carlo minibatches each):")
for batch_size in (2, 8, 32, 128, 512, data.n_samples):
    p = estimate_sign_match_prob(spec, params, data, batch_size, 400, RngStream(8005, 2))
    note = "  (exact full batch: resampling disabled)" if batch_size == data.n_samples else ""
    print(f"  n = {batch_size:4d}: p = {p:.3f}{note}")

rates, mask = estimate_sign_match_profile(spec, params, data, 32, 400, RngStream(8005, 3))
print(f"\nper-coordinate spread at n = 32: min {rates[mask].min():.3f}, "
      f"median {np.median(rates[mask]):.3f}, max {rates[mask].max():.3f} "
      f"({int(mask.sum())}/{mask.size} coordinates above the gradient floor)")

sigma = estimate_sigma(spec, params, data, 32, 1000, RngStream(8005, 4))
p32 = estimate_sign_match_prob(spec, params, data, 32, 400, RngStream(8005, 5))
f0 = loss(spec, params, data, full_batch(data))
inputs = BoundInputs(
    sigma=sigma, smoothness=np.full(spec.param_dim, 0.25),
    f0=f0, fstar=0.0, n_workers=15, alpha=0.2, n_rounds=300,
)
print(f"\nempirical |sigma|_1 = {sigma.sum():.3f}, p = {p32:.3f}, f0 = {f0:.4f}")
print(f"rate bound with 20% omniscient adversaries: {rate_bound_byzantine(inputs, p32):.4f}")
print(f"admissibility edge for this p: alpha < {1 - 1 / (2 * p32):.3f}")
