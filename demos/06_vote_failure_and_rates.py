"""From one worker's sign accuracy to the whole vote's failure probability.

Model: each of the (1-alpha)M healthy workers delivers the true sign of a
coordinate independently with probability p, and every adversarial worker
opposes it.  The vote fails when at most M/2 of the received bits are
correct, so the failure probability is a binomial tail -- computed exactly
here and compared against the closed-form Cantelli chain used inside the
convergence analysis.
"""

import numpy as np

from signvote.optimizers import prescribed_hyperparams
from signvote.theory import (
    BoundInputs,
    DEFAULT_VOTE_WORKERS,
    rate_bound_blind,
    rate_bound_byzantine,
    vote_failure_cantelli,
    vote_failure_exact,
)

print("exact binomial tail vs closed-form bound (p = 0.9):")
print(f"{'M':>5s} {'alpha':>6s} {'exact':>12s} {'cantelli':>10s}")
for n_workers in DEFAULT_VOTE_WORKERS:
    for alpha in (0.0, 0.2, 0.3):
        exact = vote_failure_exact(n_workers, alpha, 0.9)
        bound = vote_failure_cantelli(n_workers, alpha, 0.9)
        print(f"{n_workers:5d} {alpha:6.1f} {exact:12.3e} {bound:10.4f}")
print("""
The bound is loose but analysis-friendly: it scales as 1/sqrt(M) and blows
up at the admissibility edge alpha = 1 - 1/(2p), past which the healthy
majority is expected to lose.  With p = 1 both sides are exactly zero.
""")

eta, batch = prescribed_hyperparams(f0=2.0, fstar=0.0, smoothness_l1=4.0, n_rounds=400)
print(f"prescribed hyperparameters for a 400-round run: eta = {eta:.4f}, batch = {batch}")

p = 0.9
inputs = BoundInputs(
    sigma=np.full(20, 0.5), smoothness=np.full(20, 0.2),
    f0=2.0, fstar=0.0, n_workers=15, alpha=0.2, n_rounds=400,
)
print(f"\nrate bound, blind adversaries (alpha = {inputs.alpha}):     "
      f"{rate_bound_blind(inputs):.4f}")
print(f"rate bound, omniscient adversaries (p = {p}): "
      f"{rate_bound_byzantine(inputs, p):.4f}")

edge = 1 - 1 / (2 * p)
print(f"\nadmissible adversarial fraction for p = {p}: alpha < {edge:.3f}")
for alpha in (0.0, 0.2, 0.35, 0.43):
    bumped = BoundInputs(
        sigma=inputs.sigma, smoothness=inputs.smoothness, f0=2.0, fstar=0.0,
        n_workers=15, alpha=alpha, n_rounds=400,
    )
    print(f"  alpha = {alpha:4.2f}: bound = {rate_bound_byzantine(bumped, p):9.4f}")
print("the adversary term has a pole at the edge; doubling the round count")
print("halves the whole bound (the total gradient-call budget is rounds squared).")
