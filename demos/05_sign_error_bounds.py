"""How often does a noisy gradient coordinate carry the wrong sign?

Two closed-form bounds in the signal-to-noise ratio S = |g|/sigma:

* a piecewise bound that assumes the noise is unimodal and symmetric about
  its mean (tight: both branches meet at 1/6);
* a variance-only bound 1/(2 S^2) that assumes nothing about the shape.

Monte Carlo rates for three noise families show the gap.  The asymmetric
two-point family deliberately violates the shape assumption: at small S it
smashes through the piecewise bound (60% of its mass sits on the wrong side
of zero) while the variance-only bound, capped at 1, still holds.
"""

from signvote.core import RngStream
from signvote.theory import (
    DEFAULT_SNR_GRID,
    NOISE_FAMILIES,
    NoiseModel,
    SYMMETRIC_BREAKPOINT,
    mc_sign_error,
    sign_error_bound_chebyshev,
    sign_error_bound_symmetric,
)

SAMPLES = 200_000

print(f"{'family':>18s} {'S':>6s} {'observed':>9s} {'symmetric':>10s} {'var-only':>9s}")
stream_id = 0
for family in NOISE_FAMILIES:
    for snr in DEFAULT_SNR_GRID:
        stream_id += 1
        noise = NoiseModel(family, mean=snr, sigma=1.0)
        observed, _ = mc_sign_error(noise, SAMPLES, RngStream(8005, stream_id))
        symmetric = sign_error_bound_symmetric(snr)
        chebyshev = min(1.0, sign_error_bound_chebyshev(snr))
        flag = "  <- breaks the shape-assuming bound" if observed > symmetric else ""
        print(f"{family:>18s} {snr:6.3f} {observed:9.4f} {symmetric:10.4f} {chebyshev:9.4f}{flag}")
    print()

print(f"both branches of the piecewise bound meet at S = 2/sqrt(3) "
      f"~ {SYMMETRIC_BREAKPOINT:.4f}: {sign_error_bound_symmetric(SYMMETRIC_BREAKPOINT):.6f}")
