"""Omniscient colluders against the majority vote.

The adversaries first observe every honest sign message, then pick their f
votes per coordinate.  When the honest margin |s| exceeds f they cannot
overturn the vote and simply oppose; when it does not, the zeroing variant
cancels the honest sum exactly and alternates whatever is left, so the
broadcast lands on 0 (killed) or flips -- but the update magnitude is still
only one eta step, so the damage per round is bounded.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from signvote import run_experiment
from signvote.adversaries import byz_collude_signs, byzantine_count
from signvote.simulation import AdversaryConfig, config_from_mapping, read_ini

print("per-coordinate strategy at f = 3 (honest sums -5..5):")
honest = np.arange(-5, 6)
for variant in ("zeroing", "alternating"):
    totals = honest + byz_collude_signs(honest, 3, variant).sum(axis=0, dtype=np.int64)
    print(f"  {variant:>11s}: honest {honest.tolist()}")
    print(f"  {'':>11s}  totals {totals.astype(int).tolist()}")
print("""
With |s| <= f, the zeroing variant always kills (0) or flips the total; the
alternating variant can leave the honest sign standing (s=2, f=3 above),
which is why the zeroing variant is the default attack in experiments.
""")

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BASE = config_from_mapping(read_ini(CONFIGS / "logistic_byzantine.cfg"))

print(f"{'strategy':>22s} {'alpha':>6s} {'f':>3s} {'final loss':>11s} {'final acc':>10s} {'zero frac':>10s}")
for strategy in ("byz-collude-zeroing", "byz-collude-alternating"):
    for alpha in (0.2, 0.4, 7 / 15):
        cfg = replace(BASE, adversary=AdversaryConfig(strategy, alpha))
        record = run_experiment(cfg)
        last = record.metrics[-1]
        print(f"{strategy:>22s} {alpha:6.3f} {byzantine_count(alpha, cfg.n_workers):3d} "
              f"{last.train_loss:11.4f} {last.eval_accuracy:10.4f} {last.zero_fraction:10.3f}")
    print()

print("Even at f = 7 of 15 the momentum sign rule keeps learning: early in the")
print("run the honest workers agree strongly, |s| > f, and the colluders are locked out.")
