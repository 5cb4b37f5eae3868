"""One Byzantine worker is enough to stop plain distributed SGD.

The attacker observes the other workers' gradients and sends their negated
sum; the server's mean is then exactly the zero vector -- bit for bit, not
approximately -- and the parameters never move.  The same adversary budget
against the majority vote is just one vote among many.
"""

from dataclasses import replace
from pathlib import Path

from signvote import run_experiment
from signvote.simulation import AdversaryConfig, config_from_mapping, read_ini

# one of 3 dist-sgd workers runs the inverse-sum attack
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BASE = config_from_mapping(read_ini(CONFIGS / "sgd_inverse_sum.cfg"))

clean = run_experiment(replace(BASE, adversary=AdversaryConfig()))
attacked = run_experiment(BASE)
sign_rule = run_experiment(
    replace(
        BASE,
        optimizer=replace(BASE.optimizer, rule="signum", eta=0.035, beta=0.9),
        adversary=replace(BASE.adversary, strategy="byz-oppose-true-sign"),
    )
)

print("dist-sgd, 3 workers, no adversary:")
print(f"  loss {clean.metrics[0].train_loss:.4f} -> {clean.metrics[-1].train_loss:.4f}")

print("\ndist-sgd, 1 of 3 workers sends the negated honest sum:")
first, last = attacked.metrics[0], attacked.metrics[-1]
print(f"  loss {first.train_loss} -> {last.train_loss}")
print(f"  identical to the last bit: {last.train_loss == first.train_loss}")
print(f"  fraction of exactly-zero aggregate coordinates: {last.zero_fraction}")

print("\nmajority-vote momentum rule, 1 of 3 workers opposing the true sign:")
print(f"  loss {sign_rule.metrics[0].train_loss:.4f} -> {sign_rule.metrics[-1].train_loss:.4f}")
print("  one bad vote cannot beat two good ones, so learning proceeds.")
