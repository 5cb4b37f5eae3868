"""One Byzantine worker is enough to stop plain distributed SGD.

The attacker observes the other workers' gradients and sends their negated
sum; the server's mean is then exactly the zero vector -- bit for bit, not
approximately -- and the parameters never move.  The same adversary budget
against the majority vote is just one vote among many.
"""

from dataclasses import replace

from signvote import run_experiment
from signvote.models import ModelSpec
from signvote.optimizers import OptimizerConfig
from signvote.simulation import AdversaryConfig, ExperimentConfig, SyntheticData

BASE = ExperimentConfig(
    model=ModelSpec("logistic-regression", 20, num_classes=2),
    data=SyntheticData(n_samples=2000),
    optimizer=OptimizerConfig("dist-sgd", eta=0.35, batch_size=16),
    n_workers=3,
    n_rounds=300,
    seed=8005,
)

clean = run_experiment(BASE)
attacked = run_experiment(
    replace(BASE, adversary=AdversaryConfig("byz-inverse-sum", 1 / 3))
)
sign_rule = run_experiment(
    replace(
        BASE,
        optimizer=OptimizerConfig("signum", eta=0.035, beta=0.9, batch_size=16),
        adversary=AdversaryConfig("byz-oppose-true-sign", 1 / 3),
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
