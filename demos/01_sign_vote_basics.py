"""Majority voting on gradient signs, coordinate by coordinate.

Workers send only the sign of their (momentum-smoothed) gradient estimate.
The server sums the votes and broadcasts the sign of the sum; an exact tie
broadcasts 0 and leaves that parameter untouched for the round.
"""

import numpy as np

from signvote import sign, sum_signs
from signvote.optimizers import (
    OptimizerConfig,
    apply_update,
    server_aggregate_signs,
    worker_message,
)

# three workers, four coordinates: the votes disagree in interesting ways
estimates = [
    np.array([0.9, -0.2, 0.05, -1.0]),
    np.array([1.1, 0.4, -0.3, -0.8]),
    np.array([0.7, -0.5, 0.25, 0.6]),
]

cfg = OptimizerConfig("signum", eta=0.1, beta=0.9)
momentum = np.zeros((len(estimates), 4))  # one zero-initialized row per worker

print("worker messages (sign of momentum buffer):")
messages = []
for m, g in enumerate(estimates):
    msg = worker_message(cfg, momentum[m], g)
    messages.append(msg)
    print(f"  worker {m}: {g} -> {msg}")

votes = sum_signs(messages)
broadcast = server_aggregate_signs(messages)
print(f"\nvote totals:      {votes}")
print(f"server broadcast: {broadcast}   (sign of the totals, ties -> 0)")

x = np.zeros(4)
x_next = apply_update(cfg, x, broadcast, step=0)
print(f"\nparameters move by exactly +/-eta per coordinate: {x_next}")

# a tied coordinate: one +1 against one -1
print("\ntie example:", server_aggregate_signs([np.array([1]), np.array([-1])]),
      "<- sign(0) is 0, the coordinate freezes for this round")

# signs are integers, so cancellation is exact, never approximate
print("exact integer cancellation:", sum_signs([[1, -1], [-1, 1]]))
print("\nsign() uses exact zero:", sign(np.array([-0.0, 0.0, 1e-300])))
