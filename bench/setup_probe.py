"""Cold start of one workload, timed inside a fresh interpreter.

    python3 bench/setup_probe.py CONFIG [SECTION.KEY=VALUE ...]

Imports the signvote CLI, parses the run config with its overrides and
builds the configured dataset (synthetic generation or IDX parse): what a
user pays before round 1.  Prints one JSON line with ``setup_s`` (first
statement to built dataset) and ``load_data_s`` (the dataset build alone).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import signvote.cli  # noqa: E402,F401  -- what the `signvote` console script imports
from signvote.simulation import load_data  # noqa: E402

from inputs import read_config  # noqa: E402

cfg = read_config(sys.argv[1], sys.argv[2:])
t_parsed = time.perf_counter()
data = load_data(cfg)
t_done = time.perf_counter()
print(json.dumps({"setup_s": t_done - T0, "load_data_s": t_done - t_parsed}))
