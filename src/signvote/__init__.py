"""Sign-based distributed gradient descent with majority vote under adversarial workers.

The library has three layers:

* primitives and models: ``core``, ``models``
* the distributed optimizer, attack strategies and the round engine:
  ``optimizers``, ``adversaries``, ``simulation``
* closed-form failure-probability bounds and their numerical verification:
  ``theory``
"""

from . import adversaries, core, models, optimizers, simulation, theory
from .core import RngStream, sign, sum_signs
from .models import Dataset, ModelSpec, generate_synthetic, load_idx
from .optimizers import OptimizerConfig
from .simulation import (
    AdversaryConfig,
    ExperimentConfig,
    IdxData,
    RunRecord,
    SyntheticData,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryConfig",
    "Dataset",
    "ExperimentConfig",
    "IdxData",
    "ModelSpec",
    "OptimizerConfig",
    "RngStream",
    "RunRecord",
    "SyntheticData",
    "adversaries",
    "core",
    "generate_synthetic",
    "load_idx",
    "models",
    "optimizers",
    "run_experiment",
    "sign",
    "simulation",
    "sum_signs",
    "theory",
]
