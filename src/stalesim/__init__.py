"""Deterministic parameter-server SGD simulator.

Study gradient staleness, Adam's behavior under noisy and stale gradients,
and local/global gradient accumulation on toy objectives. One entry
point, run_simulation, runs a reproducible discrete-event scheduler, or,
when the config sets parallel, plays the same event loop back against a
real clock.

The package root exports the run layer alone, from config, core, models,
optim and simulator, and importing it loads no other stalesim module.
The experiment harness (run_experiment, summarize, sweep, SummaryReport
and the selftests) is imported from stalesim.harness.
"""

from .config import (
    AdamConfig,
    ComputeTimeModel,
    ConfigError,
    ExperimentConfig,
    ObjectiveSpec,
    Strategy,
    parse_config,
    serialize_config,
)
from .core import RngStream, learning_rate, sample_compute_time
from .models import (
    Batch,
    LinearRegression,
    Mlp,
    Objective,
    Quadratic,
    dynamic_batcher,
    finite_diff_grad,
)
from .optim import (
    AdamState,
    adam_direction,
    adam_step,
    predicted_efficiency,
    sgd_step,
)
from .simulator import (
    RunTrace,
    TraceRow,
    run_simulation,
    staleness_summary,
)

__version__ = "0.1.0"

__all__ = [
    "AdamConfig",
    "AdamState",
    "Batch",
    "ComputeTimeModel",
    "ConfigError",
    "ExperimentConfig",
    "LinearRegression",
    "Mlp",
    "Objective",
    "ObjectiveSpec",
    "Quadratic",
    "RngStream",
    "RunTrace",
    "Strategy",
    "TraceRow",
    "adam_direction",
    "adam_step",
    "dynamic_batcher",
    "finite_diff_grad",
    "learning_rate",
    "parse_config",
    "predicted_efficiency",
    "run_simulation",
    "sample_compute_time",
    "serialize_config",
    "sgd_step",
    "staleness_summary",
    "__version__",
]
