"""Deterministic parameter-server SGD simulator.

Study gradient staleness, Adam's behavior under noisy and stale gradients,
and local/global gradient accumulation on toy objectives. One entry
point, run_simulation, runs a reproducible discrete-event scheduler, or,
when the config sets parallel, plays the same event loop back against a
real clock.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    ObjectiveSpec,
    parse_config,
    serialize_config,
)
from .core import ComputeTimeModel, RngStream, learning_rate, sample_compute_time
from .harness import (
    SummaryReport,
    run_experiment,
    selftest_adam_table,
    selftest_gradients,
    selftest_staleness_table,
    summarize,
    sweep,
)
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
    AdamConfig,
    AdamState,
    GradStreamStats,
    adam_direction,
    adam_step,
    predicted_efficiency,
    sgd_step,
)
from .simulator import (
    DivergenceError,
    RunTrace,
    Strategy,
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
    "DivergenceError",
    "ExperimentConfig",
    "GradStreamStats",
    "LinearRegression",
    "Mlp",
    "Objective",
    "ObjectiveSpec",
    "Quadratic",
    "RngStream",
    "RunTrace",
    "Strategy",
    "SummaryReport",
    "TraceRow",
    "adam_direction",
    "adam_step",
    "dynamic_batcher",
    "finite_diff_grad",
    "learning_rate",
    "parse_config",
    "predicted_efficiency",
    "run_experiment",
    "run_simulation",
    "sample_compute_time",
    "selftest_adam_table",
    "selftest_gradients",
    "selftest_staleness_table",
    "serialize_config",
    "sgd_step",
    "staleness_summary",
    "summarize",
    "sweep",
    "__version__",
]
