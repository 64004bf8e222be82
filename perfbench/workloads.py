"""Workload inputs for the stalesim benchmark.

Only the standard library is used here, so the set-up probe can read a
workload's config before it imports stalesim. Every input is a pure
function of the benchmark seed. NOTES.md says why each workload exists.
"""

from __future__ import annotations

_NOISY_COMPUTE = """\
compute.kind = normal
compute.mean = 1.0
compute.std = 0.2
batch.cost_max = 4
optimizer.alpha = 0.01
"""

# Run workloads: the `stalesim run` steps on one config.
RUN_CONFIGS = {
    # cheap objective: engine bookkeeping and the Adam step set the speed;
    # G=1, so every probe sees a new parameter version
    "quad-async": """\
objective.kind = quadratic
objective.dim = 20
objective.noise_sigma = 2.0
workers = 16
strategy = async
batch.budget = 8
budget.updates = 2000
""",
    # the models layer dominates; 3 of every 4 probes repeat a version
    "mlp-gaccum": """\
objective.kind = mlp
objective.in_dim = 4
objective.hidden = 8
objective.classes = 3
workers = 4
strategy = global_accum-4
probe.samples = 128
batch.budget = 32
budget.updates = 250
""",
}

# Sweep workload: `stalesim sweep --jobs 2` over strategies x seeds, short
# points, each building a 4096-sample dataset and writing its files. One
# seed per run keeps a run short, so a measuring window holds more runs.
SWEEP_CONFIG = """\
objective.kind = linreg
objective.dim = 20
objective.samples = 4096
objective.target_noise = 0.1
workers = 4
batch.budget = 8
budget.updates = 100
""" + _NOISY_COMPUTE
SWEEP_STRATEGIES = ("sync", "sync_stale-4", "async", "global_accum-4")
SWEEP_SEEDS_PER_RUN = 1
SWEEP_JOBS = 2

NAMES = ("quad-async", "mlp-gaccum", "sweep-linreg")


def sweep_seeds(seed: int) -> list[int]:
    return [SWEEP_SEEDS_PER_RUN * seed + i for i in range(SWEEP_SEEDS_PER_RUN)]


def config_text(name: str, seed: int) -> str:
    """The workload's config; for the sweep, its base config at the
    first grid seed (what one sweep point parses and builds)."""
    if name == "sweep-linreg":
        return SWEEP_CONFIG + f"seed = {sweep_seeds(seed)[0]}\n"
    return RUN_CONFIGS[name] + _NOISY_COMPUTE + f"seed = {seed}\n"
