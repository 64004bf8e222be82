"""A reference for the serial event rules, checked row for row.

reference_run restates the schedule of a serial run from its rules alone:
one state per worker, the next completion found by a linear scan for the
earliest deadline (ties to the lower id), and each version checked the
moment its update makes it. It has no heap and no code of
run_simulation's event loop. It shares
with the engine only the pieces and the formulas under the schedule:
build_experiment, dynamic_batcher, sample_compute_time, learning_rate,
the objective's grad and losses, and adam_step/sgd_step. The property
tests compare every trace cell, the final parameters' bits, the total
cost and the divergence reason with run_simulation over random serial
configs, some of whose objectives diverge at a random update: short runs;
runs past the engine's first block of 64 probed versions, whose
divergence is found in a later block; and runs of 8 to 16 async-family
workers, where the engine makes versions in waves of up to ~N updates
and a rollback can name a version in the middle of a wave.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stalesim import config
from stalesim.config import (
    AdamConfig,
    ComputeTimeModel,
    ExperimentConfig,
    ObjectiveSpec,
    Strategy,
)
from stalesim.core import STREAM_WORKER_BASE, RngStream, learning_rate, sample_compute_time
from stalesim.models import Objective, dynamic_batcher
from stalesim.optim import AdamState, adam_step, sgd_step
from stalesim.simulator import TRACE_COLUMNS, build_experiment, run_simulation


class _Worker:
    """A worker's state: its stream, the (theta, version) it pulled last,
    its gradient sum since its last push with their count and cost, and
    the batch in flight with its completion deadline (None while it waits
    at a barrier)."""

    def __init__(self, wid, rng, theta):
        self.id, self.rng = wid, rng
        self.theta, self.version = theta, 0
        self.sum, self.count, self.cost = None, 0, 0
        self.batch = self.deadline = None


def reference_run(cfg, pieces):
    """(rows, final theta, total cost, initial loss, divergence reason or
    None) of cfg's serial run on the built pieces, from the event rules:

    - Worker i starts at i/N. A start takes the next batch, round-robin
      in dataset order, and one duration draw from the worker's stream:
      the batch completes at start + draw * batch cost.
    - The earliest completion comes next, ties to the lower id; a run
      stops once the update budget is met, or at the first completion
      past a nonzero sim-time budget.
    - A completion adds the batch's gradient, taken at the worker's
      pulled theta, to the worker's sum. Below L gradients the worker
      starts again at once. At L it pushes the sum (over L under mean) to
      the server, with staleness = updates since its pull; once the
      server holds G pushes it updates with their sum (over G under mean).
      The push arrives latency later, leaving a row at the version after
      any update it made.
    - In the async family the pusher pulls and starts again on arrival.
      Under a barrier it waits until the round's update, then all N start
      on arrival in id order, having pulled only when the update count is
      a multiple of U.
    - Each version, the initial one included, is checked when it is made:
      parameters, then Adam's v, then its probe loss must be finite. A
      failure ends the run with the rows before it and that version's
      parameters.
    """
    objective, dataset, probe, theta = pieces
    n = cfg.workers
    local, global_count, pull_every = cfg.strategy.effective(n)
    mean = cfg.combine == "mean"
    scale = cfg.schedule_batch_scale
    # an update's samples are L*G pushes' worth (an int product)
    base_lr = cfg.adam.alpha * scale * (local * global_count) if scale > 0 else cfg.adam.alpha
    adam = cfg.optimizer_kind == "adam"
    state = AdamState.zeros(len(theta)) if adam else None
    batches = itertools.cycle(dynamic_batcher(dataset, cfg.batch_budget))
    workers = [_Worker(i, RngStream(cfg.seed, STREAM_WORKER_BASE + i), theta) for i in range(n)]
    limit = cfg.budget_sim_time if cfg.budget_sim_time > 0 else math.inf
    rows, losses, lrs = [], [], [0.0]
    version, server_sum, server_count, total_cost = 0, None, 0, 0

    def start(w, at):
        w.batch = next(batches)
        w.deadline = at + sample_compute_time(w.rng, cfg.compute) * w.batch.total_cost

    def failure():
        """What is not finite at the current version, else None."""
        if not np.isfinite(theta).all():
            return "parameters"
        if adam and not np.isfinite(state.v).all():
            return "Adam's second moment"
        losses.append(objective.losses(theta[None], probe).tolist()[0])
        return None if math.isfinite(losses[-1]) else "probe loss"

    reason = failure()
    for w in workers:
        start(w, w.id / n)
    while reason is None and version < cfg.budget_updates:
        w = min((w for w in workers if w.deadline is not None), key=lambda w: w.deadline)
        t, w.deadline = w.deadline, None
        if t > limit:
            break
        g = objective.grad(w.theta, w.batch, w.rng)
        w.sum = g if w.count == 0 else w.sum + g
        w.count, w.cost = w.count + 1, w.cost + w.batch.total_cost
        if w.count < local:
            start(w, t)
            continue
        pushed = w.sum / local if mean else w.sum
        total_cost += w.cost
        w.count = w.cost = 0
        staleness = version - w.version
        server_sum = pushed if server_count == 0 else server_sum + pushed
        server_count += 1
        updated = server_count == global_count
        if updated:
            combined = server_sum / global_count if mean else server_sum
            server_count = 0
            version += 1
            lrs.append(learning_rate(base_lr, cfg.schedule_warmup, cfg.schedule_decay, version))
            if adam:
                state, theta = adam_step(state, cfg.adam, theta, combined, lrs[-1])
            else:
                theta = sgd_step(theta, combined, lrs[-1])
            reason = failure()
            if reason is not None:
                break
        arrived = t + cfg.comm_latency
        rows.append((version, arrived, staleness, w.id))
        if not cfg.strategy.is_barrier:
            w.theta, w.version = theta, version
            start(w, arrived)
        elif updated:
            for v in workers:
                if version % pull_every == 0:
                    v.theta, v.version = theta, version
                start(v, arrived)
    if reason is not None:
        reason = f"{reason} went non-finite at update {version}"
    cells = [
        (v, at, i + 1, stale, losses[v], lrs[v], cfg.strategy.label, wid)
        for i, (v, at, stale, wid) in enumerate(rows)
    ]
    initial_loss = losses[0] if losses else math.nan
    return cells, theta, total_cost, initial_loss, reason


class _Spiked(Objective):
    """base, except that its grad call number `at` returns the gradient
    times spike: from there a run can diverge through its parameters,
    Adam's v or its probe loss, or recover."""

    def __init__(self, base, at, spike):
        self.base, self.at, self.spike, self.calls = base, at, spike, 0
        self.dim = base.dim

    def losses(self, thetas, batch):
        return self.base.losses(thetas, batch)

    def grad(self, theta, batch, rng=None):
        self.calls += 1
        g = self.base.grad(theta, batch, rng)
        return g * self.spike if self.calls == self.at else g


_OBJECTIVES = {
    "quadratic": ObjectiveSpec(kind="quadratic", dim=3, cond=4.0, noise_sigma=1.0, samples=24),
    "linreg": ObjectiveSpec(kind="linreg", dim=3, samples=24),
    "mlp": ObjectiveSpec(kind="mlp", in_dim=2, hidden=3, classes=2, samples=16),
}


@st.composite
def _strategies(draw):
    kind = draw(st.sampled_from(sorted(config._PARAMS)))
    return Strategy(kind, **{p: draw(st.integers(1, 4)) for p in config._PARAMS[kind]})


@st.composite
def _serial_runs(draw):
    """(config, grad call to spike or 0 for theta0, or None for no spike,
    spike factor)."""
    normal = draw(st.booleans())
    cost_max = draw(st.integers(1, 3))
    cfg = ExperimentConfig(
        objective=_OBJECTIVES[draw(st.sampled_from(sorted(_OBJECTIVES)))],
        workers=draw(st.integers(1, 6)),
        strategy=draw(_strategies()),
        optimizer_kind=draw(st.sampled_from(["adam", "sgd"])),
        adam=AdamConfig(alpha=draw(st.sampled_from([0.05, 0.3]))),
        schedule_warmup=draw(st.sampled_from([0, 10])),
        schedule_decay=draw(st.sampled_from(["inverse-sqrt", "none"])),
        schedule_batch_scale=draw(st.sampled_from([0.0, 0.5])),
        compute=ComputeTimeModel("normal", 1.0, 0.3) if normal
        else ComputeTimeModel("constant", 1.0),
        comm_latency=draw(st.sampled_from([0.0, 0.05, 1.0])),
        combine=draw(st.sampled_from(["mean", "sum"])),
        batch_cost_max=cost_max,
        batch_budget=draw(st.integers(cost_max, 4)),
        budget_updates=draw(st.integers(1, 24)),
        budget_sim_time=draw(st.sampled_from([0.0, 7.5, 40.0])),
        seed=draw(st.integers(0, 3)),
        probe_samples=8,
    )
    at = draw(st.one_of(st.none(), st.integers(0, 40)))
    return cfg, at, draw(st.sampled_from([math.nan, math.inf, -1e200, 1e300]))


@settings(max_examples=120, deadline=None)
@given(_serial_runs())
# worker 1 completes at 1.5, 2.5, ... and its push at exactly the
# sim-time budget still runs: the run stops at the first completion past it
@example((ExperimentConfig(workers=2, batch_budget=1, budget_updates=24, budget_sim_time=7.5,
                           objective=_OBJECTIVES["quadratic"], probe_samples=8), None, 1.0))
# the first gradient overflows Adam's v alone; theta stays finite
@example((ExperimentConfig(workers=1, batch_budget=1, budget_updates=4,
                           objective=_OBJECTIVES["quadratic"], probe_samples=8), 1, -1e200))
# every sync round's three completions tie, and run in id order
@example((ExperimentConfig(workers=3, strategy=Strategy("sync"), batch_budget=1, budget_updates=4,
                           objective=_OBJECTIVES["linreg"], probe_samples=8), None, 1.0))
def test_serial_runs_match_the_reference_schedule_row_for_row(run):
    _check_against_reference(*run)


@st.composite
def _runs_past_the_first_probe_block(draw):
    """A _serial_runs draw that makes 65 to 160 versions, so the engine
    probes a full block of 64 mid-run, with no sim-time budget to cut it
    short; its spike, if any, lands on a gradient call past the first
    64 updates' worth (L*G calls per update in the async family, N under
    a barrier), so a divergence there is found in a later block."""
    cfg, _, spike = draw(_serial_runs())
    cfg = replace(cfg, budget_updates=draw(st.integers(65, 160)), budget_sim_time=0.0)
    local, global_count, _ = cfg.strategy.effective(cfg.workers)
    calls = cfg.workers if cfg.strategy.is_barrier else local * global_count
    at = draw(st.one_of(st.none(), st.integers(64 * calls + 1, cfg.budget_updates * calls)))
    return cfg, at, spike


# ~1 s for the 40 examples on a 2-core x86-64 host
@settings(max_examples=40, deadline=None)
@given(_runs_past_the_first_probe_block())
def test_runs_past_the_first_probe_block_match_the_reference(run):
    _check_against_reference(*run)


@st.composite
def _wide_async_runs(draw):
    """A _serial_runs draw moved to 8-16 workers in the async family, with
    65 to 160 versions and no sim-time budget: each version is first read
    about N - 1 updates after it is made, so the engine makes versions in
    waves of up to ~N rows and probes a full block of 64 mid-run. Its
    spike, if any, lands on any gradient call of the run, so a rollback
    can name a version in the middle of a wave."""
    cfg, _, spike = draw(_serial_runs())
    kind = draw(st.sampled_from(["async", "async", "local_accum", "global_accum", "combined"]))
    strategy = Strategy(kind, **{p: draw(st.integers(1, 3)) for p in config._PARAMS[kind]})
    cfg = replace(cfg, workers=draw(st.integers(8, 16)), strategy=strategy,
                  budget_updates=draw(st.integers(65, 160)), budget_sim_time=0.0)
    local, global_count, _ = strategy.effective(cfg.workers)
    calls = cfg.budget_updates * local * global_count
    return cfg, draw(st.one_of(st.none(), st.integers(1, calls))), spike


# ~2 s for the 30 examples on a 2-core x86-64 host
@settings(max_examples=30, deadline=None)
@given(_wide_async_runs())
def test_wide_async_runs_match_the_reference(run):
    _check_against_reference(*run)


def _check_against_reference(cfg, at, spike):
    objective, dataset, probe, theta0 = build_experiment(cfg)
    if at == 0:
        with np.errstate(over="ignore", invalid="ignore"):
            theta0 = theta0 * spike
    pieces = [
        (objective if at is None else _Spiked(objective, at, spike), dataset, probe, theta0)
        for _ in range(2)
    ]
    trace = run_simulation(cfg, *pieces[0])
    # divergence rides on inf and nan, as in the engine
    with np.errstate(over="ignore", invalid="ignore"):
        rows, theta, total_cost, initial_loss, reason = reference_run(cfg, pieces[1])
    got = [tuple(map(repr, r)) for r in zip(*(trace.columns[c] for c in TRACE_COLUMNS))]
    assert got == [tuple(map(repr, r)) for r in rows]
    assert (trace.divergence_reason, trace.diverged) == (reason, reason is not None)
    assert trace.final_theta.tobytes() == theta.tobytes()
    assert trace.total_cost == total_cost
    assert repr(trace.initial_loss) == repr(initial_loss)
