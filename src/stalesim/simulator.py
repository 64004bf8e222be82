"""Parameter-server simulation: staleness accounting and the event loop.

One state machine covers all six communication strategies. A strategy
(config.Strategy) normalizes to four numbers (local accumulation L,
server accumulation G, pull period U, barrier flag):

* async family (async, local_accum, global_accum, combined): each worker
  re-pulls parameters right after every push; the server applies one
  optimizer update per G pushed gradients.
* barrier family (sync, sync_stale): all N workers compute each round, the
  round's N gradients make one update, and workers re-pull only when the
  server's update count is a multiple of U (U=1 is plain synchronous SGD).

Staleness of a push is the number of optimizer updates applied between the
worker's parameter pull and the push, so synchronous runs record 0, async
with N equal-speed workers settles at N-1, and server-side accumulation
divides staleness by sharing one update among G pulls.

run_simulation is the one entry point and the run itself: its locals are
the run's only state, and its event loop, on the calling thread, has the
whole push step, from the worker's gradient to the push's record, as its
body. Each push step's update waits, pending, until a worker first reads
its version: the first completion that reads a pending version makes
every pending version in one wave (_wave), and a long wave's Adam
updates run as one stacked step (optim.adam_steps). With N async workers
a version is first read about N - 1 updates after it is made, so a wide
run's waves are long. The steps alone change the parameters and queue
each version for the one divergence check and its probe, which run in
blocks (_probe_block). The loop keeps the one event source, a heap of
simulated deadlines (ties to the lower worker id). A run observes each
completion popped from it at its deadline, so it is deterministic,
unless cfg.parallel is set: then it sleeps until the deadline on a real
clock scaled by parallel.time_scale and observes the time it woke, so
its timings are nondeterministic while every bookkeeping rule, and all
of the numerics, stay the same.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, get_type_hints

import numpy as np

from .core import (
    STREAM_DATASET,
    STREAM_INIT,
    STREAM_OBJECTIVE,
    STREAM_PROBE,
    STREAM_WORKER_BASE,
    RngStream,
    Vec,
    sample_compute_time,
)
from .models import (
    Batch,
    LinearRegression,
    Mlp,
    Objective,
    Quadratic,
    dynamic_batcher,
    make_blob_samples,
    make_cost_stream,
    make_linreg_samples,
)
from .optim import AdamState, adam_step, adam_steps, sgd_step

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "TraceRow",
    "RunTrace",
    "run_simulation",
    "staleness_summary",
    "build_experiment",
    "TRACE_SCHEMA",
    "TRACE_COLUMNS",
]

class TraceRow(NamedTuple):
    """One trace.csv row. Its fields, in order, are the file's columns
    (TRACE_COLUMNS) and their annotations the types RunTrace.from_csv
    reads the cells back as."""

    update_idx: int
    sim_time_s: float
    pushes: int
    staleness: int
    loss_probe: float
    lr: float
    strategy: str
    worker_id: int


TRACE_SCHEMA = "trace-v1"
TRACE_COLUMNS = TraceRow._fields
_COLUMN_TYPES = tuple(get_type_hints(TraceRow).values())
_CSV_ROW = ",".join(["%s"] * len(TRACE_COLUMNS)) + "\n"
# rows formatted per write: 1,024 wrote a 2,000-row trace only ~0.1 ms
# faster, but raised the peak RSS of a 2-thread sweep by ~1 MB
_CSV_CHUNK = 256
# the columns that hold a fact of the row's version, one object per version
# (see run_simulation): to_csv formats each run of one object in them once
_VERSION_COLUMNS = ("update_idx", "lr", "loss_probe")
_NOTHING = object()


def _str_runs(cells: list) -> list:
    """The str of each cell, computed once per run of one object. The runs
    are of identity, not of value: a value-keyed cache would write -0.0 as
    0.0 after it, and a nan never equals the one before it."""
    out, last = [], _NOTHING
    for x in cells:
        if x is not last:
            last, text = x, str(x)
        out.append(text)
    return out


class DivergenceError(RuntimeError):
    """Raised by _probe_block alone, at the earliest version whose
    parameters, Adam's second moment or probe loss is not finite, the
    initial version included. It carries that version's theta and
    total_cost, which run_simulation puts in a diverged trace that keeps
    the rows recorded before the version it names."""

    def __init__(self, message: str, theta: Vec, total_cost: int):
        super().__init__(message)
        self.theta, self.total_cost = theta, total_cost


@dataclass
class RunTrace:
    """Per-push trace of a run, kept in columns: columns maps each of
    TRACE_COLUMNS to its list of cells, one per push in push order. A push
    is recorded after it was fully processed (including any optimizer
    update it completed), and its loss_probe is the probe loss of the
    version it left. rows gives the same trace as TraceRows.
    initial_loss is the probe loss of the initial parameters (version 0),
    non-finite when that probe ended the run, and nan when the initial
    parameters are not finite, so they were never probed.
    """

    columns: dict
    n_workers: int
    strategy_label: str
    diverged: bool = False
    divergence_reason: str | None = None
    final_theta: Vec | None = None
    total_cost: int = 0
    initial_loss: float | None = None

    @property
    def rows(self) -> list[TraceRow]:
        """The trace as TraceRows, built from the columns at each call."""
        return list(map(TraceRow._make, zip(*(self.columns[c] for c in TRACE_COLUMNS))))

    @property
    def pushes(self) -> int:
        return len(self.columns["update_idx"])

    @property
    def updates(self) -> int:
        updates = self.columns["update_idx"]
        return updates[-1] if updates else 0

    @property
    def final_sim_time(self) -> float:
        times = self.columns["sim_time_s"]
        return times[-1] if times else 0.0

    @property
    def final_loss(self) -> float:
        if not self.pushes:
            raise ValueError("empty trace has no final loss")
        return self.columns["loss_probe"][-1]

    @property
    def best_loss(self) -> float:
        if not self.pushes:
            raise ValueError("empty trace has no best loss")
        return min(self.columns["loss_probe"])

    def to_csv(self, path: str) -> None:
        """Write the trace as trace.csv: header comments, the column names,
        one line per push with each cell's str (a float's str is its
        shortest round-trip repr, for NumPy floats too) and a footer.
        Rows are formatted _CSV_CHUNK at a time, the chunk's cells
        interleaved into one tuple for one repeated "%s,...,%s" row
        template (%s is str) and one write, so memory stays flat. In the
        _VERSION_COLUMNS, where the rows of one version hold the same
        object, each run of one object in a chunk is formatted once
        (_str_runs); a float's str costs far more than the identity test."""
        columns = [self.columns[c] for c in TRACE_COLUMNS]
        by_runs = [c in _VERSION_COLUMNS for c in TRACE_COLUMNS]
        k, n = len(columns), self.pushes
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# schema={TRACE_SCHEMA}\n")
            f.write(f"# workers={self.n_workers}\n")
            f.write(f"# strategy={self.strategy_label}\n")
            f.write(",".join(TRACE_COLUMNS) + "\n")
            for start in range(0, n, _CSV_CHUNK):
                rows = min(_CSV_CHUNK, n - start)
                cells = [None] * (k * rows)
                for j, column in enumerate(columns):
                    chunk = column[start : start + rows]
                    cells[j::k] = _str_runs(chunk) if by_runs[j] else chunk
                f.write(_CSV_ROW * rows % tuple(cells))
            f.write(f"# diverged={'true' if self.diverged else 'false'}\n")
            if self.divergence_reason:
                reason = self.divergence_reason.replace("\n", " ")
                f.write(f"# reason={reason}\n")

    @classmethod
    def from_csv(cls, path: str) -> "RunTrace":
        """Rebuild a trace from to_csv output, each cell read as its
        TraceRow annotation's type into its column. Fields that never go
        through the CSV (final_theta, total_cost, initial_loss) come back
        empty."""
        meta = {}
        columns = [[] for _ in TRACE_COLUMNS]
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    meta[key.strip()] = value
                    continue
                if line == ",".join(TRACE_COLUMNS) or not line:
                    continue
                c = line.split(",")
                if len(c) != len(TRACE_COLUMNS):
                    raise ValueError(f"malformed trace row: {line!r}")
                for column, t, x in zip(columns, _COLUMN_TYPES, c):
                    column.append(t(x))
        if meta.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unsupported trace schema {meta.get('schema')!r}")
        reason = meta.get("reason")
        return cls(
            columns=dict(zip(TRACE_COLUMNS, columns)),
            n_workers=int(meta.get("workers", 1)),
            strategy_label=meta.get("strategy", ""),
            diverged=meta.get("diverged") == "true",
            divergence_reason=reason,
        )


def staleness_summary(
    trace: RunTrace, warmup_pushes: int | None = None
) -> tuple[float, dict]:
    """Exact mean and integer histogram of recorded staleness values.

    The first `warmup_pushes` pushes are excluded; the default (None)
    excludes the first N pushes, which have artificially low staleness
    because the server starts at version 0. Pass 0 to keep everything.
    """
    if not trace.pushes:
        raise ValueError("empty trace")
    skip = trace.n_workers if warmup_pushes is None else warmup_pushes
    if skip < 0:
        raise ValueError("warmup_pushes must be >= 0")
    vals = trace.columns["staleness"][skip:]
    if not vals:
        raise ValueError("no staleness entries left after warmup exclusion")
    return sum(vals) / len(vals), dict(Counter(vals))


def build_experiment(
    cfg: "ExperimentConfig",
    objective: Objective | None = None,
    dataset: Batch | None = None,
    probe: Batch | None = None,
    theta0: Vec | None = None,
) -> tuple[Objective, Batch, Batch, Vec]:
    """Construct (objective, dataset, probe batch, initial parameters) from
    a config. A caller may supply the objective alone, and the other three
    pieces are built for it, or all four pieces as an earlier call returned
    them, which come back unchanged; any other partial set is a ValueError.

    Each kind of draw has its own stream, core.STREAM_*; probe samples are
    keyed on probe_seed, so probe and training data never share draws.
    """
    rest = (dataset, probe, theta0)
    if objective is not None and all(p is not None for p in rest):
        return objective, dataset, probe, theta0
    if any(p is not None for p in rest):
        raise ValueError("build_experiment takes the objective alone or all four pieces")
    spec = cfg.objective
    data_rng = RngStream(cfg.seed, STREAM_DATASET)
    if spec.kind == "quadratic":
        if objective is None:
            objective = Quadratic.random(
                spec.dim, cfg.seed, spec.cond, spec.noise_sigma, spec.theta_star_scale
            )
        dataset = Batch.cost_only(make_cost_stream(data_rng, spec.samples, cfg.batch_cost_max))
        # the quadratic's probe loss depends only on theta
        return objective, dataset, Batch.cost_only([1]), np.zeros(objective.dim)
    obj_rng = RngStream(cfg.seed, STREAM_OBJECTIVE)
    probe_rng = RngStream(cfg.probe_seed, STREAM_PROBE)
    if spec.kind == "linreg":
        theta_true = obj_rng.normal(size=spec.dim)
        if objective is None:
            objective = LinearRegression(spec.dim)
        dataset = make_linreg_samples(
            data_rng, spec.samples, theta_true, spec.target_noise, cfg.batch_cost_max
        )
        probe = make_linreg_samples(probe_rng, cfg.probe_samples, theta_true)
        return objective, dataset, probe, np.zeros(objective.dim)
    # mlp, the one kind left (ObjectiveSpec admits no other)
    centers = obj_rng.normal(0.0, 2.0, size=(spec.classes, spec.in_dim))
    if objective is None:
        objective = Mlp(spec.in_dim, spec.hidden, spec.classes)
    dataset = make_blob_samples(
        data_rng, max(1, spec.samples // spec.classes), centers, spec.spread, cfg.batch_cost_max
    )
    probe = make_blob_samples(
        probe_rng, max(1, cfg.probe_samples // spec.classes), centers, spec.spread
    )
    return objective, dataset, probe, objective.init_theta(RngStream(cfg.seed, STREAM_INIT))


# Parameter versions per stacked probe call. A small probe's cost is
# mostly numpy call overhead, which the stack shares. Per version, with
# the stacking, on a 2-core Xeon (Python 3.11, NumPy 2.4), best of 15:
# Quadratic.losses at d=20 costs 5.6 us at K=1, 0.65 us at K=16 and
# 0.56 us at K=64 (7.6, 1.1 and 1.1 us stacked by np.stack); for the 4-8-3
# MLP on 126 probe samples, 37, 16 and 22 us. Objective.loss is the K=1
# call without the stacking.
# A larger block saves little more, and a run computes up to K - 1 more
# versions, plus the rest of the wave that fills the block (see _wave),
# before it sees non-finite parameters, Adam's v or probe loss.
_PROBE_BLOCK = 64

# Waves of at least this many Adam updates run as one optim.adam_steps
# call, shorter ones as chained adam_step calls. Per row, timed around
# each call inside 4- to 16-worker async runs at d=20 on a 2-core Xeon
# (Python 3.11, NumPy 2.4): adam_step 6.9-7.5 us; adam_steps 8.5-9.2 us
# at 3 rows, 6.7-7.2 at 4, 5.8-6.1 at 5, 4.6-5.3 at 8 and 3.0 at 16.
_WAVE_STACK = 5


def _wave(pending: list, queued: list, step, steps, adam, state, theta: Vec):
    """Make every pending version in order and queue its record for
    _probe_block, then empty pending in place; returns (Adam state or
    None, the last version's parameters). A version's record is the list
    [theta, Adam's v, pushes recorded before it, total cost at it, the
    gradient and the rate of the update that makes it]: theta and v are
    None while the update is pending, and a wave fills them in. A wave of
    _WAVE_STACK or more Adam updates, all of theta's shape, is one steps
    call; any other is one step call per update, so a wrong-shape
    gradient raises step's error after the versions before it are queued.
    pending is emptied first, so a failing wave leaves none."""
    wave = pending[:]
    pending.clear()
    if state is not None and len(wave) >= _WAVE_STACK and all(
        r[4].shape == theta.shape for r in wave
    ):
        grads, lrs = np.array([r[4] for r in wave]), [r[5] for r in wave]
        state, thetas, vs = steps(state, adam, theta, grads, lrs)
        thetas.setflags(write=False)
        for r, theta, v in zip(wave, thetas, vs):
            r[0], r[1] = theta, v
        queued.extend(wave)
        return state, theta
    for r in wave:
        if state is None:
            theta, v = step(theta, r[4], r[5]), None
        else:
            state, theta = step(state, adam, theta, r[4], r[5])
            v = state.v
        theta.setflags(write=False)
        r[0], r[1] = theta, v
        queued.append(r)
    return state, theta


def _probe_block(queued: list, version_loss: list, pushed: list, losses, probe: Batch) -> None:
    """Check and probe every queued version, then empty the queue in place:
    the one place a run is found to diverge. queued holds the record of
    each version waiting for its check and probe: (theta, Adam's v or
    None, pushes recorded before it, total cost at it) first (see _wave).
    One np.isfinite pass over the block's stacked parameters and Adam v's
    finds the earliest version whose parameters or v are not finite, and
    one stacked losses call probes only the versions before it, so no
    probe sees a non-finite row. The earliest failure, a non-finite probe
    or else that version (its parameters named before its v), rolls the
    run back to its version: pushed keeps only the pushes recorded before
    it, and version_loss ends with the probed losses up to it (no kept row
    reads the failed version's, but the initial loss is version 0's); then
    it raises DivergenceError with that version's theta and total cost, as
    a check at each update would have."""
    if not queued:
        return
    block = queued[:]
    queued.clear()
    first, n = len(version_loss), len(block)  # first: block[0]'s version
    # the n parameter rows, then, under Adam, the n rows of v
    stack = np.concatenate([q[0] for q in block] + [q[1] for q in block if q[1] is not None])
    stack = stack.reshape(-1, len(block[0][0]))
    stack.setflags(write=False)
    row_ok = np.isfinite(stack).all(axis=1)
    # the earliest version whose parameters or v failed, else n
    k = n if row_ok.all() else int(row_ok.reshape(-1, n).all(axis=0).argmin())
    probed = losses(stack[:k], probe).tolist() if k else []
    # the earliest non-finite probe, else k
    j = next((i for i, loss in enumerate(probed) if not math.isfinite(loss)), k)
    version_loss.extend(probed[: j + 1])
    if j == n:
        return
    what = "probe loss" if j < k else "Adam's second moment" if row_ok[j] else "parameters"
    theta, _, pushes, total_cost = block[j][:4]
    del pushed[pushes:]
    raise DivergenceError(f"{what} went non-finite at update {first + j}", theta, total_cost)


def run_simulation(
    cfg: "ExperimentConfig",
    objective: Objective | None = None,
    dataset: Batch | None = None,
    probe: Batch | None = None,
    theta0: Vec | None = None,
) -> RunTrace:
    """Run the configured experiment: one event loop, whose body is the
    whole push step. objective, dataset, probe and theta0 go to
    build_experiment.

    The run binds once what a push step calls: the objective's grad, the
    optimizer step, the stacked Adam step (adam_steps) and
    sample_compute_time; and what a probe calls, the objective's losses
    (for an object that is not an Objective, such as a wrapper that times
    loss calls, Objective's default losses: one loss call per read-only
    row of the block). The steps and sample_compute_time are read from
    this module's globals when the run starts, so a wrapper swapped into
    those globals before a run (as perfbench/tracer.py does) sees every
    call. The run's state is its locals alone: the last made parameters
    and the total cost; the latest version's record (see _wave), the
    records of the versions pending and of those waiting for their check
    and probe, each version's rate and probe loss, and one record per
    push, (the version it left, sim time, staleness, worker id); the
    server's gradient sum and Adam's state (none for SGD); and, in lists
    by worker id, each worker's RNG stream, the (version record, version)
    it pulled last, the sum of the gradients it computed since its last
    push with their count and cost, and its batch in flight.

    The initial parameters are probed first, as version 0. Then every
    worker starts in id order, staggered at i/N seconds. A start hands the
    worker the next batch and draws its duration from the worker's stream
    (per-cost-unit sample times the batch's cost); its completion deadline
    goes on a heap of (deadline, worker id). The loop pops the earliest
    completion, ties to the lower id, and observes it at time t. Serial by
    default, t is the deadline, so the run is deterministic. With
    cfg.parallel set, the same loop is paced by a real clock on the
    calling thread, cfg.parallel_time_scale real seconds per simulated
    second, and t is the clock's reading after a sleep until the deadline:
    paced runs honour comm.latency and the i/N start stagger. A completion
    that falls due while a push step runs is observed when that step ends,
    and each wake time feeds the next deadline, so paced timings are
    nondeterministic and only statistical assertions hold; with N=1 the
    update trajectory matches the serial run exactly (timestamps aside).
    No thread is started. The loop stops once the update budget is met;
    at the first completion past cfg.budget_sim_time when that is set,
    tested on the deadline before any sleep and on t after it; or on
    divergence.

    On a completion at t, the worker's gradient at its pulled theta joins
    its sum, and below L gradients the worker starts again at t. At L it
    pushes the sum (over L under mean) to the server. The whole sum was
    computed against one pulled snapshot, since re-pulls only happen at
    push time, so the push's staleness is the number of updates since that
    pull. Once the server's sum holds G pushes, one update takes it (over
    G under mean) at the scheduled rate. The update waits, pending, for
    the first completion of a worker that pulled a version not made yet.
    That completion, or the loop's end, makes every pending version in one
    wave (_wave): it applies the optimizer steps in update order, fills in
    each new version's parameters and Adam's second moment v in its
    record, where every worker that pulled it reads them, and queues the
    record, unchecked. A wave of _WAVE_STACK or more Adam updates is one
    adam_steps call, equal to chained adam_step calls bit for bit, so no
    output depends on how the updates fall into waves. A non-finite
    gradient makes the SGD parameters or Adam's v non-finite at the update
    that applies it; so does a finite one above ~1e154, whose g*g
    overflows v and would freeze its coordinate. The push arrives
    comm_latency later and is recorded at the version after any update it
    made. In the async family the pusher re-pulls and starts again on
    arrival. A barrier strategy holds finished workers until the round's
    update lands, then starts all N on arrival in id order, re-pulled only
    when the update count is a multiple of the pull period U.

    Queued versions are checked and probed in blocks (_probe_block): once
    a wave leaves _PROBE_BLOCK or more queued, and however the loop ends,
    after a last wave of the versions still pending, so a diverged
    version among them ends the run at that version, even when a later
    exception was leaving the loop. There is one probe per version, so
    with G > 1 (and for the barrier strategies) one per G pushes. The
    earliest version whose parameters, v or probe loss is not finite rolls
    the run back to it, so the run ends as if each version had been
    checked at its update: a diverged trace keeps every row recorded
    before that version, and its final_theta and total_cost are that
    version's, which its DivergenceError alone carries. Any other
    exception, a sleep too long for the clock's range included, then
    propagates. The push records are transposed into the trace columns
    once, and each row's lr and loss_probe, facts of its version, are read
    from the version's rate and loss. initial_loss is nan when version 0
    was never probed, as its parameters were not finite.

    No array is written after it is made. A sum is rebound, not added into
    a zeroed buffer, so with L = G = 1 a chained step takes the array the
    objective returned. A pulled theta is the server's array itself: each
    version is a new read-only array (a row of a stacked step's output),
    so no snapshot changes and an objective that writes into one raises.
    Per compute cycle a stream is consumed in a fixed order (the duration
    draw at the worker's start, then gradient noise at its completion), so
    serial and paced runs walk identical sample sequences.
    """
    objective, dataset, probe, theta = build_experiment(cfg, objective, dataset, probe, theta0)
    theta = theta.copy()
    theta.setflags(write=False)
    # round-robin over the batches in dataset order; cycle keeps each batch
    # as the dataset's cut hands it over (every run on this dataset and
    # budget gets the same views) and replays them once the dataset is
    # used up
    batches = itertools.cycle(dynamic_batcher(dataset, cfg.batch_budget))
    # what a push step and a probe call, bound once (see the docstring)
    grad = objective.grad
    losses = (objective.losses if isinstance(objective, Objective)
              else functools.partial(Objective.losses, objective))
    step = adam_step if cfg.optimizer_kind == "adam" else sgd_step
    sample, compute = sample_compute_time, cfg.compute
    n, label, total_cost, version = cfg.workers, cfg.strategy.label, 0, 0
    local, global_count, pull_every = cfg.strategy.effective(n)
    # the mean combine divides by each count but 1: x/1 == x bit for bit
    mean_local = cfg.combine == "mean" and local > 1
    mean_global = cfg.combine == "mean" and global_count > 1
    rate = cfg.lr
    adam = cfg.adam
    state = AdamState.zeros(len(theta)) if cfg.optimizer_kind == "adam" else None
    # by version: the rate its update applied (0.0 for the initial
    # version) and the probe loss of each version probed so far
    version_lr, version_loss = [0.0], []
    # the versions waiting for their check and probe, version 0 first (see
    # _probe_block), and one record per push, in push order
    queued = [[theta, None if state is None else state.v, 0, 0, None, 0.0]]
    pushed: list[tuple[int, float, int, int]] = []
    probe_block = functools.partial(_probe_block, queued, version_loss, pushed, losses, probe)
    server, server_count = None, 0  # the pushes' sum since the last update
    ids = range(n)
    rngs = [RngStream(cfg.seed, STREAM_WORKER_BASE + i) for i in ids]
    # a worker pulls a version's record (see _wave), whose theta is None
    # while the update that makes it is pending
    latest = queued[0]
    pulled_record, pulled_version = [latest] * n, [0] * n
    pending = []
    wave = functools.partial(_wave, pending, queued, step, adam_steps, adam)
    sums: list[Vec | None] = [None] * n
    counts, costs = [0] * n, [0] * n
    in_flight: list[Batch | None] = [None] * n
    record, latency, barrier = pushed.append, cfg.comm_latency, cfg.strategy.is_barrier
    limit = cfg.budget_sim_time if cfg.budget_sim_time > 0 else math.inf
    budget, paced = cfg.budget_updates, cfg.parallel
    scale, t0 = cfg.parallel_time_scale, time.monotonic()
    heappop, heappush = heapq.heappop, heapq.heappush
    reason = None
    try:
        # divergence detection rides on IEEE inf/nan propagation; the
        # overflow or division by zero on the way down (Adam with epsilon 0
        # and a v that underflowed to 0) is expected, not worth a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            probe_block()  # version 0, before any worker starts
            try:
                heap = []
                for w in ids:
                    batch = in_flight[w] = next(batches)
                    heappush(heap, (w / n + sample(rngs[w], compute) * batch.total_cost, w))
                while version < budget:
                    t, w = heappop(heap)
                    if t > limit:
                        break
                    if paced:
                        time.sleep(max(0.0, t * scale - (time.monotonic() - t0)))
                        t = (time.monotonic() - t0) / scale
                        if t > limit:
                            break
                    batch, rng = in_flight[w], rngs[w]
                    at_theta = pulled_record[w][0]
                    if at_theta is None:  # a version no worker has read yet: make them all
                        state, theta = wave(state, theta)
                        at_theta = pulled_record[w][0]
                        if len(queued) >= _PROBE_BLOCK:
                            probe_block()
                    g = grad(at_theta, batch, rng)
                    # Starting a sum at its first term, not at +0.0, changes
                    # only the sign of exact-zero entries (-0.0 + -0.0 is
                    # -0.0, +0.0 + -0.0 is +0.0). Such an entry reaches theta
                    # only as theta - (+-0) (Adam's v squares it, and m
                    # divides it by a positive number), which equals theta
                    # unless theta is -0.0. theta starts as zeros or normal
                    # draws, and theta - x is -0.0 only when theta already
                    # is: no bit changes.
                    k = counts[w]
                    s = g if k == 0 else sums[w] + g
                    cost = costs[w] + batch.total_cost
                    if k + 1 < local:  # not a push: start again at once
                        sums[w], counts[w], costs[w], at = s, k + 1, cost, t
                    else:
                        counts[w] = costs[w] = 0
                        total_cost += cost
                        if mean_local:
                            s = s / local
                        server = s if server_count == 0 else server + s
                        server_count += 1
                        staleness = version - pulled_version[w]
                        if server_count == global_count:
                            server_count, version = 0, version + 1
                            lr = rate(version)
                            version_lr.append(lr)
                            g = server / global_count if mean_global else server
                            latest = [None, None, len(pushed), total_cost, g, lr]
                            pending.append(latest)
                        at = t + latency
                        record((version, at, staleness, w))
                        if barrier:  # wait for the round's update, which starts all N
                            if server_count == 0:
                                if version % pull_every == 0:
                                    pulled_record, pulled_version = [latest] * n, [version] * n
                                for i in ids:  # next round, batch grab in id order
                                    batch = in_flight[i] = next(batches)
                                    heappush(heap, (at + sample(rngs[i], compute)
                                                    * batch.total_cost, i))
                            continue
                        pulled_record[w], pulled_version[w] = latest, version
                    batch = in_flight[w] = next(batches)
                    heappush(heap, (at + sample(rng, compute) * batch.total_cost, w))
            finally:
                try:  # the versions still pending, then their check and probe
                    if pending:
                        state, theta = wave(state, theta)
                finally:
                    probe_block()
    except DivergenceError as e:
        reason, theta, total_cost = str(e), e.theta, e.total_cost
    pushes = len(pushed)
    update_idx, sim_time_s, staleness, worker_id = (
        map(list, zip(*pushed)) if pushes else ([] for _ in range(4))
    )
    columns = {
        "update_idx": update_idx,
        "sim_time_s": sim_time_s,
        "pushes": list(range(1, pushes + 1)),
        "staleness": staleness,
        "loss_probe": list(map(version_loss.__getitem__, update_idx)),
        "lr": list(map(version_lr.__getitem__, update_idx)),
        "strategy": [label] * pushes,
        "worker_id": worker_id,
    }
    return RunTrace(
        columns=columns,
        n_workers=cfg.workers,
        strategy_label=label,
        diverged=reason is not None,
        divergence_reason=reason,
        final_theta=theta.copy(),
        total_cost=total_cost,
        initial_loss=version_loss[0] if version_loss else math.nan,
    )
