"""Parameter-server simulation: strategies, staleness accounting, event loop.

One state machine covers all six communication strategies. A strategy
normalizes to four numbers (local accumulation L, server accumulation G,
pull period U, barrier flag):

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

One object, _Run, holds a run's whole state, and only model state: the
server's parameters, gradient sum, optimizer state, the versions waiting
for their probe, each version's rate and loss and one record per push,
and each worker's stream, pulled snapshot, gradient sum and batch in
flight, in lists by worker id. Its push method is the whole push step,
from the worker's gradient to the push's record; its update method alone
changes the parameters, and queues each version for a probe that runs in
blocks (probe_queued).

run_simulation is the one entry point. It runs one event loop,
_Run.execute, on the calling thread; the loop keeps the one event source, a
heap of simulated deadlines (ties to the lower worker id). A run observes
each completion popped from it at its deadline, so it is deterministic,
unless cfg.parallel is set: then it sleeps until the deadline on a real
clock scaled by parallel.time_scale and observes the time it woke, so its
timings are nondeterministic while every bookkeeping rule, and all of the
numerics, stay the same.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, fields
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
    all_finite,
    learning_rate,
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
from .optim import AdamState, adam_step, sgd_step

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "Strategy",
    "TraceRow",
    "RunTrace",
    "DivergenceError",
    "run_simulation",
    "staleness_summary",
    "build_experiment",
    "TRACE_SCHEMA",
    "TRACE_COLUMNS",
]

# The Strategy fields each kind takes, in label order; a kind fixes every
# other field at 1.
_PARAMS = {
    "sync": (),
    "sync_stale": ("pull_every",),
    "async": (),
    "local_accum": ("local",),
    "global_accum": ("global_count",),
    "combined": ("local", "global_count"),
}


@dataclass(frozen=True)
class Strategy:
    """Communication strategy, built by the constructor, e.g.
    Strategy("global_accum", global_count=4), or from its label by parse.

    _PARAMS is the one record of which parameters each kind takes: the
    constructor's checks, label and parse all read it. The constructor
    insists that parameters a kind does not take stay at 1, so equal
    strategies compare equal. A label is the kind followed by its
    parameters in table order, joined by "-", e.g. "sync_stale-7" or
    "combined-2-3" (local, then global). Check messages name each field by
    its config key (strategy.global for global_count).

    Degenerate parameter choices collapse onto each other by construction:
    local_accum-1, global_accum-1 and combined-1-1 all run exactly the
    async schedule, and sync_stale-1 runs exactly sync. They stay distinct
    values here (the trace records what was configured); the simulation
    engine sees only the normalized numbers.
    """

    kind: str
    local: int = 1
    global_count: int = 1
    pull_every: int = 1

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise ValueError(
                f"strategy.kind must be one of {', '.join(_PARAMS)}, got {self.kind!r}"
            )
        keys = [(f.name, "strategy." + f.name.removesuffix("_count")) for f in fields(self)[1:]]
        for name, key in keys:
            if getattr(self, name) < 1:
                raise ValueError(f"{key} must be >= 1")
        for name, key in keys:
            if name not in _PARAMS[self.kind] and getattr(self, name) != 1:
                raise ValueError(f"strategy {self.kind!r} does not take {key}")

    @property
    def is_barrier(self) -> bool:
        return self.kind in ("sync", "sync_stale")

    def effective(self, n_workers: int) -> tuple[int, int, int]:
        """(L, G, U) as the engine runs them; barrier strategies aggregate
        all N workers per update."""
        if self.is_barrier:
            return 1, n_workers, self.pull_every
        return self.local, self.global_count, 1

    @property
    def label(self) -> str:
        params = (str(getattr(self, n)) for n in _PARAMS[self.kind])
        return "-".join([self.kind, *params])

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        """Inverse of .label, e.g. "async", "sync_stale-7", "combined-2-2"."""
        kind, *args = text.strip().split("-")
        try:
            nums = [int(a) for a in args]
        except ValueError:
            raise ValueError(f"bad strategy parameters in {text!r}") from None
        names = _PARAMS.get(kind)
        if names is None or len(nums) != len(names):
            raise ValueError(f"cannot parse strategy {text!r}")
        try:
            return cls(kind, **dict(zip(names, nums)))
        except ValueError as e:
            raise ValueError(f"invalid strategy {text!r}: {e}") from None


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


class DivergenceError(RuntimeError):
    """Raised by _Run when the parameters, Adam's second moment or the
    probe loss, the initial one included, stop being finite. _Run.execute
    converts it into a diverged trace that keeps the rows recorded before
    the version it names."""


@dataclass
class RunTrace:
    """Per-push trace of a run, kept in columns: columns maps each of
    TRACE_COLUMNS to its list of cells, one per push in push order. A push
    is recorded after it was fully processed (including any optimizer
    update it completed), and its loss_probe is the probe loss of the
    version it left. rows gives the same trace as TraceRows.
    initial_loss is the probe loss of the initial parameters (version 0),
    non-finite when that probe ended the run.
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
        template (%s is str) and one write, so memory stays flat."""
        columns = [self.columns[c] for c in TRACE_COLUMNS]
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
                    cells[j::k] = column[start : start + rows]
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
# mostly numpy call overhead, which the stack shares. Per version, with the
# np.stack, on a 2-core Xeon (Python 3.11, NumPy 2.4), best of 7:
# Quadratic.losses at d=20 costs 7.7 us at K=1, 1.1 us at K=16 and
# 0.7-1.0 us at K=64; for the 4-8-3 MLP on 126 probe samples, 38-43, 18-19
# and 17-24 us. Objective.loss is the K=1 call without the np.stack.
# A larger block saves little more, and a run computes up to K - 1 more
# versions before it sees a non-finite probe.
_PROBE_BLOCK = 64


class _Run:
    """One run's whole state, its push step and its event loop.

    Server side: the parameters, their version (the count of optimizer
    updates applied), the sum of the gradients pushed since the last
    update, Adam's state (none for SGD), the versions waiting for their
    probe, each version's rate and probe loss, and one record per push.
    Worker side, in lists indexed by worker id: the RNG stream, the
    (theta, version) pulled last, the sum of the gradients computed since
    the last push with their count and cost, and the batch in flight.

    _Run builds the pieces (build_experiment), computes the base learning
    rate once and queues the initial parameters as version 0, which execute
    probes on their own before any worker starts. From then on only update
    changes theta: it applies the optimizer step at the scheduled rate,
    checks the new parameters and Adam's second moment v for finiteness,
    and queues the new version for its probe. A non-finite gradient makes
    the SGD parameters or Adam's v non-finite at the update that applies
    it; so does a finite one above ~1e154, whose g*g overflows v and would
    freeze its coordinate.

    Queued versions are probed in blocks, one objective.losses call on
    their stack (see probe_queued): every _PROBE_BLOCK versions, at the
    end of the run and before any exception leaves execute. A push
    appends one record, (the version it left, sim time, staleness, worker
    id); execute transposes the records into the trace columns once and
    fills each row's lr and loss_probe, facts of its version, from
    version_lr and version_loss. There is one probe per version, so with
    G > 1 (and for the barrier strategies) one per G pushes. A probe that
    goes non-finite at version v rolls the run back to v, so the run ends
    as if it had been seen at once: the earliest divergence wins, and at
    one version the parameter and Adam checks come before the probe.

    No array is written after it is made. A sum is rebound, not added into
    a zeroed buffer, so with L = G = 1 the optimizer steps with the array
    the objective returned. A pulled theta is the server's array itself:
    each update binds theta to a new read-only array, so no snapshot
    changes and an objective that writes into one raises. Per compute
    cycle a stream is consumed in a fixed order (duration draw in start,
    then gradient noise in push), so serial and paced runs walk identical
    sample sequences.
    """

    def __init__(self, cfg: "ExperimentConfig", pieces: tuple):
        self.objective, dataset, self.probe, theta0 = build_experiment(cfg, *pieces)
        self.local, self.global_count, self.pull_every = cfg.strategy.effective(
            cfg.workers
        )
        self.cfg = cfg
        self.label = cfg.strategy.label  # written into every row
        # the mean combine divides by each count but 1: x/1 == x bit for bit
        mean = cfg.combine == "mean"
        self.mean_local = mean and self.local > 1
        self.mean_global = mean and self.global_count > 1
        # one update aggregates L*G pushes' worth of samples; scale 0 keeps alpha
        lg, scale = self.local * self.global_count, cfg.schedule_batch_scale
        self.base_lr = cfg.adam.alpha * scale * lg if scale > 0 else cfg.adam.alpha
        self.theta = theta0.copy()
        self.theta.setflags(write=False)
        self.version = 0
        self.zero = np.zeros_like(self.theta)  # for all_finite
        self.accum, self.accum_count = None, 0
        # None runs plain SGD, which keeps no state
        self.adam = cfg.adam if cfg.optimizer_kind == "adam" else None
        self.adam_state = None if self.adam is None else AdamState.zeros(len(theta0))
        self.total_cost = 0
        # by version: the rate its update applied (0.0 for the initial
        # version) and the probe loss of each version probed so far
        self.version_lr = [0.0]
        self.version_loss: list[float] = []
        # per version waiting for its probe: (theta, pushes recorded
        # before it, total_cost at it); version 0 is the initial theta
        self.queued: list[tuple[Vec, int, int]] = [(self.theta, 0, 0)]
        # one record per push, in push order:
        # (version it left, sim time, staleness, worker id)
        self.pushed: list[tuple[int, float, int, int]] = []
        n = cfg.workers
        self.ids = range(n)
        self.rngs = [RngStream(cfg.seed, STREAM_WORKER_BASE + i) for i in self.ids]
        self.pulled_theta = [self.theta] * n
        self.pulled_version = [0] * n
        self.sums: list[Vec | None] = [None] * n
        self.sum_count = [0] * n
        self.sum_cost = [0] * n
        self.in_flight: list[Batch | None] = [None] * n
        # round-robin over the batches in dataset order; cycle keeps each
        # batch as it is cut and replays them once the dataset is used up
        self.batches = itertools.cycle(dynamic_batcher(dataset, cfg.batch_budget))

    def start(self, w: int) -> float:
        """Hand worker w the next batch; returns its compute duration in
        simulated seconds (per-cost-unit sample times the batch's cost)."""
        batch = self.in_flight[w] = next(self.batches)
        return sample_compute_time(self.rngs[w], self.cfg.compute) * batch.total_cost

    def probe_queued(self) -> None:
        """Probe every queued version in one stacked losses call and empty
        the queue. When one is not finite, the earliest of them, v, rolls
        the run back to it: the push records keep only the pushes recorded
        before v, theta becomes theta_v and total_cost its value at v, and
        the losses kept end with v's own (no kept row reads it, but the
        initial loss is version 0's); then it raises DivergenceError, as an
        immediate probe would have.

        An objective that is not an Objective, such as a wrapper that times
        or counts loss calls, is probed by Objective's default losses on the
        queued arrays themselves: one loss call per version, on the same
        read-only theta an immediate probe would have passed."""
        if not self.queued:
            return
        queued, self.queued = self.queued, []
        first = len(self.version_loss)  # the version of queued[0]
        thetas = [theta for theta, _, _ in queued]
        if isinstance(self.objective, Objective):
            stack = np.stack(thetas)
            stack.setflags(write=False)
            losses = self.objective.losses(stack, self.probe).tolist()
        else:
            losses = Objective.losses(self.objective, thetas, self.probe).tolist()
        if all(map(math.isfinite, losses)):
            self.version_loss += losses
            return
        k = next(k for k, loss in enumerate(losses) if not math.isfinite(loss))
        self.version_loss += losses[: k + 1]
        self.theta, pushes, self.total_cost = queued[k]
        del self.pushed[pushes:]
        raise DivergenceError(f"probe loss went non-finite at update {first + k}")

    def update(self, g: Vec) -> None:
        """Apply one optimizer step with the combined gradient g, making the
        next version, and queue it for its probe, probing the queue once it
        holds _PROBE_BLOCK versions. Raises DivergenceError when the new
        parameters or Adam's v, or a probed loss, is not finite."""
        cfg = self.cfg
        lr = learning_rate(self.base_lr, cfg.schedule_warmup, cfg.schedule_decay, self.version + 1)
        self.version_lr.append(lr)
        if self.adam is None:
            self.theta = sgd_step(self.theta, g, lr)
        else:
            self.adam_state, self.theta = adam_step(self.adam_state, self.adam, self.theta, g, lr)
        self.theta.setflags(write=False)
        self.version += 1
        if not all_finite(self.theta, self.zero):
            raise DivergenceError(f"parameters went non-finite at update {self.version}")
        if self.adam is not None and not all_finite(self.adam_state.v, self.zero):
            raise DivergenceError(
                f"Adam's second moment went non-finite at update {self.version}"
            )
        self.queued.append((self.theta, len(self.pushed), self.total_cost))
        if len(self.queued) == _PROBE_BLOCK:
            self.probe_queued()

    def push(self, w: int, t: float) -> tuple[float, list[int] | range]:
        """Finish worker w's batch at time t, push once its sum holds L
        gradients and update once the server's sum holds G pushes. Returns
        (start, workers): the workers that start their next batch, at
        simulated time `start`. Raises DivergenceError on non-finite values.

        The whole local sum was computed against one pulled snapshot, since
        re-pulls only happen at push time, so the push's staleness is the
        number of updates since that pull. In the async family the pusher
        re-pulls and goes on. A barrier strategy holds finished workers
        until the round's update lands, then restarts all N together,
        re-pulling only when the update count is a multiple of the pull
        period.
        """
        cfg = self.cfg
        batch = self.in_flight[w]
        g = self.objective.grad(self.pulled_theta[w], batch, self.rngs[w])
        # Starting a sum at its first term, not at +0.0, changes only the
        # sign of exact-zero entries (-0.0 + -0.0 is -0.0, +0.0 + -0.0 is
        # +0.0). Such an entry reaches theta only as theta - (+-0) (Adam's v
        # squares it, and m divides it by a positive number), which equals
        # theta unless theta is -0.0. theta starts as zeros or normal draws,
        # and theta - x is -0.0 only when theta already is: no bit changes.
        n = self.sum_count[w]
        s = self.sums[w] = g if n == 0 else self.sums[w] + g
        self.sum_count[w] = n + 1
        self.sum_cost[w] += batch.total_cost
        if n + 1 < self.local:
            return t, [w]
        self.total_cost += self.sum_cost[w]
        self.sum_count[w] = self.sum_cost[w] = 0
        x = s / self.local if self.mean_local else s
        self.accum = x if self.accum_count == 0 else self.accum + x
        self.accum_count = (self.accum_count + 1) % self.global_count
        staleness = self.version - self.pulled_version[w]
        updated = self.accum_count == 0
        if updated:
            self.update(self.accum / self.global_count if self.mean_global else self.accum)
        self.pushed.append((self.version, t + cfg.comm_latency, staleness, w))
        if not cfg.strategy.is_barrier:
            self.pulled_theta[w], self.pulled_version[w] = self.theta, self.version
            nxt = [w]
        elif not updated:
            return t, []  # wait at the barrier for the round to finish
        else:
            if self.version % self.pull_every == 0:
                self.pulled_theta = [self.theta] * cfg.workers
                self.pulled_version = [self.version] * cfg.workers
            nxt = self.ids  # next round, batch grab in id order
        return t + cfg.comm_latency, nxt

    def execute(self) -> RunTrace:
        """The one event loop; run_simulation says how a paced run differs.

        The initial parameters are probed first, as version 0. Then every
        worker starts in id order, staggered at i/N seconds, and its
        completion deadline (start plus its sampled duration) goes on a
        heap of (deadline, worker id). The loop pops the earliest
        completion, ties to the lower id, and observes it at time t: the
        deadline, or with cfg.parallel the paced clock's reading after a
        sleep until it. It takes the push step (see push) on that worker at
        t and puts the completions of the workers it names on the heap. It
        stops once the update budget is met; at the first completion past
        cfg.budget_sim_time when that is set, tested on the deadline before
        any sleep and on t after it; or on divergence: a DivergenceError
        ends the run with a diverged trace that keeps every row recorded
        before it. However the loop ends, the versions still queued are
        probed first, so a non-finite probe among them ends the run at its
        version, even when a later exception was leaving the loop. Any
        other exception, a sleep too long for the clock's range included,
        then propagates.
        """
        cfg = self.cfg
        limit = cfg.budget_sim_time if cfg.budget_sim_time > 0 else math.inf
        scale, t0 = cfg.parallel_time_scale, time.monotonic()
        reason = None
        try:
            # divergence detection rides on IEEE inf/nan propagation; the
            # overflow on the way down is expected, not worth a warning
            with np.errstate(over="ignore", invalid="ignore"):
                self.probe_queued()  # version 0, before any worker starts
                try:
                    heap = [(w / cfg.workers + self.start(w), w) for w in self.ids]
                    heapq.heapify(heap)
                    while self.version < cfg.budget_updates:
                        t, w = heapq.heappop(heap)
                        if t > limit:
                            break
                        if cfg.parallel:
                            time.sleep(max(0.0, t * scale - (time.monotonic() - t0)))
                            t = (time.monotonic() - t0) / scale
                            if t > limit:
                                break
                        start, nxt = self.push(w, t)
                        for w in nxt:
                            heapq.heappush(heap, (start + self.start(w), w))
                finally:
                    self.probe_queued()
        except DivergenceError as e:
            reason = str(e)
        pushes = len(self.pushed)
        update_idx, sim_time_s, staleness, worker_id = (
            map(list, zip(*self.pushed)) if pushes else ([] for _ in range(4))
        )
        columns = {
            "update_idx": update_idx,
            "sim_time_s": sim_time_s,
            "pushes": list(range(1, pushes + 1)),
            "staleness": staleness,
            "loss_probe": list(map(self.version_loss.__getitem__, update_idx)),
            "lr": list(map(self.version_lr.__getitem__, update_idx)),
            "strategy": [self.label] * pushes,
            "worker_id": worker_id,
        }
        return RunTrace(
            columns=columns,
            n_workers=cfg.workers,
            strategy_label=self.label,
            diverged=reason is not None,
            divergence_reason=reason,
            final_theta=self.theta.copy(),
            total_cost=self.total_cost,
            initial_loss=self.version_loss[0],
        )


def run_simulation(
    cfg: "ExperimentConfig",
    objective: Objective | None = None,
    dataset: Batch | None = None,
    probe: Batch | None = None,
    theta0: Vec | None = None,
) -> RunTrace:
    """Run the configured experiment (see _Run.execute for the loop).

    Serial by default: every completion is observed at its deadline, so the
    loop takes them in simulated-time order, ties to the lower worker id,
    and the run is deterministic. With cfg.parallel set, the same loop is
    paced by a real clock on the calling thread, cfg.parallel_time_scale
    real seconds per simulated second: each completion is observed when a
    sleep until its deadline ends, so paced runs honour comm.latency and
    the i/N start stagger and take completions in deadline order. A
    completion that falls due while a push step runs is observed when that
    step ends, and each wake time feeds the next deadline, so paced timings
    are nondeterministic and only statistical assertions hold; with N=1
    the update trajectory matches the serial run exactly (timestamps
    aside). No thread is started. objective, dataset, probe and theta0 go
    to build_experiment.
    """
    return _Run(cfg, (objective, dataset, probe, theta0)).execute()
