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

run_simulation is a deterministic discrete-event loop over worker
completion times (ties broken by lower worker id). run_parallel takes the
same push step on the same worker/server objects with real threads and
real sleeps, so its timings and interleavings are genuinely
nondeterministic while every bookkeeping rule stays the same.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    ComputeTimeModel,
    LrSchedule,
    RngStream,
    Vec,
    sample_compute_time,
    vec_is_finite,
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
from .optim import AdamConfig, AdamState, adam_step, sgd_step

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "Strategy",
    "GradientMsg",
    "TraceRow",
    "RunTrace",
    "DivergenceError",
    "ParameterServer",
    "Worker",
    "run_simulation",
    "run_parallel",
    "staleness_summary",
    "build_experiment",
    "TRACE_SCHEMA",
    "TRACE_COLUMNS",
]

# Fixed stream ids so every consumer of randomness is independent.
STREAM_DATASET = 0
STREAM_PROBE = 1
STREAM_OBJECTIVE = 2
STREAM_INIT = 3
STREAM_WORKER_BASE = 10

_KINDS = ("sync", "sync_stale", "async", "local_accum", "global_accum", "combined")


@dataclass(frozen=True)
class Strategy:
    """Communication strategy. Use the factory classmethods; the raw
    constructor insists that parameters irrelevant to `kind` stay at 1 so
    equal strategies compare equal.

    Degenerate parameter choices collapse onto each other by construction:
    local_accum(1), global_accum(1), and combined(1,1) all run exactly the
    async schedule, and sync_stale(1) runs exactly sync. They stay distinct
    values here (the trace records what was configured); the simulation
    engine sees only the normalized numbers.
    """

    kind: str
    local: int = 1
    global_count: int = 1
    pull_every: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.local < 1:
            raise ValueError("strategy local must be >= 1")
        if self.global_count < 1:
            raise ValueError("strategy global must be >= 1")
        if self.pull_every < 1:
            raise ValueError("strategy pull_every must be >= 1")
        fixed = {
            "sync": ("local", "global_count", "pull_every"),
            "async": ("local", "global_count", "pull_every"),
            "sync_stale": ("local", "global_count"),
            "local_accum": ("global_count", "pull_every"),
            "global_accum": ("local", "pull_every"),
            "combined": ("pull_every",),
        }[self.kind]
        for name in fixed:
            if getattr(self, name) != 1:
                shown = "global" if name == "global_count" else name
                raise ValueError(
                    f"strategy {self.kind!r} does not take a {shown} parameter"
                )

    @classmethod
    def sync(cls) -> "Strategy":
        return cls("sync")

    @classmethod
    def sync_stale(cls, pull_every: int) -> "Strategy":
        return cls("sync_stale", pull_every=pull_every)

    @classmethod
    def asynchronous(cls) -> "Strategy":
        return cls("async")

    @classmethod
    def local_accum(cls, local: int) -> "Strategy":
        return cls("local_accum", local=local)

    @classmethod
    def global_accum(cls, global_count: int) -> "Strategy":
        return cls("global_accum", global_count=global_count)

    @classmethod
    def combined(cls, local: int, global_count: int) -> "Strategy":
        return cls("combined", local=local, global_count=global_count)

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
        if self.kind == "sync_stale":
            return f"sync_stale-{self.pull_every}"
        if self.kind == "local_accum":
            return f"local_accum-{self.local}"
        if self.kind == "global_accum":
            return f"global_accum-{self.global_count}"
        if self.kind == "combined":
            return f"combined-{self.local}-{self.global_count}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        """Inverse of .label, e.g. "async", "sync_stale-7", "combined-2-2"."""
        parts = text.strip().split("-")
        kind, args = parts[0], parts[1:]
        try:
            nums = [int(a) for a in args]
        except ValueError:
            raise ValueError(f"bad strategy parameters in {text!r}") from None
        try:
            if kind == "sync" and not nums:
                return cls.sync()
            if kind == "async" and not nums:
                return cls.asynchronous()
            if kind == "sync_stale" and len(nums) == 1:
                return cls.sync_stale(nums[0])
            if kind == "local_accum" and len(nums) == 1:
                return cls.local_accum(nums[0])
            if kind == "global_accum" and len(nums) == 1:
                return cls.global_accum(nums[0])
            if kind == "combined" and len(nums) == 2:
                return cls.combined(nums[0], nums[1])
        except ValueError as e:
            raise ValueError(f"invalid strategy {text!r}: {e}") from None
        raise ValueError(f"cannot parse strategy {text!r}")


@dataclass(frozen=True)
class GradientMsg:
    """One pushed gradient: the (combined) local buffer plus the book
    keeping the server needs for staleness accounting."""

    grad: Vec
    worker: int
    pull_version: int
    push_time: float
    cost: int


@dataclass(frozen=True)
class TraceRow:
    update_idx: int
    sim_time_s: float
    pushes: int
    staleness: int
    loss_probe: float
    lr: float
    strategy: str
    worker_id: int


TRACE_SCHEMA = "trace-v1"
TRACE_COLUMNS = (
    "update_idx",
    "sim_time_s",
    "pushes",
    "staleness",
    "loss_probe",
    "lr",
    "strategy",
    "worker_id",
)


class DivergenceError(RuntimeError):
    """Raised by ParameterServer when the parameters, Adam's second moment
    or the probe loss stop being finite. Both engines convert it into a
    diverged trace that keeps every row recorded before the blow-up."""


@dataclass
class RunTrace:
    """Per-push trace of a run. One row per push, written after that
    push was fully processed (including any optimizer update it completed).
    """

    rows: list
    n_workers: int
    strategy_label: str
    diverged: bool = False
    divergence_reason: str | None = None
    final_theta: Vec | None = None
    total_cost: int = 0

    @property
    def pushes(self) -> int:
        return len(self.rows)

    @property
    def updates(self) -> int:
        return self.rows[-1].update_idx if self.rows else 0

    @property
    def final_sim_time(self) -> float:
        return self.rows[-1].sim_time_s if self.rows else 0.0

    @property
    def final_loss(self) -> float:
        if not self.rows:
            raise ValueError("empty trace has no final loss")
        return self.rows[-1].loss_probe

    @property
    def best_loss(self) -> float:
        if not self.rows:
            raise ValueError("empty trace has no best loss")
        return min(r.loss_probe for r in self.rows)

    def to_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(f"# schema={TRACE_SCHEMA}\n")
            f.write(f"# workers={self.n_workers}\n")
            f.write(f"# strategy={self.strategy_label}\n")
            f.write(",".join(TRACE_COLUMNS) + "\n")
            for r in self.rows:
                f.write(
                    f"{r.update_idx},{r.sim_time_s!r},{r.pushes},{r.staleness},"
                    f"{r.loss_probe!r},{r.lr!r},{r.strategy},{r.worker_id}\n"
                )
            f.write(f"# diverged={'true' if self.diverged else 'false'}\n")
            if self.divergence_reason:
                reason = self.divergence_reason.replace("\n", " ")
                f.write(f"# reason={reason}\n")

    @classmethod
    def from_csv(cls, path: str) -> "RunTrace":
        """Rebuild a trace from to_csv output. Fields that never go
        through the CSV (final_theta, total_cost) come back empty."""
        meta = {}
        rows = []
        with open(path) as f:
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
                rows.append(
                    TraceRow(
                        update_idx=int(c[0]),
                        sim_time_s=float(c[1]),
                        pushes=int(c[2]),
                        staleness=int(c[3]),
                        loss_probe=float(c[4]),
                        lr=float(c[5]),
                        strategy=c[6],
                        worker_id=int(c[7]),
                    )
                )
        if meta.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unsupported trace schema {meta.get('schema')!r}")
        reason = meta.get("reason")
        return cls(
            rows=rows,
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
    if not trace.rows:
        raise ValueError("empty trace")
    skip = trace.n_workers if warmup_pushes is None else warmup_pushes
    if skip < 0:
        raise ValueError("warmup_pushes must be >= 0")
    vals = [r.staleness for r in trace.rows[skip:]]
    if not vals:
        raise ValueError("no staleness entries left after warmup exclusion")
    return sum(vals) / len(vals), dict(Counter(vals))


class ParameterServer:
    """Holds parameters and Adam's state (SGD keeps none), applies one
    optimizer update per `g_count` pushed gradients, and records one trace
    row per push.

    It is the one place that checks run values for finiteness: the new
    parameters and Adam's second moment v once per update, the probe loss
    once per version. A non-finite gradient makes the SGD parameters or
    Adam's v non-finite at the update that applies it; so does a finite one
    above ~1e154, whose g*g overflows v and would freeze its coordinate.

    The probe loss is evaluated once per parameter version: theta changes
    only on an update, so the rows of the pushes between two updates repeat
    the loss computed for their version. With G > 1 (and for the barrier
    strategies) that is one probe per G pushes instead of one per push.
    """

    def __init__(
        self,
        theta0: Vec,
        adam: AdamConfig | None,
        schedule: LrSchedule,
        g_count: int,
        combine: str,
        probe_loss,
        strategy_label: str,
    ):
        if combine not in ("mean", "sum"):
            raise ValueError(f"combine must be 'mean' or 'sum', got {combine!r}")
        self.theta = theta0.copy()
        self.version = 0
        self.accum = np.zeros_like(self.theta)
        self.accum_count = 0
        self.adam = adam  # None runs plain SGD, which keeps no state
        self.adam_state = None if adam is None else AdamState.zeros(len(theta0))
        self.schedule = schedule
        self.g_count = g_count
        self.combine = combine
        self.probe_loss = probe_loss
        self.loss = 0.0
        self.loss_version = -1  # the version `loss` was probed at
        self.strategy_label = strategy_label
        self.total_pushes = 0
        self.total_cost = 0
        self.last_lr = 0.0
        self.rows: list[TraceRow] = []

    def on_push(self, msg: GradientMsg) -> bool:
        """Process one pushed gradient; returns True when it completed an
        optimizer update. Raises DivergenceError on any non-finite value."""
        staleness = self.version - msg.pull_version
        if staleness < 0:
            raise RuntimeError("pull_version ahead of server version")
        self.total_pushes += 1
        self.total_cost += msg.cost
        self.accum += msg.grad
        self.accum_count += 1
        updated = False
        if self.accum_count == self.g_count:
            g = self.accum / self.g_count if self.combine == "mean" else self.accum
            lr = self.schedule.lr_at(self.version + 1)
            if self.adam is None:
                self.theta = sgd_step(self.theta, g, lr)
            else:
                self.adam_state, self.theta = adam_step(
                    self.adam_state, self.adam, self.theta, g, lr
                )
            self.version += 1
            self.accum[:] = 0.0
            self.accum_count = 0
            self.last_lr = lr
            updated = True
            if not vec_is_finite(self.theta):
                raise DivergenceError(
                    f"parameters went non-finite at update {self.version}"
                )
            if self.adam is not None and not vec_is_finite(self.adam_state.v):
                raise DivergenceError(
                    f"Adam's second moment went non-finite at update {self.version}"
                )
        if self.loss_version != self.version:
            loss = float(self.probe_loss(self.theta))
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"probe loss went non-finite at update {self.version}"
                )
            self.loss, self.loss_version = loss, self.version
        self.rows.append(
            TraceRow(
                update_idx=self.version,
                sim_time_s=msg.push_time,
                pushes=self.total_pushes,
                staleness=staleness,
                loss_probe=self.loss,
                lr=self.last_lr,
                strategy=self.strategy_label,
                worker_id=msg.worker,
            )
        )
        return updated


class Worker:
    """One worker's local state: pulled parameters, local accumulation
    buffer, private RNG, and the batch currently in flight.

    Per compute cycle the stream is consumed in a fixed order (duration
    draw at start_compute, then gradient noise at finish_compute) so the
    serial and threaded executors walk identical sample sequences.
    """

    def __init__(
        self, wid: int, rng: RngStream, theta0: Vec, local_target: int, combine: str
    ):
        self.id = wid
        self.rng = rng
        self.theta_local = theta0.copy()
        self.pulled_version = 0
        self.buffer = np.zeros_like(theta0)
        self.local_count = 0
        self.local_cost = 0
        self.local_target = local_target
        self.combine = combine
        self.batch: Batch | None = None

    def start_compute(self, batch: Batch, model: ComputeTimeModel) -> float:
        """Accept a batch; returns the compute duration in simulated
        seconds (per-cost-unit sample times the batch's total cost)."""
        self.batch = batch
        return sample_compute_time(self.rng, model) * batch.total_cost

    def finish_compute(
        self, objective: Objective, push_time: float
    ) -> GradientMsg | None:
        """Compute the gradient of the in-flight batch against the locally
        held parameters and fold it into the local buffer. Emits a message
        once local_target gradients have accumulated, else None.

        The message's pull_version is the version pulled before the FIRST
        gradient in the buffer; re-pulls only happen at push time, so the
        whole buffer was computed against one parameter snapshot.
        """
        g = objective.grad(self.theta_local, self.batch, self.rng)
        self.buffer += g
        self.local_count += 1
        self.local_cost += self.batch.total_cost
        self.batch = None
        if self.local_count < self.local_target:
            return None
        if self.combine == "mean":
            payload = self.buffer / self.local_target
        else:
            payload = self.buffer.copy()
        msg = GradientMsg(
            grad=payload,
            worker=self.id,
            pull_version=self.pulled_version,
            push_time=push_time,
            cost=self.local_cost,
        )
        self.buffer = np.zeros_like(self.buffer)
        self.local_count = 0
        self.local_cost = 0
        return msg

    def pull(self, server: ParameterServer) -> None:
        self.theta_local = server.theta.copy()
        self.pulled_version = server.version


def build_experiment(
    cfg: "ExperimentConfig",
    objective: Objective | None = None,
    dataset: Batch | None = None,
    probe: Batch | None = None,
    theta0: Vec | None = None,
) -> tuple[Objective, Batch, Batch, Vec]:
    """Construct (objective, dataset, probe batch, initial parameters) from
    a config, honoring any pieces the caller supplies directly.

    Stream usage: dataset samples come from (seed, stream 0), probe samples
    from (probe_seed, stream 1), objective parameters (quadratic geometry,
    regression weights, blob centers) from (seed, stream 2), and parameter
    init from (seed, stream 3), so probe and training data never share draws.
    """
    spec = cfg.objective
    if spec.kind == "quadratic":
        if objective is None:
            objective = Quadratic.random(
                spec.dim,
                cfg.seed,
                cond=spec.cond,
                noise_sigma=spec.noise_sigma,
                theta_star_scale=spec.theta_star_scale,
            )
        if dataset is None:
            rng = RngStream(cfg.seed, STREAM_DATASET)
            costs = make_cost_stream(rng, spec.samples, cfg.batch_cost_max)
            dataset = Batch.cost_only(costs)
        if probe is None:
            # the quadratic's probe loss depends only on theta
            probe = Batch.cost_only([1])
        if theta0 is None:
            theta0 = np.zeros(objective.dim)
    elif spec.kind == "linreg":
        rng_obj = RngStream(cfg.seed, STREAM_OBJECTIVE)
        theta_true = rng_obj.normal(size=spec.dim)
        if objective is None:
            objective = LinearRegression(spec.dim)
        if dataset is None:
            dataset = make_linreg_samples(
                RngStream(cfg.seed, STREAM_DATASET),
                spec.samples,
                theta_true,
                target_noise=spec.target_noise,
                cost_max=cfg.batch_cost_max,
            )
        if probe is None:
            probe = make_linreg_samples(
                RngStream(cfg.probe_seed, STREAM_PROBE),
                cfg.probe_samples,
                theta_true,
                target_noise=0.0,
            )
        if theta0 is None:
            theta0 = np.zeros(objective.dim)
    elif spec.kind == "mlp":
        rng_obj = RngStream(cfg.seed, STREAM_OBJECTIVE)
        centers = rng_obj.normal(0.0, 2.0, size=(spec.classes, spec.in_dim))
        if objective is None:
            objective = Mlp(spec.in_dim, spec.hidden, spec.classes)
        if dataset is None:
            per_class = max(1, spec.samples // spec.classes)
            dataset = make_blob_samples(
                RngStream(cfg.seed, STREAM_DATASET),
                per_class,
                centers,
                spread=spec.spread,
                cost_max=cfg.batch_cost_max,
            )
        if probe is None:
            per_class = max(1, cfg.probe_samples // spec.classes)
            probe = make_blob_samples(
                RngStream(cfg.probe_seed, STREAM_PROBE),
                per_class,
                centers,
                spread=spec.spread,
            )
        if theta0 is None:
            theta0 = objective.init_theta(RngStream(cfg.seed, STREAM_INIT))
    else:
        raise ValueError(f"unknown objective kind {spec.kind!r}")
    return objective, dataset, probe, theta0


def _make_schedule(cfg: "ExperimentConfig", local: int, global_count: int) -> LrSchedule:
    sched = LrSchedule(
        base_lr=cfg.adam.alpha,
        warmup_updates=cfg.schedule_warmup,
        decay=cfg.schedule_decay,
        batch_scale_factor=cfg.schedule_batch_scale,
    )
    # one update aggregates L*G pushes' worth of samples
    return sched.scaled_for_batch(local * global_count)


class _BatchCursor:
    """Round-robin over pre-built batches in dataset order."""

    def __init__(self, batches: list[Batch]):
        if not batches:
            raise ValueError("no batches to feed workers")
        self.batches = batches
        self.i = 0

    def next(self) -> Batch:
        b = self.batches[self.i % len(self.batches)]
        self.i += 1
        return b


class _Run:
    """One run's server, workers and batch feed, with the push step, the
    divergence handling and the trace assembly that both engines share."""

    def __init__(self, cfg: "ExperimentConfig", pieces: tuple):
        objective, dataset, probe, theta0 = build_experiment(cfg, *pieces)
        local, global_count, self.pull_every = cfg.strategy.effective(cfg.workers)
        self.cfg = cfg
        self.objective = objective
        self.server = ParameterServer(
            theta0,
            cfg.adam if cfg.optimizer_kind == "adam" else None,
            _make_schedule(cfg, local, global_count),
            global_count,
            cfg.combine,
            lambda th: objective.loss(th, probe),
            cfg.strategy.label,
        )
        self.workers = [
            Worker(
                i,
                RngStream(cfg.seed, STREAM_WORKER_BASE + i),
                theta0,
                local,
                cfg.combine,
            )
            for i in range(cfg.workers)
        ]
        self.cursor = _BatchCursor(dynamic_batcher(dataset, cfg.batch_budget))

    def start(self, w: Worker) -> float:
        """Hand w the next batch; returns its compute duration."""
        return w.start_compute(self.cursor.next(), self.cfg.compute)

    def push(self, w: Worker, t: float) -> tuple[float, list[Worker]] | None:
        """Finish w's batch at time t and push when its local buffer is
        full. Returns (start, workers): the workers that start their next
        batch, at simulated time `start`; None once the update budget is met.

        In the async family the pusher re-pulls and goes on. A barrier
        strategy holds finished workers until the round's update lands,
        then restarts all N together, re-pulling only when the update count
        is a multiple of the pull period.
        """
        cfg, server = self.cfg, self.server
        msg = w.finish_compute(self.objective, t + cfg.comm_latency)
        if msg is None:
            return t, [w]
        updated = server.on_push(msg)
        if not cfg.strategy.is_barrier:
            w.pull(server)
            nxt = [w]
        elif not updated:
            return t, []  # wait at the barrier for the round to finish
        else:
            if server.version % self.pull_every == 0:
                for ww in self.workers:
                    ww.pull(server)
            nxt = self.workers  # next round, batch grab in id order
        if server.version >= cfg.budget_updates:
            return None
        return t + cfg.comm_latency, nxt

    def execute(self, drive) -> RunTrace:
        """Call drive() and assemble the trace. A DivergenceError ends the
        run with a diverged trace that keeps every row recorded before it."""
        reason = None
        try:
            # divergence detection rides on IEEE inf/nan propagation; the
            # overflow on the way down is expected, not worth a warning
            with np.errstate(over="ignore", invalid="ignore"):
                drive()
        except DivergenceError as e:
            reason = str(e)
        server = self.server
        return RunTrace(
            rows=server.rows,
            n_workers=self.cfg.workers,
            strategy_label=self.cfg.strategy.label,
            diverged=reason is not None,
            divergence_reason=reason,
            final_theta=server.theta.copy(),
            total_cost=server.total_cost,
        )


def run_simulation(
    cfg: "ExperimentConfig",
    objective: Objective | None = None,
    dataset: Batch | None = None,
    probe: Batch | None = None,
    theta0: Vec | None = None,
) -> RunTrace:
    """Deterministic discrete-event run of the configured experiment.

    Workers start staggered at i/N seconds. The loop pops the earliest
    completion event (ties to the lower worker id) and takes the shared
    push step on that worker (see _Run.push), then schedules the workers
    that step names.

    The run stops once cfg.budget_updates optimizer updates have been
    applied, or at the first event past cfg.budget_sim_time when that is
    set, or on divergence (the trace keeps all rows up to the failure).
    """
    run = _Run(cfg, (objective, dataset, probe, theta0))
    n = cfg.workers
    heap = [(w.id / n + run.start(w), w.id) for w in run.workers]
    heapq.heapify(heap)

    def drive() -> None:
        while heap:
            t, wid = heapq.heappop(heap)
            if cfg.budget_sim_time > 0 and t > cfg.budget_sim_time:
                return
            step = run.push(run.workers[wid], t)
            if step is None:
                return
            start, nxt = step
            for w in nxt:
                heapq.heappush(heap, (start + run.start(w), w.id))

    return run.execute(drive)


def run_parallel(
    cfg: "ExperimentConfig",
    objective: Objective | None = None,
    dataset: Batch | None = None,
    probe: Batch | None = None,
    theta0: Vec | None = None,
) -> RunTrace:
    """Run the same state machine with N real threads and real sleeps.

    Each worker thread sleeps for its sampled compute duration (scaled by
    cfg.parallel_time_scale real seconds per simulated second), then takes
    the push step run_simulation takes (_Run.push) under a single server
    lock. Timings and interleavings are nondeterministic, so only
    statistical assertions hold; with N=1 the update trajectory matches
    the serial engine exactly (timestamps aside). Barrier strategies are
    not supported here.

    Divergence ends in a diverged trace, as in run_simulation. Any other
    exception in a worker thread stops every thread and is re-raised here.
    """
    if cfg.strategy.is_barrier:
        raise ValueError(
            "parallel mode supports the async strategy family only "
            "(sync and sync_stale need a barrier scheduler)"
        )
    run = _Run(cfg, (objective, dataset, probe, theta0))
    lock = threading.Lock()
    stop = threading.Event()
    failure: list[Exception] = []
    t0 = time.monotonic()

    def loop(w: Worker) -> None:
        while not stop.is_set():
            with lock:
                d = run.start(w)
            time.sleep(d * cfg.parallel_time_scale)
            now = (time.monotonic() - t0) / cfg.parallel_time_scale
            with lock:
                if stop.is_set():
                    return
                try:
                    # errstate is per thread: the same policy as execute()
                    with np.errstate(over="ignore", invalid="ignore"):
                        if run.push(w, now) is None:
                            stop.set()
                except Exception as e:  # the others would wait on its pushes
                    failure.append(e)
                    stop.set()
                    return
            if cfg.budget_sim_time > 0 and now > cfg.budget_sim_time:
                stop.set()

    def drive() -> None:
        threads = [
            threading.Thread(target=loop, args=(w,), name=f"worker-{w.id}")
            for w in run.workers
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        if failure:  # at most one: it set stop under the lock
            raise failure[0]

    return run.execute(drive)
