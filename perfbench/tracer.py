"""Outside-in layer tracing for the stalesim benchmark.

The traced run swaps public module-level functions of stalesim (and the
objective the engine receives) for timing wrappers, then puts the
originals back. Nothing under src/ knows about it.

A span's time is the calling thread's CPU time (time.thread_time), so the
two sweep threads, which take turns on the interpreter lock, are not
charged for each other's work. A layer's self time is its span minus the
spans of the layers it calls. Host time between pushes is wall time
(time.perf_counter) between consecutive probe-loss calls in one thread.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time

from stalesim import config, core, harness, models, optim, simulator

# (defining module, function, layer). The wrapper replaces the function in
# every stalesim module that holds it as a global, so it does not matter
# which module a caller imported it from.
FUNCTIONS = (
    (config, "parse_config", "config.parse"),
    (simulator, "run_simulation", "simulator.engine"),
    (models, "dynamic_batcher", "models.batching"),
    (core, "sample_compute_time", "core.compute_time"),
    (optim, "adam_step", "optim.step"),
    (harness, "summarize", "harness.summary"),
)

LAYERS = (
    "config.parse",
    "simulator.build_experiment",
    "simulator.engine",
    "models.batching",
    "core.compute_time",
    "models.grad",
    "models.probe_loss",
    "optim.step",
    "harness.summary",
    "harness.trace_csv",
)


class _ThreadState:
    def __init__(self):
        self.stack: list[float] = []  # CPU seconds spent in child spans
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.gaps: list[float] = []  # wall seconds between probe calls
        self.last_probe_t: float | None = None
        self.last_theta: bytes | None = None


class Tracer:
    """Collects per-layer call counts and self times from every thread."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name: str, n: int = 1) -> None:
        calls = self._state().calls
        calls[name] = calls.get(name, 0) + n

    def timed(self, layer: str, fn):
        clock = time.thread_time

        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.calls[layer] = st.calls.get(layer, 0) + 1
                st.self_s[layer] = st.self_s.get(layer, 0.0) + dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def snapshot(self) -> tuple[dict, dict]:
        """(calls, self seconds) summed over all threads so far."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in st.calls.items():
                calls[k] = calls.get(k, 0) + v
            for k, v in st.self_s.items():
                self_s[k] = self_s.get(k, 0.0) + v
        return calls, self_s

    def push_gaps(self) -> list[float]:
        with self._lock:
            return [g for st in self._states for g in st.gaps]

    def _start_run(self) -> None:
        st = self._state()
        st.last_probe_t = None
        st.last_theta = None

    def _note_probe(self, theta) -> None:
        st = self._state()
        now = time.perf_counter()
        if st.last_probe_t is not None:
            st.gaps.append(now - st.last_probe_t)
        st.last_probe_t = now
        key = theta.tobytes()
        if key == st.last_theta:
            self.count("models.probe_loss.redundant")
        st.last_theta = key

    @contextlib.contextmanager
    def installed(self):
        """Swap the timing wrappers in for the duration of the block."""
        saved = []
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "stalesim"]

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        def patch_everywhere(fn, new):
            for m in modules:
                if m.__dict__.get(fn.__name__) is fn:
                    patch(m, fn.__name__, new)

        for module, name, layer in FUNCTIONS:
            fn = getattr(module, name)
            patch_everywhere(fn, self.timed(layer, fn))

        build = self.timed("simulator.build_experiment", simulator.build_experiment)

        def build_experiment(*args, **kwargs):
            self._start_run()
            objective, dataset, probe, theta0 = build(*args, **kwargs)
            if not isinstance(objective, TimedObjective):
                objective = TimedObjective(objective, self)
            return objective, dataset, probe, theta0

        patch_everywhere(simulator.build_experiment, build_experiment)

        write_csv = simulator.RunTrace.to_csv

        def to_csv(trace, path):
            write_csv(trace, path)
            self.count("harness.trace_csv.bytes", os.path.getsize(path))

        patch(simulator.RunTrace, "to_csv", self.timed("harness.trace_csv", to_csv))
        to_json = harness.SummaryReport.to_json
        patch(harness.SummaryReport, "to_json", self.timed("harness.summary", to_json))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class TimedObjective:
    """Stands in for an Objective: times grad and the probe loss, counts
    probes at parameters the previous probe already saw."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.dim = inner.dim
        self.grad = tracer.timed("models.grad", inner.grad)

        def probe(theta, batch):
            tracer._note_probe(theta)
            return inner.loss(theta, batch)

        self.loss = tracer.timed("models.probe_loss", probe)

    @property
    def has_noise(self) -> bool:
        return self._inner.has_noise

    def __getattr__(self, name):
        return getattr(self._inner, name)
