"""Event loop, strategies, staleness accounting, traces, parallel engine."""

import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalesim import harness
from stalesim.config import default_config, ObjectiveSpec
from stalesim.core import ComputeTimeModel, LrSchedule, RngStream
from stalesim.harness import EXIT_DIVERGED, run_experiment
from stalesim.models import Objective, Quadratic, dynamic_batcher
from stalesim.optim import AdamConfig, AdamState, adam_step, sgd_step
from stalesim.simulator import (
    DivergenceError,
    RunTrace,
    Strategy,
    TraceRow,
    build_experiment,
    run_parallel,
    run_simulation,
    staleness_summary,
)


def _cfg(**kw):
    base = dict(
        objective=ObjectiveSpec(kind="quadratic", dim=4, cond=3.0, samples=32),
        workers=4,
        batch_budget=1,
        compute=ComputeTimeModel.constant(1.0),
        budget_updates=40,
        seed=0,
    )
    base.update(kw)
    return default_config(**base)


# ---------------------------------------------------------------------------
# strategy values


def test_strategy_labels_round_trip():
    cases = [
        Strategy.sync(),
        Strategy.asynchronous(),
        Strategy.sync_stale(7),
        Strategy.local_accum(4),
        Strategy.global_accum(4),
        Strategy.combined(2, 2),
    ]
    for s in cases:
        assert Strategy.parse(s.label) == s


def test_strategy_validation():
    with pytest.raises(ValueError, match=">= 1"):
        Strategy.global_accum(0)
    with pytest.raises(ValueError, match="does not take"):
        Strategy("async", local=2)
    with pytest.raises(ValueError):
        Strategy.parse("warp-9")


def test_degenerate_strategies_run_the_async_schedule():
    n = 4
    assert Strategy.local_accum(1).effective(n) == Strategy.asynchronous().effective(n)
    assert Strategy.global_accum(1).effective(n) == Strategy.asynchronous().effective(n)
    assert Strategy.combined(1, 1).effective(n) == Strategy.asynchronous().effective(n)
    assert Strategy.sync_stale(1).effective(n) == Strategy.sync().effective(n)
    # sync aggregates all N workers per update, barrier-style
    assert Strategy.sync().effective(n) == (1, n, 1)
    assert Strategy.sync().is_barrier and not Strategy.asynchronous().is_barrier


# ---------------------------------------------------------------------------
# staleness accounting


def test_sync_staleness_all_zero():
    trace = run_simulation(_cfg(strategy=Strategy.sync()))
    mean, hist = staleness_summary(trace, warmup_pushes=0)
    assert mean == 0.0
    assert hist == {0: trace.pushes}


@pytest.mark.parametrize("u,expect", [(5, 2.0), (7, 3.0)])
def test_sync_stale_mean_is_half_u_minus_one(u, expect):
    # over whole U-cycles the per-round staleness pattern is 0,1,...,U-1
    trace = run_simulation(
        _cfg(strategy=Strategy.sync_stale(u), budget_updates=4 * u)
    )
    mean, hist = staleness_summary(trace, warmup_pushes=0)
    assert mean == expect
    assert set(hist) == set(range(u))


def test_steady_state_async_staleness_is_n_minus_one():
    trace = run_simulation(_cfg(strategy=Strategy.asynchronous(), budget_updates=200))
    mean, _ = staleness_summary(trace)  # default warmup skips the first N pushes
    assert mean == 3.0


def test_staleness_nonnegative_and_mean_matches_rows():
    trace = run_simulation(
        _cfg(
            strategy=Strategy.combined(2, 2),
            compute=ComputeTimeModel.normal(1.0, 0.2),
            budget_updates=100,
        )
    )
    vals = [r.staleness for r in trace.rows]
    assert all(v >= 0 for v in vals)
    mean, hist = staleness_summary(trace, warmup_pushes=0)
    assert mean == pytest.approx(sum(vals) / len(vals))
    assert sum(hist.values()) == len(vals)
    assert sum(k * v for k, v in hist.items()) == sum(vals)


def test_staleness_summary_warmup_and_empty_errors():
    trace = run_simulation(_cfg(strategy=Strategy.asynchronous(), budget_updates=8))
    with pytest.raises(ValueError):
        staleness_summary(trace, warmup_pushes=10_000)
    with pytest.raises(ValueError):
        staleness_summary(RunTrace(rows=[], n_workers=1, strategy_label="async"))


# ---------------------------------------------------------------------------
# trajectory oracles


def test_one_sync_round_equals_serial_adam_on_mean_gradient():
    # A sync round with N workers is exactly one Adam step on the mean of
    # the N batch gradients, accumulated in worker-id order.
    cfg = _cfg(
        objective=ObjectiveSpec(kind="linreg", dim=5, samples=64),
        strategy=Strategy.sync(),
        batch_budget=4,
        budget_updates=1,
    )
    objective, dataset, probe, theta0 = build_experiment(cfg)
    batches = dynamic_batcher(dataset, cfg.batch_budget)
    accum = np.zeros(5)
    for i in range(4):
        accum += objective.grad(theta0, batches[i])
    schedule = LrSchedule(
        base_lr=cfg.adam.alpha,
        warmup_updates=cfg.schedule_warmup,
        decay=cfg.schedule_decay,
    )
    _, expected = adam_step(
        AdamState.zeros(5), cfg.adam, theta0, accum / 4.0,
        lr_override=schedule.lr_at(1),
    )
    trace = run_simulation(cfg)
    np.testing.assert_array_equal(trace.final_theta, expected)
    assert trace.updates == 1 and trace.pushes == 4


def test_single_worker_async_is_serial_sgd():
    # N=1, L=G=1: staleness identically zero and the trajectory is plain
    # sequential SGD over the same batch stream.
    cfg = _cfg(
        objective=ObjectiveSpec(kind="linreg", dim=3, samples=24),
        workers=1,
        strategy=Strategy.asynchronous(),
        optimizer_kind="sgd",
        schedule_decay="none",
        batch_budget=4,
        budget_updates=30,
    )
    trace = run_simulation(cfg)
    assert all(r.staleness == 0 for r in trace.rows)

    objective, dataset, _, theta = build_experiment(cfg)
    batches = dynamic_batcher(dataset, cfg.batch_budget)
    for k in range(30):
        theta = sgd_step(theta, objective.grad(theta, batches[k % len(batches)]),
                         cfg.adam.alpha)
    np.testing.assert_array_equal(trace.final_theta, theta)


def test_update_count_is_pushes_over_g():
    for g in (1, 2, 4):
        s = Strategy.global_accum(g) if g > 1 else Strategy.asynchronous()
        trace = run_simulation(_cfg(strategy=s, budget_updates=24))
        assert trace.updates == 24
        assert trace.pushes == g * trace.updates


def test_local_accumulation_cuts_communication_time():
    # same number of minibatch gradients, quarter the messages: with a
    # per-message latency the local-accumulation run finishes sooner
    kw = dict(comm_latency=0.5)
    t_async = run_simulation(
        _cfg(strategy=Strategy.asynchronous(), budget_updates=100, **kw)
    ).final_sim_time
    t_local = run_simulation(
        _cfg(strategy=Strategy.local_accum(4), budget_updates=25, **kw)
    ).final_sim_time
    assert t_local < t_async


def test_local_accum_messages_carry_summed_cost():
    trace = run_simulation(
        _cfg(strategy=Strategy.local_accum(4), batch_budget=2, budget_updates=10)
    )
    # every message folds L=4 batches of total_cost 2 each
    assert trace.total_cost == 10 * 4 * 2


def test_lr_column_tracks_applied_schedule():
    cfg = _cfg(
        strategy=Strategy.global_accum(2),
        schedule_warmup=4,
        schedule_decay="inverse-sqrt",
        budget_updates=12,
    )
    trace = run_simulation(cfg)
    sched = LrSchedule(base_lr=cfg.adam.alpha, warmup_updates=4)
    for r in trace.rows:
        want = 0.0 if r.update_idx == 0 else sched.lr_at(r.update_idx)
        assert r.lr == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# divergence handling


def test_divergence_detected_and_trace_preserved():
    cfg = _cfg(
        objective=ObjectiveSpec(kind="quadratic", dim=4, cond=10.0, samples=16),
        strategy=Strategy.asynchronous(),
        optimizer_kind="sgd",
        adam=AdamConfig(alpha=10.0),  # way past the stability edge for sgd
        schedule_decay="none",
        budget_updates=5000,
    )
    trace = run_simulation(cfg)
    assert trace.diverged
    assert trace.divergence_reason
    assert trace.updates < 5000
    for r in trace.rows:
        assert np.isfinite(r.loss_probe)


class _HugeGradient(Objective):
    """Every gradient is finite, but two of them summed overflow."""

    dim = 2

    def loss(self, theta, batch):
        return 0.0

    def grad(self, theta, batch, rng=None):
        return np.full(2, 1e308)


class _FailingGradient(_HugeGradient):
    """Raises a plain error, not a divergence, on the third gradient."""

    def __init__(self):
        self.calls = 0

    def grad(self, theta, batch, rng=None):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("worker crashed")
        return np.zeros(2)


def _finishes(run, timeout=10.0):
    """Call run() in a daemon thread; fail the test if it hangs."""
    out = {}

    def target():
        try:
            out["trace"] = run()
        except Exception as e:
            out["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout=timeout)
    assert not th.is_alive(), f"run still going after {timeout} s"
    return out


def _overflow_cfg(workers, g, **kw):
    return _cfg(
        objective=ObjectiveSpec(kind="quadratic", dim=2, samples=32),
        workers=workers,
        strategy=Strategy.global_accum(g),
        **kw,
    )


@pytest.mark.parametrize("combine", ["mean", "sum"])
def test_accumulated_gradient_overflow_diverges(combine):
    trace = run_simulation(
        _overflow_cfg(4, 4, combine=combine), objective=_HugeGradient()
    )
    assert trace.diverged
    assert "non-finite" in trace.divergence_reason
    assert (trace.pushes, trace.updates) == (3, 0)  # rows before the failure


def test_run_experiment_exits_3_on_accumulated_overflow(tmp_path, monkeypatch):
    build = harness.build_experiment
    monkeypatch.setattr(
        harness, "build_experiment", lambda cfg: build(cfg, objective=_HugeGradient())
    )
    _, report = run_experiment(_overflow_cfg(4, 4), str(tmp_path))
    assert report.exit_code() == EXIT_DIVERGED


def test_parallel_accumulated_overflow_diverges_without_hanging():
    cfg = _overflow_cfg(2, 2, parallel_time_scale=1e-4)
    out = _finishes(lambda: run_parallel(cfg, objective=_HugeGradient()))
    assert out["trace"].diverged
    assert "non-finite" in out["trace"].divergence_reason


def test_parallel_worker_crash_stops_run_and_reraises():
    cfg = _overflow_cfg(2, 2, parallel_time_scale=1e-4)
    out = _finishes(lambda: run_parallel(cfg, objective=_FailingGradient()))
    assert isinstance(out.get("error"), RuntimeError)
    assert "worker crashed" in str(out["error"])


class _NanGradient(_HugeGradient):
    """Zero gradients for four calls, then nan from the fifth on."""

    def __init__(self):
        self.calls = 0

    def grad(self, theta, batch, rng=None):
        self.calls += 1
        return np.full(2, np.nan if self.calls >= 5 else 0.0)


# the nan enters with push 5; the trace ends at the update that applies it,
# so with G=4 the pushes 5-7 still leave rows
_NAN_ROWS = {1: 4, 4: 7}


@pytest.mark.parametrize("g", sorted(_NAN_ROWS))
def test_nan_gradient_diverges_at_the_update_that_applies_it(g):
    trace = run_simulation(_overflow_cfg(4, g), objective=_NanGradient())
    assert trace.diverged
    assert "non-finite" in trace.divergence_reason
    assert (trace.pushes, trace.updates) == (_NAN_ROWS[g], 4 // g)


@pytest.mark.parametrize("g", sorted(_NAN_ROWS))
def test_parallel_nan_gradient_diverges(g):
    cfg = _overflow_cfg(2, g, parallel_time_scale=1e-4)
    out = _finishes(lambda: run_parallel(cfg, objective=_NanGradient()))
    assert out["trace"].diverged
    assert "non-finite" in out["trace"].divergence_reason
    assert out["trace"].pushes == _NAN_ROWS[g]


# ---------------------------------------------------------------------------
# probe loss once per parameter version


class _CountingObjective(Objective):
    """A noisy quadratic that counts its probe-loss calls."""

    def __init__(self, dim=4):
        self.inner = Quadratic.random(dim, seed=0, cond=3.0, noise_sigma=1.0)
        self.dim = dim
        self.has_noise = True
        self.losses = 0

    def loss(self, theta, batch):
        self.losses += 1
        return self.inner.loss(theta, batch)

    def grad(self, theta, batch, rng=None):
        return self.inner.grad(theta, batch, rng)


@pytest.mark.parametrize("strategy", [Strategy.global_accum(4), Strategy.sync()])
def test_probe_loss_runs_once_per_version(strategy):
    objective = _CountingObjective()
    trace = run_simulation(_cfg(strategy=strategy), objective=objective)
    assert objective.losses == trace.updates + 1  # versions 0..updates


_FAMILIES = {
    "sync": lambda l, g, u: Strategy.sync(),
    "sync_stale": lambda l, g, u: Strategy.sync_stale(u),
    "async": lambda l, g, u: Strategy.asynchronous(),
    "local_accum": lambda l, g, u: Strategy.local_accum(l),
    "global_accum": lambda l, g, u: Strategy.global_accum(g),
    "combined": lambda l, g, u: Strategy.combined(l, g),
}


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    family=st.sampled_from(sorted(_FAMILIES)),
    l=st.integers(1, 4),
    g=st.integers(1, 4),
    u=st.integers(1, 4),
    cost_max=st.integers(1, 4),
)
def test_probe_and_accumulation_counts_property(n, family, l, g, u, cost_max):
    """Over random N, L, G, U and costs: one probe per version, pushes =
    updates x G plus a remainder below G, staleness >= 0, and the trace
    survives a CSV round trip."""
    strategy = _FAMILIES[family](l, g, u)
    cfg = _cfg(
        workers=n,
        strategy=strategy,
        batch_budget=4,
        batch_cost_max=cost_max,
        compute=ComputeTimeModel.normal(1.0, 0.2),
        budget_updates=10,
    )
    objective = _CountingObjective()
    trace = run_simulation(cfg, objective=objective)
    assert objective.losses == len({r.update_idx for r in trace.rows})
    big_g = strategy.effective(n)[1]
    assert 0 <= trace.pushes - trace.updates * big_g < big_g
    assert all(r.staleness >= 0 for r in trace.rows)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.csv")
        trace.to_csv(path)
        back = RunTrace.from_csv(path)
    assert back.rows == trace.rows
    assert (back.n_workers, back.strategy_label) == (n, trace.strategy_label)
    assert (back.diverged, back.divergence_reason) == (
        trace.diverged, trace.divergence_reason)


def test_parallel_probe_cache_holds_under_thread_stress():
    objective = _CountingObjective()
    cfg = _cfg(
        workers=8,
        strategy=Strategy.global_accum(4),
        compute=ComputeTimeModel.constant(0.001),
        budget_updates=30,
        parallel_time_scale=0.01,
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trace = _finishes(lambda: run_parallel(cfg, objective=objective))["trace"]
    finally:
        sys.setswitchinterval(interval)
    assert trace.updates == 30
    assert objective.losses == len({r.update_idx for r in trace.rows})
    first = {}
    for r in trace.rows:  # every row of a version carries that version's loss
        assert first.setdefault(r.update_idx, r.loss_probe) == r.loss_probe
    assert 0 <= trace.pushes - trace.updates * 4 < 4


# ---------------------------------------------------------------------------
# trace csv round trip


def test_trace_csv_round_trip(tmp_path):
    trace = run_simulation(
        _cfg(strategy=Strategy.combined(2, 2), budget_updates=12)
    )
    path = str(tmp_path / "trace.csv")
    trace.to_csv(path)
    back = RunTrace.from_csv(path)
    assert back.rows == trace.rows
    assert back.n_workers == trace.n_workers
    assert back.strategy_label == trace.strategy_label
    assert back.diverged == trace.diverged


def test_trace_csv_keeps_float_precision(tmp_path):
    row = TraceRow(
        update_idx=1,
        sim_time_s=1.0000000000000002,
        pushes=1,
        staleness=0,
        loss_probe=0.1 + 0.2,
        lr=3e-4,
        strategy="async",
        worker_id=0,
    )
    trace = RunTrace(rows=[row], n_workers=1, strategy_label="async")
    path = str(tmp_path / "t.csv")
    trace.to_csv(path)
    assert RunTrace.from_csv(path).rows[0] == row


def test_trace_csv_rejects_other_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# schema=trace-v0\nupdate_idx\n")
    with pytest.raises(ValueError):
        RunTrace.from_csv(str(path))


# ---------------------------------------------------------------------------
# parallel engine


def test_parallel_rejects_barrier_strategies():
    for s in (Strategy.sync(), Strategy.sync_stale(3)):
        with pytest.raises(ValueError):
            run_parallel(_cfg(strategy=s, parallel_time_scale=1e-4))


def test_parallel_single_worker_matches_serial_trajectory():
    cfg = _cfg(
        objective=ObjectiveSpec(kind="quadratic", dim=4, cond=3.0,
                                noise_sigma=0.5, samples=32),
        workers=1,
        strategy=Strategy.asynchronous(),
        compute=ComputeTimeModel.constant(0.001),
        budget_updates=50,
        parallel_time_scale=1.0,
    )
    serial = run_simulation(cfg)
    threaded = run_parallel(cfg)
    assert len(threaded.rows) == len(serial.rows)
    for a, b in zip(serial.rows, threaded.rows):
        # identical state machine, real clock: timestamps differ, math not
        assert (a.update_idx, a.pushes, a.staleness, a.worker_id) == (
            b.update_idx, b.pushes, b.staleness, b.worker_id)
        assert a.loss_probe == b.loss_probe
        assert a.lr == b.lr
    np.testing.assert_array_equal(serial.final_theta, threaded.final_theta)


def test_parallel_respects_update_budget():
    trace = run_parallel(
        _cfg(
            strategy=Strategy.global_accum(4),
            compute=ComputeTimeModel.constant(0.001),
            budget_updates=25,
            parallel_time_scale=0.05,
        )
    )
    assert trace.updates == 25
    assert all(r.staleness >= 0 for r in trace.rows)
