"""Event loop, strategies, staleness accounting, traces, paced runs."""

import gc
import json
import math
import os
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalesim import config, simulator
from stalesim.config import (
    AdamConfig,
    ComputeTimeModel,
    ExperimentConfig,
    ObjectiveSpec,
    Strategy,
    parse_config,
    serialize_config,
)
from stalesim.core import RngStream, learning_rate, sample_compute_time
from stalesim.harness import EXIT_DIVERGED, run_experiment, summarize
from stalesim.models import Objective, Quadratic, dynamic_batcher
from stalesim.optim import AdamState, adam_step, adam_steps, sgd_step
from stalesim.simulator import (
    DivergenceError,
    TRACE_COLUMNS,
    RunTrace,
    TraceRow,
    build_experiment,
    run_simulation,
    staleness_summary,
)


def _cfg(**kw):
    base = dict(
        objective=ObjectiveSpec(kind="quadratic", dim=4, cond=3.0, samples=32),
        workers=4,
        batch_budget=1,
        compute=ComputeTimeModel("constant", 1.0),
        budget_updates=40,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# strategy values


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(config._PARAMS)),
    a=st.integers(1, 9),
    b=st.integers(1, 9),
)
def test_strategy_labels_round_trip(kind, a, b):
    # the kind takes the first len(_PARAMS[kind]) of (a, b), in label order
    s = Strategy(kind, **dict(zip(config._PARAMS[kind], (a, b))))
    assert Strategy.parse(s.label) == s
    # the label form is shorthand for the four strategy.* lines
    components = "".join(
        line
        for line in serialize_config(ExperimentConfig(strategy=s)).splitlines(True)
        if line.startswith("strategy.")
    )
    from_label = parse_config(f"strategy = {s.label}\n")
    assert from_label == parse_config(components)
    assert from_label.strategy == s
    assert serialize_config(from_label) == serialize_config(parse_config(components))


def test_strategy_validation():
    with pytest.raises(ValueError, match=">= 1"):
        Strategy("global_accum", global_count=0)
    with pytest.raises(ValueError, match="does not take"):
        Strategy("async", local=2)
    with pytest.raises(ValueError):
        Strategy.parse("warp-9")


def test_degenerate_strategies_run_the_async_schedule():
    n = 4
    asynchronous = Strategy("async").effective(n)
    assert Strategy("local_accum", local=1).effective(n) == asynchronous
    assert Strategy("global_accum", global_count=1).effective(n) == asynchronous
    assert Strategy("combined", local=1, global_count=1).effective(n) == asynchronous
    assert Strategy("sync_stale", pull_every=1).effective(n) == Strategy("sync").effective(n)
    # sync aggregates all N workers per update, barrier-style
    assert Strategy("sync").effective(n) == (1, n, 1)
    assert Strategy("sync").is_barrier and not Strategy("async").is_barrier


# ---------------------------------------------------------------------------
# staleness accounting


def test_sync_staleness_all_zero():
    trace = run_simulation(_cfg(strategy=Strategy("sync")))
    mean, hist = staleness_summary(trace, warmup_pushes=0)
    assert mean == 0.0
    assert hist == {0: trace.pushes}


@pytest.mark.parametrize("u,expect", [(5, 2.0), (7, 3.0)])
def test_sync_stale_mean_is_half_u_minus_one(u, expect):
    # over whole U-cycles the per-round staleness pattern is 0,1,...,U-1
    trace = run_simulation(
        _cfg(strategy=Strategy("sync_stale", pull_every=u), budget_updates=4 * u)
    )
    mean, hist = staleness_summary(trace, warmup_pushes=0)
    assert mean == expect
    assert set(hist) == set(range(u))


def test_steady_state_async_staleness_is_n_minus_one():
    trace = run_simulation(_cfg(strategy=Strategy("async"), budget_updates=200))
    mean, _ = staleness_summary(trace)  # default warmup skips the first N pushes
    assert mean == 3.0


def test_staleness_nonnegative_and_mean_matches_rows():
    trace = run_simulation(
        _cfg(
            strategy=Strategy("combined", local=2, global_count=2),
            compute=ComputeTimeModel("normal", 1.0, 0.2),
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
    trace = run_simulation(_cfg(strategy=Strategy("async"), budget_updates=8))
    with pytest.raises(ValueError):
        staleness_summary(trace, warmup_pushes=10_000)
    with pytest.raises(ValueError):
        empty = {c: [] for c in TRACE_COLUMNS}
        staleness_summary(RunTrace(columns=empty, n_workers=1, strategy_label="async"))


# ---------------------------------------------------------------------------
# trajectory oracles


def test_one_sync_round_equals_serial_adam_on_mean_gradient():
    # A sync round with N workers is exactly one Adam step on the mean of
    # the N batch gradients, accumulated in worker-id order.
    cfg = _cfg(
        objective=ObjectiveSpec(kind="linreg", dim=5, samples=64),
        strategy=Strategy("sync"),
        batch_budget=4,
        budget_updates=1,
    )
    objective, dataset, probe, theta0 = build_experiment(cfg)
    batches = list(dynamic_batcher(dataset, cfg.batch_budget))
    accum = np.zeros(5)
    for i in range(4):
        accum += objective.grad(theta0, batches[i])
    lr = learning_rate(cfg.adam.alpha, cfg.schedule_warmup, cfg.schedule_decay, 1)
    _, expected = adam_step(AdamState.zeros(5), cfg.adam, theta0, accum / 4.0, lr)
    trace = run_simulation(cfg)
    np.testing.assert_array_equal(trace.final_theta, expected)
    assert trace.updates == 1 and trace.pushes == 4


def test_single_worker_async_is_serial_sgd():
    # N=1, L=G=1: staleness identically zero and the trajectory is plain
    # sequential SGD over the same batch stream.
    cfg = _cfg(
        objective=ObjectiveSpec(kind="linreg", dim=3, samples=24),
        workers=1,
        strategy=Strategy("async"),
        optimizer_kind="sgd",
        schedule_decay="none",
        batch_budget=4,
        budget_updates=30,
    )
    trace = run_simulation(cfg)
    assert all(r.staleness == 0 for r in trace.rows)

    objective, dataset, _, theta = build_experiment(cfg)
    batches = list(dynamic_batcher(dataset, cfg.batch_budget))
    for k in range(30):
        theta = sgd_step(theta, objective.grad(theta, batches[k % len(batches)]),
                         cfg.adam.alpha)
    np.testing.assert_array_equal(trace.final_theta, theta)


class _NegativeZeroGradient(Objective):
    """theta - target, with -0.0 for every coordinate within 0.5 of its
    target: the first from the start, the others once theta gets close."""

    dim = 4
    has_noise = False
    target = np.array([0.0, 3.0, 1.0, -2.0])

    def loss(self, theta, batch):
        return float(0.5 * np.sum((theta - self.target) ** 2))

    def grad(self, theta, batch, rng=None):
        g = theta - self.target
        g[np.abs(g) < 0.5] = -0.0
        return g


@pytest.mark.parametrize("optimizer_kind", ["sgd", "adam"])
def test_negative_zero_gradients_leave_the_bits_of_sums_from_positive_zero(optimizer_kind):
    # the engine starts each sum at its first gradient, so a sum of -0.0
    # stays -0.0; a loop that sums from +0.0 must write the same bits
    cfg = _cfg(
        workers=1,
        strategy=Strategy("global_accum", global_count=2),
        optimizer_kind=optimizer_kind,
        adam=AdamConfig(alpha=0.5),
    )
    objective = _NegativeZeroGradient()
    trace = run_simulation(cfg, objective=objective)

    theta, state = np.zeros(4), AdamState.zeros(4)
    loss, lr, rows = objective.loss(theta, None), 0.0, []
    for v in range(cfg.budget_updates):
        acc = np.zeros(4)
        for k in (2 * v + 1, 2 * v + 2):  # N=1: both pushes pull version v
            acc += objective.grad(theta, None)
            if k % 2 == 0:
                lr = learning_rate(cfg.adam.alpha, 0, cfg.schedule_decay, v + 1)
                if optimizer_kind == "sgd":
                    theta = sgd_step(theta, acc / 2, lr)
                else:
                    state, theta = adam_step(state, cfg.adam, theta, acc / 2, lr)
                loss = objective.loss(theta, None)
            rows.append(TraceRow(v + 1 - k % 2, float(k), k, 0, loss, lr, "global_accum-2", 0))
    assert trace.final_theta.tobytes() == theta.tobytes()
    assert trace.rows == rows
    # the run did sum -0.0 entries where theta is not zero
    g = objective.grad(trace.final_theta, None)
    assert np.any(np.signbit(g) & (g == 0) & (trace.final_theta != 0))


def test_build_experiment_takes_the_objective_alone_or_all_pieces():
    cfg = _cfg(objective=ObjectiveSpec(kind="linreg", dim=3, samples=24))
    pieces = build_experiment(cfg)
    assert all(a is b for a, b in zip(build_experiment(cfg, *pieces), pieces))
    with pytest.raises(ValueError, match="all four pieces"):
        build_experiment(cfg, dataset=pieces[1])


def test_mlp_splits_the_sample_counts_over_the_classes():
    # samples // classes rows per class, at least 1: 256 and 64 over 3
    # classes give 255 and 63 rows, and 2 over 3 classes one row each
    _, dataset, probe, _ = build_experiment(ExperimentConfig(objective=ObjectiveSpec(kind="mlp")))
    assert (len(dataset), len(probe)) == (255, 63)
    cfg = ExperimentConfig(objective=ObjectiveSpec(kind="mlp", samples=2), probe_samples=2)
    _, dataset, probe, _ = build_experiment(cfg)
    assert (len(dataset), len(probe)) == (3, 3)


def test_update_count_is_pushes_over_g():
    for g in (1, 2, 4):
        s = Strategy("global_accum", global_count=g) if g > 1 else Strategy("async")
        trace = run_simulation(_cfg(strategy=s, budget_updates=24))
        assert trace.updates == 24
        assert trace.pushes == g * trace.updates


def test_local_accumulation_cuts_communication_time():
    # same number of minibatch gradients, quarter the messages: with a
    # per-message latency the local-accumulation run finishes sooner
    kw = dict(comm_latency=0.5)
    t_async = run_simulation(
        _cfg(strategy=Strategy("async"), budget_updates=100, **kw)
    ).final_sim_time
    t_local = run_simulation(
        _cfg(strategy=Strategy("local_accum", local=4), budget_updates=25, **kw)
    ).final_sim_time
    assert t_local < t_async


def test_local_accum_messages_carry_summed_cost():
    trace = run_simulation(
        _cfg(strategy=Strategy("local_accum", local=4), batch_budget=2, budget_updates=10)
    )
    # every message folds L=4 batches of total_cost 2 each
    assert trace.total_cost == 10 * 4 * 2


def test_lr_column_tracks_applied_schedule():
    # schedule.batch_scale s > 0 scales the base rate to alpha * s * (L*G),
    # and combined-3-2 has L*G = 6
    for strategy, scale in (
        (Strategy("global_accum", global_count=2), 0.0),
        (Strategy("combined", local=3, global_count=2), 0.3),
    ):
        cfg = _cfg(
            strategy=strategy,
            schedule_warmup=4,
            schedule_decay="inverse-sqrt",
            schedule_batch_scale=scale,
            budget_updates=12,
        )
        trace = run_simulation(cfg)
        base = cfg.adam.alpha * scale * 6 if scale > 0 else cfg.adam.alpha
        for r in trace.rows:
            want = 0.0
            if r.update_idx > 0:
                want = base * learning_rate(1.0, 4, "inverse-sqrt", r.update_idx)
            assert r.lr == pytest.approx(want, rel=1e-12)
    # a probe that goes non-finite inside a block rolls the run back, and
    # no rate of a rolled-back version reaches a row: over warmup 16,
    # theta[0] at version v is v(v+1)/32, which passes the wall at version
    # 13, so each rolled-back rate (13/16 and up) differs from a kept one
    cfg = replace(_sgd_drift_cfg(40), schedule_warmup=16)
    trace = run_simulation(cfg, objective=_DriftPastALossWall([1.0], 5.0))
    assert trace.divergence_reason == "probe loss went non-finite at update 13"
    assert {r.update_idx for r in trace.rows} == set(range(1, 13))
    for r in trace.rows:
        assert r.lr == learning_rate(cfg.adam.alpha, 16, "none", r.update_idx)


# ---------------------------------------------------------------------------
# divergence handling


def test_divergence_detected_and_trace_preserved():
    cfg = _cfg(
        objective=ObjectiveSpec(kind="quadratic", dim=4, cond=10.0, samples=16),
        strategy=Strategy("async"),
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
        strategy=Strategy("global_accum", global_count=g),
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
    build = simulator.build_experiment
    monkeypatch.setattr(
        simulator,
        "build_experiment",
        lambda cfg, *pieces: build(cfg, objective=_HugeGradient()),
    )
    _, report = run_experiment(_overflow_cfg(4, 4), str(tmp_path))
    assert report.exit_code() == EXIT_DIVERGED


def test_parallel_accumulated_overflow_diverges_without_hanging():
    cfg = _overflow_cfg(2, 2, parallel=True, parallel_time_scale=1e-4)
    out = _finishes(lambda: run_simulation(cfg, objective=_HugeGradient()))
    assert out["trace"].diverged
    assert "non-finite" in out["trace"].divergence_reason


def test_parallel_worker_crash_stops_run_and_reraises():
    cfg = _overflow_cfg(2, 2, parallel=True, parallel_time_scale=1e-4)
    out = _finishes(lambda: run_simulation(cfg, objective=_FailingGradient()))
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
    cfg = _overflow_cfg(2, g, parallel=True, parallel_time_scale=1e-4)
    out = _finishes(lambda: run_simulation(cfg, objective=_NanGradient()))
    assert out["trace"].diverged
    assert "non-finite" in out["trace"].divergence_reason
    assert out["trace"].pushes == _NAN_ROWS[g]


class _Drift(_HugeGradient):
    """Under SGD at lr 1 from theta 0, each update adds `step` to theta."""

    def __init__(self, step):
        self.step = np.array(step)
        self.dim = len(step)

    def grad(self, theta, batch, rng=None):
        return -self.step


def _sgd_drift_cfg(updates):
    return _cfg(
        objective=ObjectiveSpec(kind="quadratic", dim=4, samples=32),
        workers=2,
        strategy=Strategy("async"),
        optimizer_kind="sgd",
        adam=AdamConfig(alpha=1.0),
        schedule_decay="none",
        budget_updates=updates,
    )


def test_finite_parameters_whose_sum_overflows_do_not_diverge():
    step = [1.7e308, 1.7e308, -1.7e308, 0.0]
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(step))
    trace = run_simulation(_sgd_drift_cfg(1), objective=_Drift(step))
    assert not trace.diverged, trace.divergence_reason
    np.testing.assert_array_equal(trace.final_theta, step)


def test_parameters_that_overflow_to_inf_diverge():
    trace = run_simulation(_sgd_drift_cfg(5), objective=_Drift([1.0, -1.7e308, 0, 0]))
    assert trace.diverged
    assert trace.divergence_reason == "parameters went non-finite at update 2"
    assert trace.updates == 1


def test_non_finite_initial_loss_ends_the_run_before_any_push():
    # 0.5*d'Ad overflows at theta0 = 0 when theta* ~ 1e200: the probe of
    # version 0 ends the run, and the trace keeps that probe's own value
    cfg = _cfg(objective=ObjectiveSpec(kind="quadratic", dim=4, theta_star_scale=1e200))
    trace = run_simulation(cfg)
    assert trace.diverged and trace.pushes == 0
    assert trace.divergence_reason == "probe loss went non-finite at update 0"
    assert trace.initial_loss == math.inf


class _DriftPastALossWall(_Drift):
    """_Drift whose probe loss is inf once theta[0] reaches `wall`."""

    def __init__(self, step, wall):
        super().__init__(step)
        self.wall = wall

    def loss(self, theta, batch):
        return math.inf if theta[0] >= self.wall else 0.0


def test_queued_non_finite_probe_wins_over_a_later_parameter_overflow():
    # theta_v = v * step: the probe goes inf at version 5, still queued
    # (blocks hold 64) when theta[1] overflows at version 18; the run ends
    # as an immediate probe would have ended it, at version 5
    step = [1.0, 1e307]
    trace = run_simulation(_sgd_drift_cfg(40), objective=_DriftPastALossWall(step, 5.0))
    assert trace.divergence_reason == "probe loss went non-finite at update 5"
    reference = run_simulation(_sgd_drift_cfg(5), objective=_Drift(step))
    assert trace.rows == reference.rows[:4]  # every row with update_idx < 5
    assert trace.final_theta.tobytes() == reference.final_theta.tobytes()
    assert trace.total_cost == reference.total_cost
    # without the loss wall the same run ends at the overflow
    overflow = run_simulation(_sgd_drift_cfg(40), objective=_Drift(step))
    assert overflow.divergence_reason == "parameters went non-finite at update 18"


class _AdamClimb(_HugeGradient):
    """Gradient -1 on both coordinates, so Adam at alpha 1 moves theta[0]
    up by ~1 per update; gradient call `at` puts `spike` on theta[1]. The
    probe loss is inf once theta[0] reaches `wall`."""

    def __init__(self, at=None, spike=0.0, wall=math.inf):
        self.at, self.spike, self.wall = at, spike, wall
        self.calls = 0

    def loss(self, theta, batch):
        return math.inf if theta[0] >= self.wall else 0.0

    def grad(self, theta, batch, rng=None):
        self.calls += 1
        return np.array([-1.0, self.spike if self.calls == self.at else -1.0])


def _adam_climb_cfg(updates):
    return replace(_sgd_drift_cfg(updates), optimizer_kind="adam")


def test_adam_overflow_wins_over_a_later_probe_in_its_block():
    # g = 1e200 overflows v[1] at version 9 while theta stays finite (the
    # step divides m by sqrt(inf)); the loss wall at version ~20 sits in
    # the same 64-version block, so the earliest failure, v's, ends the run
    trace = run_simulation(
        _adam_climb_cfg(40), objective=_AdamClimb(at=9, spike=1e200, wall=19.5)
    )
    assert trace.divergence_reason == "Adam's second moment went non-finite at update 9"
    assert np.isfinite(trace.final_theta).all()
    reference = run_simulation(_adam_climb_cfg(8), objective=_AdamClimb())
    assert trace.rows == reference.rows  # every row with update_idx < 9
    assert trace.total_cost == reference.total_cost + 1  # one batch per push
    wall = run_simulation(_adam_climb_cfg(40), objective=_AdamClimb(wall=19.5))
    assert wall.divergence_reason == "probe loss went non-finite at update 20"


def test_parameters_come_before_adam_at_one_version():
    # a nan gradient makes theta and v non-finite at the same update
    trace = run_simulation(_adam_climb_cfg(40), objective=_AdamClimb(at=9, spike=math.nan))
    assert trace.divergence_reason == "parameters went non-finite at update 9"
    assert trace.pushes == 8


class _DriftLossRejectsNonFinite(_Drift):
    """_Drift whose loss raises on parameters that are not finite."""

    def loss(self, theta, batch):
        if not np.isfinite(theta).all():
            raise AssertionError(f"probed non-finite parameters {theta}")
        return 0.0


def test_versions_past_a_parameter_overflow_are_never_probed():
    # theta[1] overflows at version 18 of the first block; only versions
    # 0-17 are probed, so the loss never sees a non-finite row
    trace = run_simulation(
        _sgd_drift_cfg(40), objective=_DriftLossRejectsNonFinite([1.0, 1e307])
    )
    assert trace.divergence_reason == "parameters went non-finite at update 18"
    assert trace.updates == 17


# ---------------------------------------------------------------------------
# versions made in waves: an update is applied when a worker first reads
# its version, or when the loop ends


def _wave_cfg(updates):
    # 16 equal-speed workers: a version is first read ~15 updates after it
    # is made, so the run makes versions ~16 at a time
    return replace(_adam_climb_cfg(updates), workers=16)


class _AdamClimbThen(_AdamClimb):
    """_AdamClimb whose gradient call `fail_at` raises `bad` if it is an
    exception, and else returns it as the gradient."""

    def __init__(self, fail_at, bad, **kw):
        super().__init__(**kw)
        self.fail_at, self.bad = fail_at, bad

    def grad(self, theta, batch, rng=None):
        g = super().grad(theta, batch, rng)
        if self.calls != self.fail_at:
            return g
        if isinstance(self.bad, Exception):
            raise self.bad
        return self.bad


def test_an_error_loses_to_an_earlier_version_still_pending():
    # v overflows at version 40; gradient call 42 raises while version 40
    # is still pending (its first reader completes ~15 calls later), so the
    # loop's finally makes it and probes it, and the run ends there as it
    # does when nothing raises
    crash = RuntimeError("worker crashed")
    crashed = run_simulation(_wave_cfg(100), objective=_AdamClimbThen(42, crash, at=40, spike=1e200))
    plain = run_simulation(_wave_cfg(100), objective=_AdamClimb(at=40, spike=1e200))
    assert crashed.divergence_reason == "Adam's second moment went non-finite at update 40"
    assert crashed.divergence_reason == plain.divergence_reason
    assert crashed.rows == plain.rows
    assert crashed.final_theta.tobytes() == plain.final_theta.tobytes()
    assert crashed.total_cost == plain.total_cost
    with pytest.raises(RuntimeError, match="worker crashed"):
        run_simulation(_wave_cfg(100), objective=_AdamClimbThen(42, crash))


@pytest.mark.parametrize("spike_at, updates", [(None, 100), (25, 100), (25, 30)])
def test_a_wrong_shape_gradient_raises_the_step_error_after_the_versions_before_it(
    spike_at, updates
):
    # update 30's gradient has 3 entries; its wave also holds versions 17-29,
    # which are made and probed first, so an overflow at 25 ends the run.
    # At 30 updates that wave is the one the loop's finally makes
    objective = _AdamClimbThen(30, np.zeros(3), at=spike_at, spike=1e200)
    if spike_at is None:
        with pytest.raises(ValueError) as raised:
            run_simulation(_wave_cfg(updates), objective=objective)
        assert str(raised.value) == "dimension mismatch: theta (2,), g (3,), m (2,)"
    else:
        trace = run_simulation(_wave_cfg(updates), objective=objective)
        assert trace.divergence_reason == "Adam's second moment went non-finite at update 25"


def test_a_block_probe_that_diverges_after_a_wave_leaves_no_version_to_make(monkeypatch):
    # v overflows at version 100: a block probe after a wave finds it, and
    # the run makes no version after that probe raised
    made, at_raise = [0], []
    step, steps, probe_block = simulator.adam_step, simulator.adam_steps, simulator._probe_block

    def counting_step(*args):
        made[0] += 1
        return step(*args)

    def counting_steps(*args):
        out = steps(*args)
        made[0] += len(out[1])
        return out

    def probing(*args):
        try:
            probe_block(*args)
        except DivergenceError:
            at_raise.append(made[0])
            raise

    monkeypatch.setattr(simulator, "adam_step", counting_step)
    monkeypatch.setattr(simulator, "adam_steps", counting_steps)
    monkeypatch.setattr(simulator, "_probe_block", probing)
    trace = run_simulation(_wave_cfg(400), objective=_AdamClimb(at=100, spike=1e200))
    assert trace.divergence_reason == "Adam's second moment went non-finite at update 100"
    assert at_raise == [made[0]] and 100 < made[0] < 400


def test_non_finite_initial_parameters_diverge_at_update_0():
    cfg = _cfg()
    objective, dataset, probe, theta0 = build_experiment(cfg)
    theta0 = theta0.copy()
    theta0[2] = math.nan
    trace = run_simulation(cfg, objective, dataset, probe, theta0)
    assert trace.diverged and trace.rows == []
    assert trace.divergence_reason == "parameters went non-finite at update 0"
    assert math.isnan(trace.initial_loss)

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    doc = json.loads(summarize(trace, cfg, trace.initial_loss).to_json(), parse_constant=reject)
    assert doc["initial_loss"] is None and doc["diverged"] is True


# ---------------------------------------------------------------------------
# pulled snapshots are shared, read-only arrays


class _WritesTheta(_HugeGradient):
    """Records whether each theta it is handed is writeable, and writes into
    it when `write` is set."""

    def __init__(self, write=False):
        self.write = write
        self.writeable = []

    def grad(self, theta, batch, rng=None):
        self.writeable.append(theta.flags.writeable)
        if self.write:
            theta[0] = 1.0
        return np.zeros(2)


@pytest.mark.parametrize("strategy", [Strategy("async"), Strategy("sync")])
def test_pulled_snapshots_are_read_only(strategy):
    objective = _WritesTheta()
    run_simulation(_cfg(strategy=strategy, budget_updates=20), objective=objective)
    assert len(objective.writeable) >= 20 and not any(objective.writeable)
    with pytest.raises(ValueError, match="read-only"):
        run_simulation(_cfg(strategy=strategy), objective=_WritesTheta(write=True))


# ---------------------------------------------------------------------------
# probe loss once per parameter version


class _CountingObjective(Objective):
    """A noisy quadratic that counts its probe-loss calls."""

    def __init__(self, dim=4):
        self.inner = Quadratic.random(dim, seed=0, cond=3.0, noise_sigma=1.0)
        self.dim = dim
        self.has_noise = True
        self.loss_calls = 0

    def loss(self, theta, batch):
        self.loss_calls += 1
        return self.inner.loss(theta, batch)

    def grad(self, theta, batch, rng=None):
        return self.inner.grad(theta, batch, rng)


@pytest.mark.parametrize("strategy", [Strategy("global_accum", global_count=4), Strategy("sync")])
def test_probe_loss_runs_once_per_version(strategy):
    objective = _CountingObjective()
    trace = run_simulation(_cfg(strategy=strategy), objective=objective)
    assert objective.loss_calls == trace.updates + 1  # versions 0..updates


@pytest.mark.parametrize(
    "strategy",
    [
        Strategy("global_accum", global_count=2),
        Strategy("sync"),
        # a completion below L restarts its worker without a push
        Strategy("local_accum", local=3),
        Strategy("combined", local=2, global_count=2),
    ],
)
def test_wrappers_patched_into_module_globals_see_every_call(monkeypatch, strategy):
    # an outside tracer (perfbench's) swaps a wrapper in for a function in
    # every stalesim module that holds it as a global, then runs; the run
    # must call the wrappers for every optimizer update, one adam_step
    # call per update stepped alone and one adam_steps call per long wave,
    # and for each duration draw. At 16 workers global_accum-2 and
    # local_accum-3 make waves of 5 or more updates; sync and combined-2-2
    # (~15/4 updates a wave) step each update at its push
    calls, rows = Counter(), Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "stalesim"]
    for fn in (adam_step, adam_steps, sample_compute_time):

        def counting(*args, fn=fn):
            calls[fn.__name__] += 1
            out = fn(*args)
            rows[fn.__name__] += len(out[1]) if fn is adam_steps else 1
            return out

        for m in modules:
            if m.__dict__.get(fn.__name__) is fn:
                monkeypatch.setattr(m, fn.__name__, counting)
    cfg = _cfg(strategy=strategy, workers=16, compute=ComputeTimeModel("normal", 1.0, 0.2))
    objective = build_experiment(cfg)[0]
    grad = objective.grad

    def counting_grad(*args):
        calls["grad"] += 1  # one gradient per completion
        return grad(*args)

    objective.grad = counting_grad
    trace = run_simulation(cfg, objective=objective)
    assert trace.updates == cfg.budget_updates
    assert rows["adam_step"] + rows["adam_steps"] == trace.updates
    assert (calls["adam_steps"] > 0) == (strategy.kind in ("global_accum", "local_accum"))
    # each worker starts once, then once more after each of its completions
    # (under a barrier, all N start again once the round's N have finished)
    assert calls["sample_compute_time"] == cfg.workers + calls["grad"]
    # each push sums L gradients; each worker ends holding at most L-1
    # unpushed ones (at L=1, one gradient per push)
    local = strategy.effective(cfg.workers)[0]
    assert 0 <= calls["grad"] - trace.pushes * local <= cfg.workers * (local - 1)


_FAMILIES = {
    "sync": lambda l, g, u: Strategy("sync"),
    "sync_stale": lambda l, g, u: Strategy("sync_stale", pull_every=u),
    "async": lambda l, g, u: Strategy("async"),
    "local_accum": lambda l, g, u: Strategy("local_accum", local=l),
    "global_accum": lambda l, g, u: Strategy("global_accum", global_count=g),
    "combined": lambda l, g, u: Strategy("combined", local=l, global_count=g),
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
    """Over random N, L, G, U and costs: one probe per version (versions
    0..updates), pushes = updates x G plus a remainder below G, staleness
    >= 0, and the trace survives a CSV round trip."""
    strategy = _FAMILIES[family](l, g, u)
    cfg = _cfg(
        workers=n,
        strategy=strategy,
        batch_budget=4,
        batch_cost_max=cost_max,
        compute=ComputeTimeModel("normal", 1.0, 0.2),
        budget_updates=10,
    )
    objective = _CountingObjective()
    trace = run_simulation(cfg, objective=objective)
    assert objective.loss_calls == trace.updates + 1
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


def _exact_mean_staleness(trace, warmup_pushes=None):
    _, hist = staleness_summary(trace, warmup_pushes)
    return Fraction(sum(k * v for k, v in hist.items()), sum(hist.values()))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    l=st.integers(1, 4),
    g=st.integers(1, 4),
    blocks=st.integers(1, 4),
)
def test_async_family_steady_state_staleness_is_n_minus_one_over_g(n, l, g, blocks):
    """combined(L, G) with equal-speed workers: once every worker has
    pushed, each update is shared by G pushes, so the mean staleness over
    whole G-push blocks is exactly (N-1)/G, whatever L is."""
    warmup = g * -(-n // g)  # G * ceil(N/G)
    trace = run_simulation(
        _cfg(
            workers=n,
            strategy=Strategy("combined", local=l, global_count=g),
            budget_updates=warmup // g + blocks,
        )
    )
    assert _exact_mean_staleness(trace, warmup) == Fraction(n - 1, g)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    u=st.integers(1, 4),
    cycles=st.integers(1, 4),
    cost_max=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_barrier_family_staleness_is_half_u_minus_one(n, u, cycles, cost_max, seed):
    """sync_stale-U (sync for U=1) with noisy compute: after the first
    round, each pull period gives staleness 0, 1, ..., U-1 to all N
    pushes, so the mean over whole periods is exactly (U-1)/2."""
    trace = run_simulation(
        _cfg(
            workers=n,
            strategy=Strategy("sync_stale", pull_every=u) if u > 1 else Strategy("sync"),
            batch_budget=4,
            batch_cost_max=cost_max,
            compute=ComputeTimeModel("normal", 1.0, 0.2),
            budget_updates=cycles * u + 1,
            seed=seed,
        )
    )
    assert _exact_mean_staleness(trace) == Fraction(u - 1, 2)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    family=st.sampled_from(sorted(_FAMILIES)),
    l=st.integers(1, 4),
    g=st.integers(1, 4),
    u=st.integers(1, 4),
    cost_max=st.integers(1, 4),
)
def test_mean_and_sum_combine_agree_under_scale_invariant_adam(
    n, family, l, g, u, cost_max
):
    """With epsilon = 0 Adam ignores the gradient scale, so summing instead
    of averaging the L*G accumulated gradients changes neither the event
    order nor, up to rounding, the parameters."""
    runs = [
        run_simulation(
            _cfg(
                workers=n,
                strategy=_FAMILIES[family](l, g, u),
                adam=AdamConfig(epsilon=0.0),
                combine=combine,
                batch_budget=4,
                batch_cost_max=cost_max,
                compute=ComputeTimeModel("normal", 1.0, 0.2),
                budget_updates=10,
            )
        )
        for combine in ("mean", "sum")
    ]
    mean_run, sum_run = runs
    assert [r.staleness for r in mean_run.rows] == [r.staleness for r in sum_run.rows]
    np.testing.assert_allclose(sum_run.final_theta, mean_run.final_theta, rtol=1e-12)


def test_parallel_probe_cache_holds_when_paced():
    objective = _CountingObjective()
    cfg = _cfg(
        workers=8,
        strategy=Strategy("global_accum", global_count=4),
        compute=ComputeTimeModel("constant", 0.001),
        budget_updates=30,
        parallel=True,
        parallel_time_scale=0.01,
    )
    trace = _finishes(lambda: run_simulation(cfg, objective=objective))["trace"]
    assert trace.updates == 30
    assert objective.loss_calls == len({r.update_idx for r in trace.rows})
    first = {}
    for r in trace.rows:  # every row of a version carries that version's loss
        assert first.setdefault(r.update_idx, r.loss_probe) == r.loss_probe
    assert 0 <= trace.pushes - trace.updates * 4 < 4


class _ProbeRecorder:
    """Stands in for an Objective as a tracer's wrapper does: loss and grad
    are instance attributes, anything else is the wrapped objective's.
    Keeps each array it is probed on."""

    def __init__(self, inner):
        self._inner = inner
        self.grad = inner.grad
        self.probed = []

        def loss(theta, batch):
            self.probed.append(theta)
            return inner.loss(theta, batch)

        self.loss = loss

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("kind", ["quadratic", "mlp"])
def test_a_wrapper_that_is_not_an_objective_is_probed_once_per_version_on_its_rows(
    tmp_path, monkeypatch, kind
):
    # 150 updates at 12 workers: version 0 alone, then blocks of at least
    # 64 versions each; with compute times this noisy the waves run from
    # 1 to ~16 versions, so both adam_step and adam_steps make some
    cfg = _cfg(objective=ObjectiveSpec(kind=kind, samples=32), workers=12,
               compute=ComputeTimeModel("normal", 1.0, 0.5), budget_updates=150)
    objective, *rest = build_experiment(cfg)
    versions = [rest[-1]]  # theta0, then each update's parameters
    step, steps = simulator.adam_step, simulator.adam_steps

    def recording(*args):
        state, theta = step(*args)
        versions.append(theta)
        return state, theta

    def recording_rows(*args):
        state, thetas, vs = steps(*args)
        versions.extend(thetas)
        return state, thetas, vs

    monkeypatch.setattr(simulator, "adam_step", recording)
    monkeypatch.setattr(simulator, "adam_steps", recording_rows)
    wrapper = _ProbeRecorder(objective)
    run_simulation(cfg, wrapper, *rest).to_csv(str(tmp_path / "wrapped.csv"))
    assert len(wrapper.probed) == len(versions) == 151
    assert any(v.base is not None for v in versions[1:])  # adam_steps' rows
    assert any(v.base is None for v in versions[1:])  # adam_step's own arrays
    for probed, theta in zip(wrapper.probed, versions):
        assert not probed.flags.writeable
        assert probed.tobytes() == theta.tobytes()
    run_simulation(cfg, objective, *rest).to_csv(str(tmp_path / "plain.csv"))
    assert (tmp_path / "wrapped.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_a_wrapper_that_is_not_an_objective_rolls_back_as_the_objective_does():
    # the probe goes inf at version 5, mid-block (see
    # test_queued_non_finite_probe_wins_over_a_later_parameter_overflow)
    step = [1.0, 1e307]
    runs = [
        run_simulation(_sgd_drift_cfg(40), objective=objective)
        for objective in (_DriftPastALossWall(step, 5.0),
                          _ProbeRecorder(_DriftPastALossWall(step, 5.0)))
    ]
    plain, wrapped = runs
    assert wrapped.divergence_reason == plain.divergence_reason
    assert plain.divergence_reason == "probe loss went non-finite at update 5"
    assert wrapped.rows == plain.rows
    assert wrapped.final_theta.tobytes() == plain.final_theta.tobytes()
    assert wrapped.total_cost == plain.total_cost


# ---------------------------------------------------------------------------
# runs that share a dataset's cut


def _csv(trace: RunTrace) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.csv")
        trace.to_csv(path)
        with open(path, "rb") as f:
            return f.read()


def _record_batches(objective, seen: list) -> None:
    """Make objective's grad append each batch it is given to seen."""
    grad = objective.grad

    def recording(theta, batch, rng=None):
        seen.append(batch)
        return grad(theta, batch, rng)

    objective.grad = recording


_SHARED_STRATEGIES = [Strategy("sync"), Strategy("async"), Strategy("global_accum", global_count=2)]


@pytest.mark.parametrize("kind", ["quadratic", "linreg", "mlp"])
def test_runs_on_shared_pieces_replay_one_cut_and_write_the_bytes_of_fresh_pieces(kind):
    cfgs = [
        _cfg(
            objective=ObjectiveSpec(kind=kind, dim=4, samples=48, noise_sigma=1.0),
            strategy=s,
            batch_budget=5,
            batch_cost_max=3,
            compute=ComputeTimeModel("normal", 1.0, 0.2),
            budget_updates=30,
        )
        for s in _SHARED_STRATEGIES
    ]
    pieces = build_experiment(cfgs[0])
    seen = []
    _record_batches(pieces[0], seen)
    shared = [_csv(run_simulation(cfg, *pieces)) for cfg in cfgs]
    assert shared == [_csv(run_simulation(cfg)) for cfg in cfgs]
    views = list(dynamic_batcher(pieces[1], 5))
    assert len(seen) > 2 * len(views)  # every run wrapped
    assert {id(b) for b in seen} == {id(b) for b in views}


@pytest.mark.parametrize("kind", ["quadratic", "linreg", "mlp"])
def test_a_shared_dataset_leaves_no_reference_cycle(kind):
    # the cut a dataset keeps holds its costs, not the dataset, so the
    # dataset goes with its last reference, without the cycle collector
    cfg = _cfg(
        objective=ObjectiveSpec(kind=kind, dim=4, samples=48),
        batch_budget=5,
        batch_cost_max=3,
        budget_updates=30,
    )
    gc.disable()
    try:
        pieces = build_experiment(cfg)
        costs = weakref.ref(pieces[1].costs)
        for _ in range(2):
            run_simulation(cfg, *pieces)
        assert 5 in pieces[1]._cuts  # the runs share a cut
        del pieces
        assert costs() is None
    finally:
        gc.enable()


def test_threads_on_one_set_of_pieces_write_the_serial_bytes():
    # four threads, each running its own strategy on the same fresh
    # pieces, so that they race to scan and to cut
    strategies = _SHARED_STRATEGIES + [Strategy("combined", local=2, global_count=2)]
    cfgs = [
        _cfg(
            objective=ObjectiveSpec(kind="linreg", dim=6, samples=200),
            strategy=s,
            batch_budget=4,
            batch_cost_max=3,
            compute=ComputeTimeModel("normal", 1.0, 0.2),
            budget_updates=60,
        )
        for s in strategies
    ]
    serial = [_csv(run_simulation(cfg)) for cfg in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-cut included
    try:
        for _ in range(3):
            pieces = build_experiment(cfgs[0])
            barrier = threading.Barrier(len(cfgs), timeout=60)

            def run(cfg):
                barrier.wait()
                return run_simulation(cfg, *pieces)

            with ThreadPoolExecutor(max_workers=len(cfgs)) as pool:
                futures = [pool.submit(run, cfg) for cfg in cfgs]
                traces = [f.result(timeout=60) for f in futures]
            assert [_csv(t) for t in traces] == serial
    finally:
        sys.setswitchinterval(interval)


# the benchmark's quad-async workload at seed 1: 89 batches of budget 8
_QUAD_ASYNC = """\
objective.kind = quadratic
objective.dim = 20
objective.noise_sigma = 2.0
workers = 16
strategy = async
batch.budget = 8
batch.cost_max = 4
compute.kind = normal
compute.mean = 1.0
compute.std = 0.2
optimizer.alpha = 0.01
budget.updates = 200
seed = 1
"""


def test_a_run_past_one_pass_wraps_to_the_first_batch():
    cfg = parse_config(_QUAD_ASYNC)
    pieces = build_experiment(cfg)
    views = list(dynamic_batcher(pieces[1], cfg.batch_budget))
    assert len(views) == 89
    # one worker takes the batches in the order the run hands them out
    one = replace(cfg, workers=1)
    seen = []
    _record_batches(pieces[0], seen)
    for _ in range(2):
        seen.clear()
        run_simulation(one, *pieces)
        assert len(seen) == 200
        assert all(b is views[i % 89] for i, b in enumerate(seen))
    # sixteen workers: the same bytes on the shared cut as on fresh pieces
    fresh = _csv(run_simulation(cfg))
    assert _csv(run_simulation(cfg, *pieces)) == _csv(run_simulation(cfg, *pieces)) == fresh


# ---------------------------------------------------------------------------
# trace csv round trip


def test_trace_csv_round_trip(tmp_path):
    trace = run_simulation(
        _cfg(strategy=Strategy("combined", local=2, global_count=2), budget_updates=12)
    )
    path = str(tmp_path / "trace.csv")
    trace.to_csv(path)
    back = RunTrace.from_csv(path)
    assert back.rows == trace.rows
    assert back.n_workers == trace.n_workers
    assert back.strategy_label == trace.strategy_label
    assert back.diverged == trace.diverged


def test_trace_csv_keeps_float_precision(tmp_path):
    # NumPy floats reach the rows from NumPy-typed config values
    for num in (float, np.float64):
        row = TraceRow(
            update_idx=1,
            sim_time_s=num(1.0000000000000002),
            pushes=1,
            staleness=0,
            loss_probe=num(0.1 + 0.2),
            lr=num(3e-4),
            strategy="async",
            worker_id=0,
        )
        columns = {c: [cell] for c, cell in zip(TRACE_COLUMNS, row)}
        trace = RunTrace(columns=columns, n_workers=1, strategy_label="async")
        path = str(tmp_path / f"{num.__name__}.csv")
        trace.to_csv(path)
        assert RunTrace.from_csv(path).rows[0] == row


def _per_row_csv(trace: RunTrace) -> bytes:
    """trace.csv as a writer that joins each row's str cells by commas
    writes it: the reference for to_csv's chunked formatting."""
    lines = [
        "# schema=trace-v1\n",
        f"# workers={trace.n_workers}\n",
        f"# strategy={trace.strategy_label}\n",
        ",".join(TRACE_COLUMNS) + "\n",
    ]
    rows = zip(*(trace.columns[c] for c in TRACE_COLUMNS))
    lines += [",".join(map(str, row)) + "\n" for row in rows]
    lines.append(f"# diverged={'true' if trace.diverged else 'false'}\n")
    if trace.divergence_reason:
        lines.append("# reason=" + trace.divergence_reason.replace("\n", " ") + "\n")
    return "".join(lines).encode()


_EDGE_FLOATS = [
    -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0000000000000002, 1e300,
    np.float64(0.1 + 0.2), np.float64(-0.0), np.float64(math.nan), np.float64(-5e-324),
]


@pytest.mark.parametrize(
    "pushes", [0, 1, 7, simulator._CSV_CHUNK, 2 * simulator._CSV_CHUNK + 3]
)
def test_trace_csv_bytes_match_the_per_row_writer(tmp_path, pushes):
    cell = lambda i: _EDGE_FLOATS[i % len(_EDGE_FLOATS)]  # noqa: E731
    columns = {
        "update_idx": [i // 3 for i in range(pushes)],
        "sim_time_s": [cell(i) for i in range(pushes)],
        "pushes": list(range(1, pushes + 1)),
        "staleness": [i % 4 for i in range(pushes)],
        "loss_probe": [cell(7 * i + 3) for i in range(pushes)],
        "lr": [cell(3 * i + 1) for i in range(pushes)],
        "strategy": ["global_accum-4"] * pushes,
        "worker_id": [i % 5 for i in range(pushes)],
    }
    trace = RunTrace(
        columns=columns,
        n_workers=5,
        strategy_label="global_accum-4",
        diverged=pushes % 2 == 1,
        divergence_reason="probe loss\nwent non-finite" if pushes % 2 else None,
    )
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    assert path.read_bytes() == _per_row_csv(trace)
    back = RunTrace.from_csv(str(path))
    # compared as str, since nan != nan
    assert {c: list(map(str, back.columns[c])) for c in TRACE_COLUMNS} == {
        c: list(map(str, columns[c])) for c in TRACE_COLUMNS
    }
    assert back.diverged == trace.diverged
    if pushes % 2:
        assert back.divergence_reason == "probe loss went non-finite"


def test_trace_csv_formats_runs_of_one_object_not_of_one_value(tmp_path):
    # the version columns hold one object per version, which to_csv
    # formats once per run; equal values that are distinct objects must
    # each be written as their own str
    nan_a, nan_b = float("nan"), float("nan")
    one_a, one_b = float("1.5"), float("1.5")
    big_a, big_b = int("1000"), int("1000")
    assert one_a is not one_b and big_a is not big_b
    repeated = 0.1 + 0.2
    floats = [0.0, -0.0, 0.0, nan_a, nan_b, nan_a, one_a, one_b, -0.0, -0.0] + [repeated] * 5
    ints = [big_a, big_b, big_b, 7, big_a] + [big_b] * 10
    # past a chunk boundary, runs of one object continue across it
    floats = floats * 20 + [-0.0] * (simulator._CSV_CHUNK + 9)
    ints = ints * 20 + [big_a] * (simulator._CSV_CHUNK + 9)
    n = len(floats)
    columns = {
        "update_idx": ints,
        "sim_time_s": floats[::-1],
        "pushes": list(range(1, n + 1)),
        "staleness": ints[::-1],
        "loss_probe": floats,
        "lr": floats[3:] + floats[:3],
        "strategy": ["async"] * n,
        "worker_id": [0] * n,
    }
    trace = RunTrace(columns=columns, n_workers=1, strategy_label="async")
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    assert path.read_bytes() == _per_row_csv(trace)


def test_trace_csv_rejects_other_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# schema=trace-v0\nupdate_idx\n")
    with pytest.raises(ValueError):
        RunTrace.from_csv(str(path))


# ---------------------------------------------------------------------------
# paced runs (cfg.parallel)


@pytest.mark.parametrize(
    "strategy,allowed",
    [(Strategy("sync"), {0}), (Strategy("sync_stale", pull_every=3), {0, 1, 2})],
    ids=["sync", "sync_stale-3"],
)
def test_parallel_runs_barrier_strategies(strategy, allowed):
    cfg = _cfg(
        strategy=strategy,
        compute=ComputeTimeModel("constant", 0.1),
        budget_updates=12,
        parallel=True,
        parallel_time_scale=0.01,
    )
    trace = _finishes(lambda: run_simulation(cfg))["trace"]
    assert trace.updates == 12
    assert trace.pushes == cfg.workers * trace.updates
    assert {r.staleness for r in trace.rows} <= allowed


def test_parallel_sleeps_the_comm_latency():
    # a paced completion is observed at start + d or later, and the
    # worker's next start is the push time plus the message latency, as in
    # a serial run
    cfg = _cfg(
        workers=1,
        compute=ComputeTimeModel("constant", 0.4),
        comm_latency=0.2,
        budget_updates=6,
        parallel=True,
        parallel_time_scale=0.1,
    )
    rows = run_simulation(cfg).rows
    gaps = [b.sim_time_s - a.sim_time_s for a, b in zip(rows, rows[1:])]
    assert len(gaps) == 5
    assert min(gaps) >= 0.6 - 1e-9, gaps


def test_parallel_staggers_the_first_starts():
    # worker 1 starts at 1/2 simulated seconds; worker 0 finishes its
    # first ten batches of 0.01 s before then, as it does serially
    cfg = _cfg(
        workers=2,
        compute=ComputeTimeModel("constant", 0.01),
        budget_updates=10,
        parallel=True,
        parallel_time_scale=0.2,
    )
    serial = replace(cfg, parallel=False)
    assert [r.worker_id for r in run_simulation(serial).rows] == [0] * 10
    assert [r.worker_id for r in run_simulation(cfg).rows] == [0] * 10


def test_parallel_single_worker_matches_serial_trajectory():
    cfg = _cfg(
        objective=ObjectiveSpec(kind="quadratic", dim=4, cond=3.0,
                                noise_sigma=0.5, samples=32),
        workers=1,
        strategy=Strategy("async"),
        compute=ComputeTimeModel("constant", 0.001),
        budget_updates=50,
        parallel=True,
        parallel_time_scale=1.0,
    )
    serial = run_simulation(replace(cfg, parallel=False))
    paced = run_simulation(cfg)
    assert len(paced.rows) == len(serial.rows)
    for a, b in zip(serial.rows, paced.rows):
        # identical state machine, real clock: timestamps differ, math not
        assert (a.update_idx, a.pushes, a.staleness, a.worker_id) == (
            b.update_idx, b.pushes, b.staleness, b.worker_id)
        assert a.loss_probe == b.loss_probe
        assert a.lr == b.lr
    np.testing.assert_array_equal(serial.final_theta, paced.final_theta)


def test_parallel_respects_update_budget():
    trace = run_simulation(
        _cfg(
            strategy=Strategy("global_accum", global_count=4),
            compute=ComputeTimeModel("constant", 0.001),
            budget_updates=25,
            parallel=True,
            parallel_time_scale=0.05,
        )
    )
    assert trace.updates == 25
    assert all(r.staleness >= 0 for r in trace.rows)


def test_run_simulation_paces_exactly_when_the_config_says_parallel():
    # the config key alone picks the clock: paced, the run sleeps until its
    # last completion; serial, the same config returns at once
    cfg = _cfg(
        workers=2,
        compute=ComputeTimeModel("constant", 0.5),
        budget_updates=8,
        parallel=True,
        parallel_time_scale=0.1,
    )
    walls = {}
    for parallel in (True, False):
        begin = time.monotonic()
        trace = run_simulation(replace(cfg, parallel=parallel))
        walls[parallel] = time.monotonic() - begin, trace.final_sim_time
    paced_wall, paced_end = walls[True]
    serial_wall, serial_end = walls[False]
    assert paced_wall >= paced_end * cfg.parallel_time_scale >= 0.2
    assert serial_wall < serial_end * cfg.parallel_time_scale


def test_parallel_stops_before_sleeping_past_the_sim_time_budget():
    # the first completion falls due at 20 simulated seconds, past the
    # 5 s budget: the run ends without sleeping the 2 s of real time to it
    cfg = _cfg(
        workers=1,
        batch_budget=1,
        compute=ComputeTimeModel("constant", 20.0),
        budget_sim_time=5.0,
        parallel=True,
        parallel_time_scale=0.1,
    )
    out = _finishes(lambda: run_simulation(cfg), timeout=0.5)
    assert out["trace"].rows == []


class _SlowGradient(_CountingObjective):
    """Takes 100 ms of real time per gradient."""

    def grad(self, theta, batch, rng=None):
        time.sleep(0.1)
        return super().grad(theta, batch, rng)


def test_parallel_stops_when_a_push_step_runs_past_the_sim_time_budget():
    # the second completion falls due at ~2 simulated seconds, inside the
    # 50 s budget, but the first push step takes 100 simulated seconds:
    # the run observes it past the budget and stops without another row.
    # The first completion falls due at 1 s (1 ms of real time); a sleep
    # that overshoots still observes it well inside the budget
    cfg = _cfg(
        workers=1,
        budget_sim_time=50.0,
        parallel=True,
        parallel_time_scale=0.001,
    )
    trace = _finishes(lambda: run_simulation(cfg, objective=_SlowGradient()))["trace"]
    assert len(trace.rows) == 1
    assert all(r.sim_time_s <= 50.0 for r in trace.rows)


class _ThreadCountingObjective(_CountingObjective):
    """Records threading.active_count() at every gradient."""

    def __init__(self):
        super().__init__()
        self.thread_counts = set()

    def grad(self, theta, batch, rng=None):
        self.thread_counts.add(threading.active_count())
        return super().grad(theta, batch, rng)


def test_parallel_paces_on_the_calling_thread():
    # no thread per worker: every gradient sees the threads alive before
    # the run, and completions are observed in time order
    objective = _ThreadCountingObjective()
    cfg = _cfg(
        workers=8,
        compute=ComputeTimeModel("normal", 1.0, 0.3),
        budget_updates=40,
        parallel=True,
        parallel_time_scale=0.001,
    )
    before = threading.active_count()
    trace = run_simulation(cfg, objective=objective)
    assert trace.updates == 40
    assert objective.thread_counts == {before}
    times = [r.sim_time_s for r in trace.rows]
    assert times == sorted(times)
