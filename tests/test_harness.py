"""Experiment runner, summaries, thresholds, sweeps, selftests, CLI."""

import json
import os
import time

import numpy as np
import pytest

from stalesim import harness
from stalesim.cli import main
from stalesim.config import ObjectiveSpec, default_config, serialize_config
from stalesim.core import ComputeTimeModel
from stalesim.harness import (
    EXIT_CONFIG_ERROR,
    EXIT_DIVERGED,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_THRESHOLDS,
    OUT_DIR_ENV,
    SUMMARY_SCHEMA,
    resolve_out_dir,
    run_experiment,
    selftest_adam_table,
    selftest_gradients,
    selftest_staleness_table,
    summarize,
    sweep,
)
from stalesim.optim import AdamConfig
from stalesim.simulator import Strategy, run_simulation


def _fast_cfg(**kw):
    base = dict(
        objective=ObjectiveSpec(kind="quadratic", dim=6, cond=5.0, samples=32),
        workers=4,
        strategy=Strategy.asynchronous(),
        adam=AdamConfig(alpha=0.05),
        schedule_decay="none",
        batch_budget=1,
        compute=ComputeTimeModel.constant(1.0),
        budget_updates=400,
        seed=1,
    )
    base.update(kw)
    return default_config(**base)


# ---------------------------------------------------------------------------
# summaries and thresholds


def test_summary_thresholds_match_independent_scan():
    cfg = _fast_cfg(thresholds=(0.5, 0.1, 0.01))
    trace = run_simulation(cfg)
    initial = trace.rows[0].loss_probe * 1.05  # any positive starting level
    report = summarize(trace, cfg, initial_loss=initial)
    assert len(report.thresholds) == 3
    for t in report.thresholds:
        level = cfg.thresholds_target + t.value * (initial - cfg.thresholds_target)
        assert t.loss_level == pytest.approx(level)
        hits = [r.sim_time_s for r in trace.rows if r.loss_probe <= t.loss_level]
        if hits:
            assert t.reached and t.sim_time_s == hits[0]
        else:
            assert not t.reached and t.sim_time_s is None


def test_time_to_threshold_monotone_in_difficulty():
    cfg = _fast_cfg(thresholds=(0.9, 0.5, 0.2, 0.05))
    trace = run_simulation(cfg)
    report = summarize(trace, cfg, initial_loss=trace.rows[0].loss_probe)
    times = [t.sim_time_s for t in report.thresholds if t.reached]
    assert times == sorted(times)


def test_unreached_threshold_flips_exit_code():
    cfg = _fast_cfg(budget_updates=4, thresholds=(0.001,))
    trace = run_simulation(cfg)
    report = summarize(trace, cfg, initial_loss=trace.rows[0].loss_probe)
    assert any(not t.reached for t in report.thresholds)
    assert report.exit_code() == EXIT_THRESHOLDS


def test_exit_code_ok_when_all_reached():
    cfg = _fast_cfg(thresholds=(0.9,))
    trace = run_simulation(cfg)
    report = summarize(trace, cfg, initial_loss=trace.rows[0].loss_probe * 2)
    assert report.exit_code() == EXIT_OK


def test_exit_code_diverged_wins():
    cfg = _fast_cfg(
        optimizer_kind="sgd", adam=AdamConfig(alpha=50.0), budget_updates=3000
    )
    trace = run_simulation(cfg)
    assert trace.diverged
    report = summarize(trace, cfg, initial_loss=trace.rows[0].loss_probe)
    assert report.exit_code() == EXIT_DIVERGED


def test_summary_json_is_valid_and_typed():
    cfg = _fast_cfg()
    trace = run_simulation(cfg)
    report = summarize(trace, cfg, initial_loss=trace.rows[0].loss_probe)
    doc = json.loads(report.to_json())
    assert doc["schema"] == SUMMARY_SCHEMA
    assert doc["workers"] == 4
    assert doc["pushes"] == trace.pushes
    assert doc["updates"] == trace.updates
    assert all(isinstance(k, str) for k in doc["staleness_histogram"])
    assert doc["throughput_cost_per_s"] == pytest.approx(
        trace.total_cost / trace.final_sim_time
    )
    for t in doc["thresholds"]:
        if t["reached"]:
            assert t["sim_hours"] == pytest.approx(t["sim_time_s"] / 3600.0)


# ---------------------------------------------------------------------------
# run_experiment and output files


def test_run_experiment_writes_trace_and_summary(tmp_path):
    cfg = _fast_cfg(budget_updates=50)
    trace, report = run_experiment(cfg, out_dir=str(tmp_path))
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "summary.json").exists()
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["updates"] == report.updates == trace.updates == 50
    first = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert first == "# schema=trace-v1"


def test_run_experiment_byte_identical_repeats(tmp_path):
    cfg = _fast_cfg(budget_updates=120)
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=str(a))
    run_experiment(cfg, out_dir=str(b))
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_out_dir_resolution_order(tmp_path, monkeypatch):
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    assert resolve_out_dir("explicit", _fast_cfg(out_dir="cfgdir")) == "explicit"
    assert resolve_out_dir(None, _fast_cfg(out_dir="cfgdir")) == "cfgdir"
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    assert resolve_out_dir(None, _fast_cfg()) == str(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV)
    assert resolve_out_dir(None, _fast_cfg()) == "."


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_runs_cartesian_product(tmp_path):
    base = serialize_config(_fast_cfg(budget_updates=30))
    results = sweep(
        base,
        {"strategy": ["async", "global_accum-4"], "seed": ["0", "1"]},
        out_dir=str(tmp_path),
        jobs=2,
    )
    assert len(results) == 4
    labels = [label for label, _ in results]
    assert len(set(labels)) == 4
    for label, report in results:
        point_dir = tmp_path / label
        assert (point_dir / "trace.csv").exists()
        assert (point_dir / "summary.json").exists()
        assert report.updates == 30


# ---------------------------------------------------------------------------
# selftests


def test_selftest_adam_table_passes_quickly():
    t0 = time.perf_counter()
    ok, lines = selftest_adam_table()
    assert ok, "\n".join(lines)
    assert time.perf_counter() - t0 < 1.0
    # 3 streams x 6 steps x 5 quantities
    assert sum("ok" in ln for ln in lines) == 90


def test_selftest_staleness_table_passes():
    ok, lines = selftest_staleness_table()
    assert ok, "\n".join(lines)


def test_selftest_gradients_passes():
    ok, lines = selftest_gradients()
    assert ok, "\n".join(lines)


# ---------------------------------------------------------------------------
# cli


def _write_cfg(tmp_path, **kw):
    path = tmp_path / "exp.cfg"
    path.write_text(serialize_config(_fast_cfg(**kw)))
    return str(path)


def test_cli_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, budget_updates=60, thresholds=(0.9,))
    code = main(["run", cfg_path, "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert (tmp_path / "out" / "trace.csv").exists()
    assert "updates" in out


def test_cli_run_seed_override_changes_trace(tmp_path):
    cfg_path = _write_cfg(tmp_path, objective=ObjectiveSpec(
        kind="quadratic", dim=6, cond=5.0, noise_sigma=1.0, samples=32))
    main(["run", cfg_path, "--out-dir", str(tmp_path / "s0"), "--seed", "0"])
    main(["run", cfg_path, "--out-dir", str(tmp_path / "s1"), "--seed", "1"])
    a = (tmp_path / "s0" / "trace.csv").read_bytes()
    b = (tmp_path / "s1" / "trace.csv").read_bytes()
    assert a != b


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("workers = -3\n")
    code = main(["run", str(bad)])
    assert code == EXIT_CONFIG_ERROR
    assert "workers" in capsys.readouterr().err


def test_cli_rejects_missing_file(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == EXIT_CONFIG_ERROR
    assert "cannot read" in capsys.readouterr().err


class _CrashingGradient:
    """An objective whose every gradient raises a plain error."""

    dim = 2
    has_noise = False

    def loss(self, theta, batch):
        return float(np.sum(theta * theta))

    def grad(self, theta, batch, rng=None):
        raise RuntimeError("worker crashed")


def test_cli_parallel_worker_error_exits_5_without_traceback(
    tmp_path, capsys, monkeypatch
):
    build = harness.build_experiment
    crashing = _CrashingGradient()
    monkeypatch.setattr(
        harness, "build_experiment", lambda cfg: build(cfg, objective=crashing)
    )
    cfg_path = _write_cfg(
        tmp_path, workers=2, parallel_time_scale=1e-4, out_dir=str(tmp_path / "out")
    )
    assert main(["run", cfg_path, "--parallel"]) == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "error: RuntimeError: worker crashed\n"


class _HugeFirstCoordinate:
    """Finite gradients whose first coordinate squares past the float range."""

    dim = 2
    has_noise = False

    def loss(self, theta, batch):
        return float((theta[1] - 1.0) ** 2)

    def grad(self, theta, batch, rng=None):
        return np.array([1e200, 2.0 * (theta[1] - 1.0)])


def _v_overflow_cfg(**kw):
    return _fast_cfg(
        objective=ObjectiveSpec(kind="quadratic", dim=2, samples=32),
        workers=2,
        budget_updates=50,
        **kw,
    )


def test_adam_second_moment_overflow_diverges():
    # g*g = inf makes v = inf, which would freeze the first coordinate's
    # step at m_hat/inf = 0 while theta stays finite
    trace = run_simulation(_v_overflow_cfg(), objective=_HugeFirstCoordinate())
    assert trace.diverged
    assert trace.divergence_reason == (
        "Adam's second moment went non-finite at update 1"
    )
    assert trace.pushes == 0


def test_cli_run_adam_second_moment_overflow_exits_3(tmp_path, capsys, monkeypatch):
    build = harness.build_experiment
    objective = _HugeFirstCoordinate()
    monkeypatch.setattr(
        harness, "build_experiment", lambda cfg: build(cfg, objective=objective)
    )
    path = tmp_path / "exp.cfg"
    path.write_text(serialize_config(_v_overflow_cfg()))
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_DIVERGED
    assert "DIVERGED: Adam's second moment went non-finite" in captured.out
    assert captured.err == ""


def test_cli_run_diverged_before_first_row_exits_3(tmp_path, capsys):
    # a finite but huge step makes theta non-finite at the first update, so
    # the trace has no rows and the report no final loss
    cfg_path = _write_cfg(tmp_path, adam=AdamConfig(alpha=1e308))
    code = main(["run", cfg_path, "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_DIVERGED
    assert "final_loss=n/a" in captured.out
    assert captured.err == ""


def test_cli_sweep_prints_point_diverged_before_first_row(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, adam=AdamConfig(alpha=1e308))
    code = main(
        ["sweep", cfg_path, "--grid", "seed=0", "--out-dir", str(tmp_path / "sw")]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "seed=0: final_loss=n/a mean_staleness=n/a [diverged]" in captured.out
    assert "error:" not in captured.err


def test_cli_sweep_seed_overrides_the_configs_seed(tmp_path):
    cfg_path = _write_cfg(tmp_path, budget_updates=20, seed=3)
    args = ["sweep", cfg_path, "--grid", "workers=2,3", "--seed", "11"]
    assert main(args + ["--out-dir", str(tmp_path / "sw")]) == 0
    points = sorted((tmp_path / "sw").iterdir())
    assert [p.name for p in points] == ["workers=2", "workers=3"]
    for point in points:
        echo = json.loads((point / "summary.json").read_text())["config"]
        assert "\nseed = 11\n" in echo
    # a seed on the grid still wins over --seed
    args = ["sweep", cfg_path, "--grid", "seed=5", "--seed", "11"]
    assert main(args + ["--out-dir", str(tmp_path / "grid")]) == 0
    echo = json.loads((tmp_path / "grid" / "seed=5" / "summary.json").read_text())
    assert "\nseed = 5\n" in echo["config"]


def test_cli_sweep_component_override_refines_a_label(tmp_path):
    text = "".join(
        line
        for line in serialize_config(_fast_cfg(budget_updates=20)).splitlines(True)
        if not line.startswith("strategy.")
    )
    path = tmp_path / "label.cfg"
    path.write_text(text + "strategy = global_accum-4\n")
    args = ["sweep", str(path), "--grid", "strategy.global=2,3"]
    assert main(args + ["--out-dir", str(tmp_path / "sw")]) == 0
    for g in (2, 3):
        summary = tmp_path / "sw" / f"strategy.global={g}" / "summary.json"
        assert json.loads(summary.read_text())["strategy"] == f"global_accum-{g}"


def test_cli_sweep_and_selftest(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, budget_updates=20)
    code = main(
        ["sweep", cfg_path, "--grid", "seed=0,1", "--out-dir", str(tmp_path / "sw")]
    )
    assert code == 0
    assert len(list((tmp_path / "sw").iterdir())) == 2

    assert main(["selftest", "adam"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
