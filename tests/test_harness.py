"""Experiment runner, summaries, thresholds, sweeps, selftests, CLI."""

import json
import math
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stalesim import config, harness, simulator
from stalesim.cli import main
from stalesim.config import (
    AdamConfig,
    ComputeTimeModel,
    ConfigError,
    ExperimentConfig,
    ObjectiveSpec,
    Strategy,
    parse_config,
    serialize_config,
)
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
    summarize,
    sweep,
)
from stalesim.simulator import RunTrace, run_simulation


def _fast_cfg(**kw):
    base = dict(
        objective=ObjectiveSpec(kind="quadratic", dim=6, cond=5.0, samples=32),
        workers=4,
        strategy=Strategy("async"),
        adam=AdamConfig(alpha=0.05),
        schedule_decay="none",
        batch_budget=1,
        compute=ComputeTimeModel("constant", 1.0),
        budget_updates=400,
        seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


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
    # an empty $STALESIM_OUT is unset, but an explicit empty directory is
    # bad input, not a directory to fall back from
    monkeypatch.setenv(OUT_DIR_ENV, "")
    assert resolve_out_dir(None, _fast_cfg()) == "."
    with pytest.raises(ConfigError, match="--out-dir must not be empty"):
        resolve_out_dir("", _fast_cfg(out_dir="cfgdir"))


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


def test_library_sweep_rejects_an_empty_out_dir_and_writes_nothing(tmp_path, monkeypatch):
    # os.path.join("", label) would put each point in the working directory
    monkeypatch.chdir(tmp_path)
    base = serialize_config(_fast_cfg(budget_updates=20))
    with pytest.raises(ConfigError, match="^sweep's out_dir argument must not be empty$"):
        sweep(base, {"seed": ["0", "1"]}, "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", [0, -1])
def test_library_sweep_rejects_a_jobs_argument_below_1_and_writes_nothing(
    tmp_path, monkeypatch, jobs
):
    monkeypatch.chdir(tmp_path)
    base = serialize_config(_fast_cfg(budget_updates=20))
    with pytest.raises(ConfigError, match=f"^sweep's jobs argument must be >= 1, got {jobs}$"):
        sweep(base, {"seed": ["0", "1"]}, "sw", jobs=jobs)
    assert list(tmp_path.iterdir()) == []


def test_library_run_experiment_rejects_an_empty_out_dir_and_writes_nothing(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    cfg = _fast_cfg(budget_updates=20, out_dir="cfgdir")
    with pytest.raises(
        ConfigError, match="^run_experiment's out_dir argument must not be empty$"
    ):
        run_experiment(cfg, "")
    assert list(tmp_path.iterdir()) == []


def test_sweep_runs_points_on_threads_only_when_one_is_paced(tmp_path, monkeypatch):
    # an unpaced point holds the interpreter lock for its whole run, so
    # the points run in turn on the calling thread; paced points sleep,
    # and run on jobs threads so that the sleeps overlap
    threads = []
    run = harness.run_experiment

    def recording(cfg, path, pieces=()):
        threads.append(threading.current_thread())
        return run(cfg, path, pieces)

    monkeypatch.setattr(harness, "run_experiment", recording)
    grid = {"seed": ["0", "1", "2"]}
    base = serialize_config(_fast_cfg(budget_updates=10))
    sweep(base, grid, out_dir=str(tmp_path / "unpaced"), jobs=2)
    assert threads == [threading.current_thread()] * 3
    threads.clear()
    # the paced points through the CLI, whose --jobs reaches sweep
    cfg_path = _write_cfg(tmp_path, budget_updates=10, thresholds=(),
                          parallel=True, parallel_time_scale=1e-4)
    out = tmp_path / "paced"
    args = ["sweep", cfg_path, "--grid", "seed=0,1,2", "--jobs", "2", "--out-dir", str(out)]
    assert main(args) == EXIT_OK
    assert len(threads) == 3 and threading.current_thread() not in threads
    assert all((out / f"seed={seed}" / "trace.csv").exists() for seed in range(3))


# ---------------------------------------------------------------------------
# selftests


def test_selftest_adam_table_passes_quickly():
    t0 = time.perf_counter()
    ok, lines = selftest_adam_table()
    assert ok, "\n".join(lines)
    assert time.perf_counter() - t0 < 1.0
    # 3 streams x 6 steps x 5 quantities
    assert sum("ok" in ln for ln in lines) == 90


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


@pytest.mark.parametrize("strategy, chains", [
    ("", False),
    ("strategy = combined-2-2\ncompute.kind = normal\ncompute.std = 0.2\n", True),
], ids=["async", "combined-2-2"])
def test_cli_paced_16_worker_run_reaches_its_budget_in_stacked_waves(
    tmp_path, capsys, monkeypatch, strategy, chains
):
    # the paper's wide regime on a real clock: each version is first read
    # ~15 updates after it is made, so the engine applies the updates in
    # long waves, each one adam_steps call; combined-2-2 on normal compute
    # times makes waves of 1-8 updates, so it chains adam_step calls too
    calls, rows = Counter(), Counter()
    for name in ("adam_step", "adam_steps"):

        def counting(*args, fn=getattr(simulator, name), name=name):
            out = fn(*args)
            calls[name] += 1
            rows[name] += len(out[1]) if name == "adam_steps" else 1
            return out

        monkeypatch.setattr(simulator, name, counting)
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text(
        "workers = 16\nbudget.updates = 200\nthresholds =\n"
        "parallel = true\nparallel.time_scale = 0.0005\n" + strategy
    )
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["updates"], summary["diverged"]) == (200, False)
    assert rows["adam_step"] + rows["adam_steps"] == 200
    assert calls["adam_steps"] > 0
    assert calls["adam_step"] > 0 or not chains


def _echo(out_dir) -> str:
    """The config document a run's summary.json echoes."""
    return json.loads((out_dir / "summary.json").read_text())["config"]


def test_cli_run_echoes_the_directory_it_wrote_to(tmp_path, capsys):
    # --out-dir wins over the config's out_dir, and the echo names it
    cfg_path = _write_cfg(tmp_path, budget_updates=5, thresholds=(), out_dir=str(tmp_path / "foo"))
    out = tmp_path / "bar"
    assert main(["run", cfg_path, "--out-dir", str(out)]) == EXIT_OK
    assert not (tmp_path / "foo").exists()
    assert parse_config(_echo(out)) == _fast_cfg(budget_updates=5, thresholds=(), out_dir=str(out))
    # a config without out_dir is echoed as it is
    cfg_path = _write_cfg(tmp_path, budget_updates=5, thresholds=())
    assert main(["run", cfg_path, "--out-dir", str(out)]) == EXIT_OK
    assert _echo(out) == serialize_config(_fast_cfg(budget_updates=5, thresholds=()))


@pytest.mark.parametrize("name", ["bar ", "bar\t", "bar\nseed = 7", "bar\rbaz"])
def test_cli_run_echoes_no_directory_that_config_text_cannot_hold(tmp_path, capsys, name):
    # parse_config strips each value and splits lines, so an echo naming
    # this directory would name another one when run again, or set another
    # key; the echo leaves out_dir out instead
    cfg_path = _write_cfg(tmp_path, budget_updates=5, thresholds=(), out_dir=str(tmp_path / "foo"))
    out = tmp_path / name
    assert main(["run", cfg_path, "--out-dir", str(out)]) == EXIT_OK
    assert (out / "trace.csv").exists()
    assert _echo(out) == serialize_config(_fast_cfg(budget_updates=5, thresholds=()))


def test_cli_sweep_echoes_each_points_directory(tmp_path, capsys):
    # the points write under the config's out_dir, each into its own
    # subdirectory, and each echo names that subdirectory: the echo, run
    # again, writes the same files where the point did
    base = tmp_path / "foo"
    cfg_path = _write_cfg(tmp_path, budget_updates=5, thresholds=(), out_dir=str(base))
    assert main(["sweep", cfg_path, "--grid", "seed=0,1"]) == EXIT_OK
    for seed in (0, 1):
        point = base / f"seed={seed}"
        echo = _echo(point)
        assert parse_config(echo) == _fast_cfg(
            budget_updates=5, thresholds=(), seed=seed, out_dir=str(point)
        )
        assert f"out_dir = {point}" in echo.splitlines()
        written = [(point / name).read_bytes() for name in ("trace.csv", "summary.json")]
        again = tmp_path / f"again-{seed}.cfg"
        again.write_text(echo)
        assert main(["run", str(again)]) == EXIT_OK
        assert [(point / name).read_bytes() for name in ("trace.csv", "summary.json")] == written


def test_cli_sweep_takes_a_base_that_its_grid_makes_valid(tmp_path, capsys):
    # the base alone breaks cost_max <= budget, and every grid point mends
    # it: harness.sweep's per-point checks judge the input, not the bare base
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text("budget.updates = 5\nthresholds =\nbatch.cost_max = 8\nbatch.budget = 4\n")
    out = tmp_path / "out"
    grid = ["--grid", "batch.budget=8,16"]
    assert main(["sweep", str(cfg_path), *grid, "--out-dir", str(out)]) == EXIT_OK
    for budget in (8, 16):
        assert (out / f"batch.budget={budget}" / "trace.csv").exists()


def test_cli_run_decayed_lr_column_reads_back(tmp_path, capsys):
    # past the warmup the inverse-sqrt rate must be written as a plain
    # decimal, not as a numpy scalar repr that from_csv cannot parse
    kw = dict(
        objective=ObjectiveSpec(kind="quadratic", dim=4),
        workers=2,
        schedule_warmup=4,
        schedule_decay="inverse-sqrt",
        budget_updates=8,
        thresholds=(),
    )
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, **kw), "--out-dir", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert "np." not in (out / "trace.csv").read_text()
    back = RunTrace.from_csv(str(out / "trace.csv"))
    trace = run_simulation(_fast_cfg(**kw))
    assert back.rows == trace.rows and back.updates == 8
    assert all(type(r.lr) is float for r in trace.rows)


def test_cli_run_seed_override_changes_trace(tmp_path):
    cfg_path = _write_cfg(tmp_path, objective=ObjectiveSpec(
        kind="quadratic", dim=6, cond=5.0, noise_sigma=1.0, samples=32))
    main(["run", cfg_path, "--out-dir", str(tmp_path / "s0"), "--seed", "0"])
    main(["run", cfg_path, "--out-dir", str(tmp_path / "s1"), "--seed", "1"])
    a = (tmp_path / "s0" / "trace.csv").read_bytes()
    b = (tmp_path / "s1" / "trace.csv").read_bytes()
    assert a != b


# every float key whose rule admits 0.0, and the config lines that some
# of them need beside them to reach the run
_ZERO_KEYS = [
    k.key
    for k in config._KEYS
    if k.tag == "float" and k.rule and all(
        test(0.0) for _, test, key, _ in config._RULES[k.path.rpartition(".")[0]] if key == k.key
    )
]
_ZERO_PREAMBLE = {
    "objective.target_noise": "objective.kind = linreg\nobjective.dim = 3\n",
    "compute.std": "compute.kind = normal\n",
}


@pytest.mark.parametrize("key", _ZERO_KEYS)
def test_cli_run_reads_a_minus_zero_key_as_zero(tmp_path, capsys, key):
    # -0.0 passes each rule; it must run as 0.0 does, to the byte, where a
    # numpy scale (Generator.normal's) would reject its sign bit
    results = []
    for value in ("-0.0", "0.0"):
        cfg_path = tmp_path / f"{value}.cfg"
        cfg_path.write_text(
            "budget.updates = 20\nthresholds =\n" + _ZERO_PREAMBLE.get(key, "") + f"{key} = {value}\n"
        )
        out = tmp_path / value
        code = main(["run", str(cfg_path), "--out-dir", str(out)])
        results.append((code, (out / "trace.csv").read_bytes(), capsys.readouterr().err))
    assert results[0][0] == EXIT_OK, results[0][2]
    assert results[0][:2] == results[1][:2]


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("workers = -3\n")
    code = main(["run", str(bad)])
    assert code == EXIT_CONFIG_ERROR
    assert "workers" in capsys.readouterr().err


# an out-of-range value for every check that ObjectiveSpec,
# ExperimentConfig, Strategy, AdamConfig and ComputeTimeModel make; a
# non-finite thresholds.absolute is already rejected when the document is
# read, before those checks run
_OUT_OF_RANGE = [
    "objective.kind = cubic",
    "objective.dim = 0",
    "objective.cond = 0.5",
    "objective.cond = 1e20",  # past the ceiling, where rounding breaks the PD check
    "objective.theta_star_scale = -1",
    "objective.noise_sigma = -1",
    "objective.samples = 0",
    "objective.target_noise = -0.1",
    "objective.in_dim = 0",
    "objective.hidden = 0",
    "objective.classes = 1",
    "objective.spread = 0",
    "workers = 0",
    "strategy.kind = nope",
    "strategy.local = 0",
    "strategy.global = 0",
    "strategy.pull_every = 0",
    "strategy.global = 2",  # the default kind, async, takes no global
    "strategy = global_accum-0",  # a label, whose Strategy check names it
    "optimizer.kind = rmsprop",
    "optimizer.alpha = 0",
    "optimizer.beta1 = 1",
    "optimizer.beta2 = -0.5",
    "optimizer.epsilon = -1",
    "schedule.warmup = -1",
    "schedule.decay = cosine",
    "schedule.batch_scale = -1",
    "compute.kind = weird",
    "compute.mean = 0",
    "compute.std = -1",
    "compute.std = 0.5",  # the default kind, constant, takes no std
    "comm.latency = -0.5",
    "combine = median",
    "batch.budget = 0",
    "batch.cost_max = 0",
    "batch.cost_max = 9",  # over the default batch.budget of 8
    "budget.updates = 0",
    "budget.sim_time = -1",
    "probe.samples = 0",
    "parallel.time_scale = 0",
    "stats.warmup_pushes = -1",
    "thresholds = 0.5,1.5",
    "thresholds.absolute = 1,nan",
    "seed = 18446744073709551616",  # 2**64, one past the Philox key word
    "probe.seed = -1",
]

# the same rejection reached through a flag or the file's bytes: the
# config file's bytes, the command with its flags, and what the one error
# line names
_BAD_INPUT = {
    "run --seed -1": (b"seed = 7\n", ["run", "--seed", "-1"], "seed"),
    "sweep --jobs 0": (b"", ["sweep", "--jobs", "0"], "--jobs must be >= 1"),
    "sweep --jobs -3": (b"", ["sweep", "--jobs", "-3"], "--jobs must be >= 1"),
    "non-UTF-8 file": (b"seed = 7  # \xff\n", ["run"], "cannot read config file"),
}


@pytest.mark.parametrize("case", _OUT_OF_RANGE + list(_BAD_INPUT))
def test_cli_rejects_an_out_of_range_key_in_one_line(tmp_path, capsys, case):
    default = ((case + "\n").encode(), ["run"], case.split(" = ")[0])
    data, (command, *flags), named = _BAD_INPUT.get(case, default)
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(data)
    out = str(tmp_path / "out")
    assert main([command, str(bad), *flags, "--out-dir", out]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_prints_a_rules_message_whole(tmp_path, capsys):
    # the key, its rule's text and the parsed value, after one prefix
    bad = tmp_path / "bad.cfg"
    bad.write_text("optimizer.beta1 = 1\n")
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err == "config error: optimizer.beta1 must be >= 0 and < 1, got 1.0\n"
    assert not (tmp_path / "out").exists()


def test_cli_rejects_cost_max_above_batch_budget(tmp_path, capsys):
    # such a sample fits in no batch; it is bad input, not an internal error
    bad = tmp_path / "bad.cfg"
    bad.write_text("objective.kind = linreg\nbatch.cost_max = 4\nbatch.budget = 2\n")
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "batch.cost_max" in err and "batch.budget" in err


def test_cli_rejects_a_fraction_target_above_the_initial_loss(tmp_path, capsys):
    # every fraction level would lie above the start and read as reached
    # at the first push; the config cannot know the initial loss, so the
    # summary rejects it, before any file is written
    text = "thresholds.target = 1e300\nbudget.updates = 10\n"
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    initial = run_simulation(parse_config(text)).initial_loss
    assert "thresholds.target" in err and repr(initial) in err
    assert not (tmp_path / "out").exists()
    # without fraction thresholds the target sets no level
    cfg = parse_config(text + "thresholds =\n")
    assert summarize(run_simulation(cfg), cfg, initial).thresholds == []
    # a target equal to the initial loss is allowed: at theta* both are 0
    ok = tmp_path / "ok.cfg"
    ok.write_text("objective.theta_star_scale = 0\nbudget.updates = 10\n")
    assert main(["run", str(ok), "--out-dir", str(tmp_path / "ok")]) == EXIT_OK


def test_cli_reads_a_config_with_a_byte_order_mark_and_crlf_line_ends(tmp_path, capsys):
    # some editors start a UTF-8 file with a byte-order mark and end its
    # lines with CRLF; the run writes the plain file's bytes
    cfg_path = _write_cfg(tmp_path, budget_updates=20, thresholds=())
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "exp.cfg").read_bytes().replace(b"\n", b"\r\n"))
    assert main(["run", cfg_path, "--out-dir", str(tmp_path / "plain")]) == EXIT_OK
    assert main(["run", str(marked), "--out-dir", str(tmp_path / "bom")]) == EXIT_OK
    for name in ("trace.csv", "summary.json"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "seed=0,1"]])
def test_cli_rejects_an_empty_out_dir_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    # an empty --out-dir is not absent: it neither falls back to the
    # config's out_dir nor writes into the working directory
    cfg_path = _write_cfg(tmp_path, budget_updates=20, out_dir=str(tmp_path / "cfgdir"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    verb, *flags = command
    assert main([verb, cfg_path, *flags, "--out-dir", ""]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err == "config error: --out-dir must not be empty\n"
    assert list(cwd.iterdir()) == []
    assert not (tmp_path / "cfgdir").exists()


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
    build = simulator.build_experiment
    crashing = _CrashingGradient()
    monkeypatch.setattr(
        simulator, "build_experiment", lambda cfg, *pieces: build(cfg, objective=crashing)
    )
    cfg_path = _write_cfg(
        tmp_path, workers=2, parallel_time_scale=1e-4, out_dir=str(tmp_path / "out")
    )
    assert main(["run", cfg_path, "--parallel"]) == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "error: RuntimeError: worker crashed\n"


def test_cli_parallel_sleep_overflow_exits_5_without_traceback(tmp_path, capsys):
    # a deadline past the clock's range ends the paced run at once
    cfg_path = _write_cfg(
        tmp_path,
        workers=1,
        compute=ComputeTimeModel("constant", 1e300),
        parallel_time_scale=1e-4,
        out_dir=str(tmp_path / "out"),
    )
    out = {}
    th = threading.Thread(
        target=lambda: out.update(code=main(["run", cfg_path, "--parallel"])),
        daemon=True,
    )
    th.start()
    th.join(timeout=10.0)
    assert not th.is_alive(), "run still going after 10 s"
    assert out["code"] == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


class _CrashAfterNonFiniteProbe:
    """A duck-typed objective: under SGD at lr 1, each update adds 1 to
    theta[0]. The probe loss is inf from theta[0] = 3 on, and a gradient
    at a pulled theta[0] of 6 or more raises a plain error."""

    dim = 2
    has_noise = False

    def loss(self, theta, batch):
        return math.inf if theta[0] >= 3 else 0.0

    def grad(self, theta, batch, rng=None):
        if theta[0] >= 6:
            raise RuntimeError("worker crashed")
        return np.array([-1.0, 0.0])


def test_cli_run_exits_3_when_an_error_follows_a_non_finite_probe(
    tmp_path, capsys, monkeypatch
):
    # the probe of version 3 waits in its block while the run goes on to the
    # error; the queued versions are probed before the error leaves the
    # run, so the run ends diverged at version 3, as if probed at once
    build = simulator.build_experiment
    objective = _CrashAfterNonFiniteProbe()
    monkeypatch.setattr(
        simulator, "build_experiment", lambda cfg, *pieces: build(cfg, objective=objective)
    )
    cfg_path = _write_cfg(
        tmp_path,
        objective=ObjectiveSpec(kind="quadratic", dim=2, samples=32),
        workers=2,
        optimizer_kind="sgd",
        adam=AdamConfig(alpha=1.0),
        budget_updates=50,
    )
    code = main(["run", cfg_path, "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_DIVERGED
    assert "DIVERGED: probe loss went non-finite at update 3" in captured.out
    assert captured.err == ""


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
    build = simulator.build_experiment
    objective = _HugeFirstCoordinate()
    monkeypatch.setattr(
        simulator, "build_experiment", lambda cfg, *pieces: build(cfg, objective=objective)
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
    # the trace has no rows and the report no final loss, serial and paced
    for clock, kw in (("serial", {}), ("paced", dict(parallel=True, parallel_time_scale=1e-4))):
        cfg_path = _write_cfg(tmp_path, adam=AdamConfig(alpha=1e308), **kw)
        out = tmp_path / clock
        code = main(["run", cfg_path, "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_DIVERGED, clock
        assert "final_loss=n/a" in captured.out
        assert captured.err == ""
        last = (out / "trace.csv").read_text().splitlines()[-1]
        assert last == "# reason=parameters went non-finite at update 1"


def test_cli_run_adam_without_epsilon_diverges_on_a_zero_v_without_a_warning(tmp_path, capsys):
    # a gradient near 1e-308 squares to 0, and with epsilon 0 the first
    # step divides by the zero v: the parameters go non-finite at update 1
    spec = ObjectiveSpec(kind="quadratic", dim=6, cond=5.0, samples=32, theta_star_scale=1e-308)
    cfg_path = _write_cfg(tmp_path, objective=spec, adam=AdamConfig(epsilon=0.0))
    code = main(["run", cfg_path, "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_DIVERGED
    assert "DIVERGED: parameters went non-finite at update 1" in captured.out
    assert captured.err == ""


def test_cli_run_non_finite_initial_loss_writes_strict_json(tmp_path, capsys):
    # 0.5*d'Ad overflows at theta0 = 0 when theta* ~ 1e200: the probe of
    # version 0 ends the run, and summary.json writes its inf values as null
    path = tmp_path / "exp.cfg"
    path.write_text(
        "objective.kind = quadratic\nobjective.dim = 4\n"
        "objective.theta_star_scale = 1e200\nbudget.updates = 5\n"
    )
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_DIVERGED
    assert captured.err == ""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    text = (tmp_path / "out" / "summary.json").read_text()
    doc = json.loads(text, parse_constant=reject)
    assert "update 0" in doc["divergence_reason"]
    assert doc["initial_loss"] is None
    assert all(t["loss_level"] is None for t in doc["thresholds"])


def _recorded_builds(monkeypatch) -> list:
    """Record each build_experiment call, wherever a stalesim module holds
    the function as a global: the thread it ran on for a real build, None
    when the call was given the pieces."""
    build = simulator.build_experiment
    calls = []

    def recording(cfg, *pieces):
        given = any(p is not None for p in pieces)
        calls.append(None if given else threading.current_thread())
        return build(cfg, *pieces)

    for name, module in list(sys.modules.items()):
        if name.startswith("stalesim") and vars(module).get("build_experiment") is build:
            monkeypatch.setattr(module, "build_experiment", recording)
    return calls


def test_run_experiment_builds_the_experiment_once(tmp_path, monkeypatch):
    calls = _recorded_builds(monkeypatch)
    run_experiment(_fast_cfg(budget_updates=10), str(tmp_path))
    assert calls == [threading.current_thread()]


_PACED = dict(parallel=True, parallel_time_scale=1e-4, workers=1)


@pytest.mark.parametrize("kw, builds", [
    ({}, 2),
    # the target check builds each group once more, for its initial loss
    ({"thresholds_target": 1e-9}, 4),
    # a paced point builds its own pieces: one build per point
    (_PACED, 4),
    # a group's MLP points share each batch's one-hot label rows, so the
    # second grades on rows the first made; alone, each point makes its
    # own, and its own weight memo
    ({"objective": ObjectiveSpec(kind="mlp")}, 2),
], ids=["unpaced", "target", "paced", "mlp"])
def test_sweep_builds_each_group_once_and_writes_what_run_experiment_writes(
    tmp_path, monkeypatch, kw, builds
):
    # two groups, one per seed, of two strategies each
    base = serialize_config(_fast_cfg(budget_updates=30, **kw))
    grid = {"strategy": ["async", "global_accum-4"], "seed": ["0", "1"]}
    calls = _recorded_builds(monkeypatch)
    results = sweep(base, grid, out_dir=str(tmp_path / "sw"), jobs=2)
    assert len(calls) - calls.count(None) == builds
    assert [label for label, _ in results] == [
        f"strategy={s}__seed={n}" for s in grid["strategy"] for n in grid["seed"]
    ]
    assert not any(report.diverged for _, report in results)
    _assert_each_point_runs_alone_the_same(base, results, tmp_path)


def _assert_each_point_runs_alone_the_same(base, results, tmp_path):
    """Each sweep point under tmp_path/sw wrote what run_experiment of its
    config writes in a fresh directory: the same bytes, or for a paced
    run, which takes its times from the clock, the same trace columns but
    sim_time_s (they match at N=1)."""
    for label, _ in results:
        cfg = parse_config(base, dict(kv.split("=") for kv in label.split("__")))
        shared, alone = tmp_path / "sw" / label, tmp_path / "alone" / label
        run_experiment(cfg, str(alone))
        if not cfg.parallel:
            for name in ("trace.csv", "summary.json"):
                assert (shared / name).read_bytes() == (alone / name).read_bytes()
            continue
        a, b = (RunTrace.from_csv(str(d / "trace.csv")).columns for d in (shared, alone))
        del a["sim_time_s"], b["sim_time_s"]
        assert a == b


@pytest.mark.parametrize("kw, checks, jobs", [
    ({}, 0, 2),
    ({"thresholds_target": 1e-9}, 2, 2),  # one initial-loss probe per group
    # jobs 1 is a pool of one thread, not the calling thread
    ({}, 0, 1),
], ids=["no-target", "target", "jobs-1"])
def test_paced_sweep_builds_on_pool_threads_but_for_the_target_check(
    tmp_path, monkeypatch, kw, checks, jobs
):
    base = serialize_config(_fast_cfg(budget_updates=30, **_PACED, **kw))
    grid = {"strategy": ["async", "global_accum-4"], "seed": ["0", "1"]}
    calls = _recorded_builds(monkeypatch)
    sweep(base, grid, out_dir=str(tmp_path / "sw"), jobs=jobs)
    here = threading.current_thread()
    built = [thread for thread in calls if thread is not None]
    assert built.count(here) == checks
    on_pool = [thread for thread in built if thread is not here]
    assert len(on_pool) == 4 and len(set(on_pool)) <= jobs


def test_mixed_sweep_runs_unpaced_points_here_on_one_build_and_paced_points_on_the_pool(
    tmp_path, monkeypatch
):
    # one build group: two unpaced and two paced points
    base = serialize_config(_fast_cfg(budget_updates=30, parallel_time_scale=1e-4, workers=1))
    grid = {"parallel": ["false", "true"], "strategy": ["async", "sync"]}
    calls = _recorded_builds(monkeypatch)
    runs = []  # (thread, paced, pieces)
    run = harness.run_experiment

    def recording(cfg, path, pieces=()):
        runs.append((threading.current_thread(), cfg.parallel, pieces))
        return run(cfg, path, pieces)

    monkeypatch.setattr(harness, "run_experiment", recording)
    results = sweep(base, grid, out_dir=str(tmp_path / "sw"), jobs=2)
    here = threading.current_thread()
    unpaced = [(thread, pieces) for thread, paced, pieces in runs if not paced]
    assert [thread for thread, _ in unpaced] == [here, here]
    (_, first), (_, second) = unpaced
    assert first and all(a is b for a, b in zip(first, second))
    paced = [(thread, pieces) for thread, paced, pieces in runs if paced]
    assert len(paced) == 2 and all(thread is not here and not p for thread, p in paced)
    built = [thread for thread in calls if thread is not None]
    assert built.count(here) == 1 and len(built) == 3  # and one per paced point
    _assert_each_point_runs_alone_the_same(base, results, tmp_path)


def test_paced_points_on_threads_each_write_what_they_write_alone(tmp_path):
    # one group of four paced points on four threads, which switch as
    # often as the interpreter allows
    base = serialize_config(_fast_cfg(budget_updates=30, **_PACED))
    grid = {"optimizer.alpha": ["0.01", "0.02", "0.03", "0.04"]}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = sweep(base, grid, out_dir=str(tmp_path / "sw"), jobs=4)
    finally:
        sys.setswitchinterval(interval)
    _assert_each_point_runs_alone_the_same(base, results, tmp_path)


def test_cli_sweep_prints_point_diverged_before_first_row(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, adam=AdamConfig(alpha=1e308))
    code = main(
        ["sweep", cfg_path, "--grid", "seed=0", "--out-dir", str(tmp_path / "sw")]
    )
    captured = capsys.readouterr()
    assert code == EXIT_DIVERGED
    assert "seed=0: final_loss=n/a mean_staleness=n/a [diverged]" in captured.out
    assert "error:" not in captured.err


def test_cli_sweep_exits_3_when_a_point_diverged(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, budget_updates=20)
    args = ["sweep", cfg_path, "--grid", "optimizer.alpha=0.01,1e308"]
    assert main(args + ["--out-dir", str(tmp_path / "sw")]) == EXIT_DIVERGED
    out = capsys.readouterr().out
    assert "optimizer.alpha=0.01: final_loss=" in out and "[ok]" in out
    assert "optimizer.alpha=1e308: final_loss=" in out and "[diverged]" in out
    assert len(list((tmp_path / "sw").iterdir())) == 2  # every point still ran
    # a point that only misses a threshold leaves the sweep's exit code at 0
    cfg_path = _write_cfg(tmp_path, budget_updates=4, thresholds=(0.001,))
    run_out = str(tmp_path / "run")
    assert main(["run", cfg_path, "--out-dir", run_out]) == EXIT_THRESHOLDS
    args = ["sweep", cfg_path, "--grid", "seed=0,1"]
    assert main(args + ["--out-dir", str(tmp_path / "missed")]) == EXIT_OK
    assert "[diverged]" not in capsys.readouterr().out


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


def test_cli_sweep_rejects_a_repeated_grid_key(tmp_path, capsys):
    # a second --grid for one key would silently drop the first's values;
    # a grid item with no "=", with no values or with an unknown key is
    # bad input too, and so are two points that would write one directory
    # (a repeated value, or two values the directory name maps to one);
    # none of them starts a point
    cfg_path = _write_cfg(tmp_path, budget_updates=20)
    for grid, named in [
        (["seed=1,2", "seed=3"], "seed"),
        (["seed"], "seed"),
        (["seed="], "seed"),
        (["seed=1", "no.such.key=1,2"], "no.such.key"),
        (
            ["seed=1,1", "budget.updates=50"],
            "seed=1__budget.updates=50 and seed=1__budget.updates=50",
        ),
        (["out_dir=a/b,a_b"], "out_dir=a/b and out_dir=a_b"),
        # two values that parse to one config run the same experiment twice
        (["seed=1,01"], "seed=1 and seed=01"),
    ]:
        args = ["sweep", cfg_path, "--out-dir", str(tmp_path / "sw")]
        for item in grid:
            args += ["--grid", item]
        assert main(args) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "sw").exists()


def test_cli_sweep_rejects_a_grid_over_out_dir(tmp_path, capsys):
    # every point writes under the sweep's directory, so a grid over
    # out_dir would run one experiment per value and echo an out_dir in
    # each summary that was never written to
    cfg_path = _write_cfg(tmp_path, budget_updates=20)
    for values in ("x,y", "x"):
        args = ["sweep", cfg_path, "--grid", f"out_dir={values}"]
        assert main(args + ["--out-dir", str(tmp_path / "sw")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "out_dir" in err
        assert not (tmp_path / "sw").exists()


def test_cli_rejects_an_output_directory_it_cannot_make_before_running(
    tmp_path, capsys, monkeypatch
):
    def never(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(harness, "run_simulation", never)
    cfg_path = _write_cfg(tmp_path, budget_updates=20)
    blocked = tmp_path / "file"
    blocked.write_text("")
    for args in (["run", cfg_path], ["sweep", cfg_path, "--grid", "seed=0,1"]):
        assert main(args + ["--out-dir", str(blocked / "out")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(blocked / "out") in err


def test_cli_sweep_checks_every_point_before_running_any(tmp_path, capsys):
    # the second point is bad: the sweep exits 2 before the first one runs,
    # whether its config rejects it or its target lies above its initial
    # probe loss, which only building the point can tell
    cfg_path = _write_cfg(tmp_path, budget_updates=20)
    for grid, named in [
        ("workers=4,0", "workers"),
        ("thresholds.target=0,1e300", "initial probe loss"),
    ]:
        args = ["sweep", cfg_path, "--grid", grid, "--out-dir", str(tmp_path / "sw")]
        assert main(args) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "sw").exists()


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



# ---------------------------------------------------------------------------
# cli fuzz: documents drawn from config._KEYS, at sizes that cannot load
# the machine, since no key has a ceiling yet

# each size key's largest value here; the two whose default is above it
# are always set
_CAPS = {
    "objective.dim": 20, "objective.samples": 64, "objective.in_dim": 8,
    "objective.hidden": 8, "objective.classes": 5, "workers": 8,
    "strategy.local": 8, "strategy.global": 8, "strategy.pull_every": 8,
    "budget.updates": 20, "probe.samples": 64,
}
_ALWAYS = ("objective.samples", "budget.updates")
# values that no number or word rule reads as valid; a fixed list, as int()
# reads "1_000" and non-ASCII digits as numbers
_JUNK = ("", "abc", "nan", "inf", "-inf", "1e309", "0x10", "1,5", "1.5.2", "true?", "= 1", "#")
_HUGE = (str(2**63 - 1), str(2**63), str(2**64 - 1), str(2**64), "1" + "0" * 30)
_BIG_FLOATS = ("5e-324", "1e-300", "1e308", "-1e308", "1.7976931348623157e308")


def _bounds(k: config._Key) -> dict:
    # the key's rule as keyword arguments of st.integers or st.floats
    kw = {}
    clauses = k.rule.split(" and ") if isinstance(k.rule, str) and k.rule else ()
    for op, n in map(str.split, clauses):
        x = int(n) if k.tag == "int" else float(n)
        side = "min" if op[0] == ">" else "max"
        if k.tag == "int":
            kw[f"{side}_value"] = x + (op in (">", "<")) * (1 if side == "min" else -1)
        else:
            kw.update({f"{side}_value": x, f"exclude_{side}": "=" not in op})
    return kw


def _raw(k: config._Key, out_dir: str, wild: bool):
    """Raw values for one key: in its rule, or when wild also its rule's
    edges, -0, huge values and junk. Never above the key's cap, and never
    a word that paces the run."""
    kw = _bounds(k)
    if k.key == "out_dir":
        return st.sampled_from(["", out_dir])
    if k.tag == "bool":
        valid = st.sampled_from(["false", "no", "0", "FALSE"])
    elif isinstance(k.rule, tuple):
        valid = st.sampled_from(k.rule)
    elif k.key in _CAPS:
        valid = st.integers(kw["min_value"], _CAPS[k.key]).map(str)
    elif k.tag == "int":
        huge = [v for v in _HUGE if int(v) <= kw.get("max_value", math.inf)]
        valid = (st.integers(**kw) | st.sampled_from(huge)).map(str)
    else:
        if k.key == "thresholds":
            kw = dict(min_value=0.0, max_value=1.0, exclude_min=True)
        valid = st.floats(allow_nan=False, allow_infinity=False, **kw).map(repr)
        if k.tag == "float_list":
            valid = st.lists(valid, max_size=3).map(",".join)
    if not wild:
        return valid
    edges = ["-0"] + [str(kw.get(f"{side}_value", 0)) for side in ("min", "max")]
    if k.key not in _CAPS:
        edges += _HUGE + _BIG_FLOATS
    if isinstance(k.rule, tuple):
        edges += [w.upper() for w in k.rule]
    return valid | st.sampled_from(edges + list(_JUNK))


_LABELS = st.builds(
    "-".join, st.tuples(st.sampled_from(list(config._PARAMS) + ["junk"]))
    | st.tuples(st.sampled_from(list(config._PARAMS)), st.integers(0, 8).map(str))
    | st.tuples(st.sampled_from(["combined", "sync"]), *[st.integers(0, 8).map(str)] * 2)
)


@st.composite
def _cli_case(draw, out_dir):
    keys = {k.key: k for k in config._KEYS}
    wild = draw(st.booleans())
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=8))
    chosen = draw(st.permutations(list(_ALWAYS) + [k for k in chosen if k not in _ALWAYS]))
    lines = [f"{key} = {draw(_raw(keys[key], out_dir, wild))}" for key in chosen]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), f"strategy = {draw(_LABELS)}")
    command = draw(st.sampled_from(["run", "sweep"]))
    flags = []
    if command == "sweep":
        # one key with up to 4 values, or two with up to 2: at most 4 points
        sizes = draw(st.sampled_from([(4,), (2, 2)]))
        for key, size in zip(draw(st.permutations(sorted(keys))), sizes):
            values = draw(st.lists(_raw(keys[key], out_dir, wild), min_size=1, max_size=size,
                                   unique=True))
            flags += ["--grid", f"{key}={','.join(values)}"]
        flags += ["--jobs", draw(st.sampled_from(["1", "2", "0"] if wild else ["1", "2"]))]
    if draw(st.booleans()):
        flags += ["--seed", str(draw(st.integers(-1 if wild else 0, 2**64)))]
    return command, "\n".join(lines) + "\n", flags


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exits_with_a_documented_code_and_one_stderr_line(tmp_path, capsys, data):
    # exit 0, 2, 3 or 4 (a sweep does not exit 4), with at most one stderr
    # line and no traceback: exit 5 would be a fault the input found
    where = tmp_path / str(len(list(tmp_path.iterdir())))
    command, text, flags = data.draw(_cli_case(str(where / "cfg-out")))
    where.mkdir()
    (where / "exp.cfg").write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main([command, str(where / "exp.cfg"), *flags, "--out-dir", str(where / "out")])
    out, err = capsys.readouterr()
    assert code in ((0, 2, 3, 4) if command == "run" else (0, 2, 3)), err
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in out + err
