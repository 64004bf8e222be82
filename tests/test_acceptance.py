"""Acceptance checklist: ten end-to-end guarantees, one PASS/FAIL line each.

Every configuration here is frozen (seeds, sizes, tolerances) so the
whole file is reproducible run to run. The printed lines bypass pytest's
capture so a full run reads as a checklist even when everything passes.
"""

import time

import numpy as np
import pytest

from stalesim.config import ExperimentConfig, ObjectiveSpec
from stalesim.core import ComputeTimeModel, RngStream
from stalesim.harness import (
    run_experiment,
    selftest_adam_table,
    selftest_gradients,
    selftest_staleness_table,
)
from stalesim.models import dynamic_batcher
from stalesim.optim import AdamConfig, AdamState, GradStreamStats, adam_direction, adam_step, predicted_efficiency, sgd_step
from stalesim.simulator import (
    Strategy,
    build_experiment,
    run_simulation,
    staleness_summary,
)


def _report(capsys, num: int, ok: bool, name: str, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}{tail}")


# ---------------------------------------------------------------------------


def test_c01_adam_worked_table(capsys):
    t0 = time.perf_counter()
    ok, lines = selftest_adam_table()
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _report(capsys, 1, ok, "Adam three-stream table, 90 cells at 3 decimals",
            f"{dt:.2f}s")
    assert ok, "\n".join(lines)


def test_c02_staleness_table(capsys):
    t0 = time.perf_counter()
    ok, lines = selftest_staleness_table()
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _report(capsys, 2, ok,
            "steady-state staleness {0, 3, 3, 1.5, 0.75}; noisy async in [2.8, 3.2]",
            f"{dt:.2f}s")
    assert ok, "\n".join(lines)


def test_c03_periodic_pull_staleness_formula(capsys):
    # pulling every U updates gives mean staleness (U-1)/2, exactly, over
    # whole U-cycles
    results = {}
    for u in (2, 5, 7):
        cfg = ExperimentConfig(
            objective=ObjectiveSpec(kind="quadratic", dim=4, cond=3.0, samples=32),
            workers=4,
            strategy=Strategy("sync_stale", pull_every=u),
            batch_budget=1,
            compute=ComputeTimeModel("constant", 1.0),
            budget_updates=6 * u,
            seed=0,
        )
        mean, _ = staleness_summary(run_simulation(cfg), warmup_pushes=0)
        results[u] = mean
    ok = all(results[u] == (u - 1) / 2 for u in results)
    _report(capsys, 3, ok, "mean staleness equals (U-1)/2 for U in {2, 5, 7}",
            ", ".join(f"U={u}: {m}" for u, m in results.items()))
    assert ok, results


def test_c04_adam_scale_invariance(capsys):
    cfg = AdamConfig(alpha=0.001, beta1=0.9, beta2=0.98, epsilon=0.0)
    grads = RngStream(12, stream=0).normal(1.0, 0.7, size=(1000, 5))
    worst = 0.0
    for c in (0.1, 10.0):
        state_a, state_b = AdamState.zeros(5), AdamState.zeros(5)
        theta_a, theta_b = np.zeros(5), np.zeros(5)
        for g in grads:
            state_a, theta_a = adam_step(state_a, cfg, theta_a, g, cfg.alpha)
            state_b, theta_b = adam_step(state_b, cfg, theta_b, c * g, cfg.alpha)
            rel = np.linalg.norm(theta_b - theta_a) / max(
                np.linalg.norm(theta_a), 1e-30
            )
            worst = max(worst, rel)
    ok = worst < 1e-9
    _report(capsys, 4, ok,
            "epsilon-free trajectories unchanged under gradient scaling by 0.1 / 10",
            f"max rel dev {worst:.2e} over 1000 steps")
    assert ok


def test_c05_statistical_efficiency(capsys):
    # Six iid streams at once, one coordinate block per case: singles with
    # CoV in {0.5, 1, 2}, then sums of k=4 draws of each (a k-sum of
    # N(1, cov^2) is N(4, 4 cov^2), i.e. CoV halves). A seventh block of 4
    # coordinates, from its own stream, has mean 0.5 and variance 2.25
    # (CoV 3), predicted 1/sqrt(10). Adam is elementwise, so the blocks
    # share one step without touching each other's values.
    covs = (0.5, 1.0, 2.0)
    width = 8
    cfg = AdamConfig(alpha=0.001, epsilon=0.0)
    rng = RngStream(21, stream=0)
    rng_cov3 = RngStream(11, stream=0)
    loc = np.repeat([1.0, 1.0, 1.0, 4.0, 4.0, 4.0], width)
    scale = np.repeat([c for c in covs] + [2 * c for c in covs], width)
    dim = 6 * width + 4
    state = AdamState.zeros(dim)
    theta = np.zeros(dim)
    sums = np.zeros(dim)
    kept = 0
    for i in range(100_000):
        g = np.concatenate(
            (rng.normal(size=6 * width) * scale + loc, rng_cov3.normal(0.5, 1.5, size=4))
        )
        state, theta = adam_step(state, cfg, theta, g, cfg.alpha)
        if i >= 2_000:
            sums += np.abs(adam_direction(state, cfg))
            kept += 1
    empirical = (sums[: 6 * width] / kept).reshape(6, width).mean(axis=1)
    cov3 = float(np.mean(sums[6 * width :] / kept))
    pred_cov3 = predicted_efficiency(GradStreamStats(mean=0.5, variance=2.25, count=1))

    ok = True
    details = []
    for j, cov in enumerate(covs):
        pred1 = predicted_efficiency(GradStreamStats(1.0, cov * cov, count=1))
        pred4 = predicted_efficiency(GradStreamStats(1.0, cov * cov, count=4))
        e1, e4 = empirical[j], empirical[j + 3]
        ok &= abs(e1 - pred1) / pred1 < 0.05
        ok &= abs(e4 - pred4) / pred4 < 0.05
        ok &= e4 > e1  # summing four samples visibly recovers step size
        details.append(f"CoV {cov}: {e1:.3f}/{pred1:.3f}, k=4 {e4:.3f}/{pred4:.3f}")
    ok &= abs(cov3 - pred_cov3) / pred_cov3 < 0.10
    details.append(f"CoV 3: {cov3:.3f}/{pred_cov3:.3f}")
    _report(capsys, 5, ok,
            "long-run |direction| matches 1/sqrt(CoV^2+1): CoV <= 2 and k=4 sums "
            "within 5%, CoV 3 within 10%",
            "; ".join(details))
    assert ok, details


def test_c06_gradient_checks(capsys):
    ok, lines = selftest_gradients()
    _report(capsys, 6, ok,
            "analytic vs central differences: 1e-6 quadratic/linreg, 1e-4 mlp",
            "; ".join(ln.split(": ", 1)[-1] for ln in lines))
    assert ok, "\n".join(lines)


def _numeric_rows(trace):
    return [
        (r.update_idx, r.sim_time_s, r.pushes, r.staleness,
         r.loss_probe, r.lr, r.worker_id)
        for r in trace.rows
    ]


def test_c07_strategy_equivalences(capsys):
    # degenerate accumulation parameters must not change a single bit of
    # the run: only the configured label differs
    def run(strategy):
        return run_simulation(ExperimentConfig(
            objective=ObjectiveSpec(kind="quadratic", dim=6, cond=5.0,
                                    noise_sigma=1.0, samples=32),
            workers=4,
            strategy=strategy,
            compute=ComputeTimeModel("normal", 1.0, 0.2),
            batch_budget=1,
            budget_updates=60,
            seed=3,
        ))

    ok = True
    base = run(Strategy("async"))
    for s in (Strategy("local_accum", local=1), Strategy("global_accum", global_count=1),
              Strategy("combined", local=1, global_count=1)):
        other = run(s)
        ok &= _numeric_rows(other) == _numeric_rows(base)
        ok &= np.array_equal(other.final_theta, base.final_theta)
    sync_a = run(Strategy("sync"))
    sync_b = run(Strategy("sync_stale", pull_every=1))
    ok &= _numeric_rows(sync_a) == _numeric_rows(sync_b)
    ok &= np.array_equal(sync_a.final_theta, sync_b.final_theta)

    # one worker, no accumulation: the simulator is plain serial SGD
    cfg1 = ExperimentConfig(
        objective=ObjectiveSpec(kind="linreg", dim=4, samples=24),
        workers=1,
        strategy=Strategy("async"),
        optimizer_kind="sgd",
        schedule_decay="none",
        batch_budget=4,
        budget_updates=40,
        seed=5,
    )
    trace1 = run_simulation(cfg1)
    objective, dataset, _, theta = build_experiment(cfg1)
    batches = list(dynamic_batcher(dataset, cfg1.batch_budget))
    for k in range(40):
        theta = sgd_step(theta, objective.grad(theta, batches[k % len(batches)]),
                         cfg1.adam.alpha)
    serial_ok = bool(np.array_equal(trace1.final_theta, theta)) and all(
        r.staleness == 0 for r in trace1.rows
    )
    ok &= serial_ok
    _report(capsys, 7, ok,
            "L/G/combined(1) == async, sync_stale(1) == sync, N=1 async == serial SGD",
            "bit-identical rows and parameters")
    assert ok


def test_c08_staleness_breaks_convergence_and_accumulation_restores_it(capsys):
    # Frozen operating point: a 20-dim noisy quadratic where synchronous
    # Adam converges, plain async at the same learning rate lands at least
    # 10x worse, and global accumulation of 4 gradients (same lr, same
    # per-update sample count) pulls the loss back to within 2x of sync.
    # Equal compute across arms: async takes 4 updates per sync round.
    t0 = time.perf_counter()

    def arm(strategy, updates, seed):
        return run_simulation(ExperimentConfig(
            objective=ObjectiveSpec(kind="quadratic", dim=20, cond=10.0,
                                    noise_sigma=2.0, theta_star_scale=5.0,
                                    samples=64),
            workers=4,
            strategy=strategy,
            adam=AdamConfig(alpha=0.06),
            schedule_decay="none",
            batch_budget=8,
            compute=ComputeTimeModel("constant", 1.0),
            budget_updates=updates,
            seed=seed,
        ))

    both = 0
    per_seed = []
    for seed in range(5):
        sync = arm(Strategy("sync"), 1000, seed)
        asyn = arm(Strategy("async"), 4000, seed)
        glob = arm(Strategy("global_accum", global_count=4), 1000, seed)
        initial = sync.rows[0].loss_probe
        a = (not sync.diverged) and sync.final_loss < 1e-3 * initial and (
            asyn.diverged or asyn.final_loss >= 10 * sync.final_loss
        )
        b = (not glob.diverged) and glob.final_loss <= 2 * sync.final_loss
        both += a and b
        ratio_a = float("inf") if asyn.diverged else asyn.final_loss / sync.final_loss
        flags = "AB" if a and b else ("A" if a else ("B" if b else "-"))
        per_seed.append(
            f"s{seed} {flags}"
            f"({ratio_a:.0f}x, {glob.final_loss / sync.final_loss:.1f}x)"
        )
    dt = time.perf_counter() - t0
    ok = both >= 3 and dt < 120.0
    _report(capsys, 8, ok,
            "async 4 workers ends >= 10x worse than sync; global accumulation "
            "recovers to <= 2x",
            f"{both}/5 seeds, {dt:.1f}s, " + " ".join(per_seed))
    assert ok, per_seed


def test_c09_byte_identical_reruns(capsys, tmp_path):
    cfg = ExperimentConfig(
        objective=ObjectiveSpec(kind="quadratic", dim=8, cond=10.0,
                                noise_sigma=1.0, samples=48),
        workers=4,
        strategy=Strategy("combined", local=2, global_count=2),
        compute=ComputeTimeModel("normal", 1.0, 0.2),
        batch_budget=16,
        batch_cost_max=7,
        budget_updates=200,
        seed=11,
    )
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    trace_same = (tmp_path / "a" / "trace.csv").read_bytes() == (
        tmp_path / "b" / "trace.csv"
    ).read_bytes()
    summary_same = (tmp_path / "a" / "summary.json").read_bytes() == (
        tmp_path / "b" / "summary.json"
    ).read_bytes()
    ok = trace_same and summary_same
    _report(capsys, 9, ok, "identical config + seed give byte-identical outputs",
            f"trace.csv {'==' if trace_same else '!='} rerun, "
            f"summary.json {'==' if summary_same else '!='} rerun")
    assert ok


def test_c10_parallel_mode_staleness_ordering(capsys):
    # paced on a real clock, with real sleeps: global accumulation must
    # still show less staleness than plain async in at least 4 of 5 paired
    # runs (1 ms real sleeps; at 0.1 simulated seconds a batch, the i/N
    # start stagger spans 2.5 batches, not the whole run)
    def arm(strategy, updates, seed):
        trace = run_simulation(ExperimentConfig(
            objective=ObjectiveSpec(kind="quadratic", dim=4, cond=3.0,
                                    noise_sigma=0.5, samples=32),
            workers=4,
            strategy=strategy,
            compute=ComputeTimeModel("constant", 0.1),
            batch_budget=1,
            budget_updates=updates,
            seed=seed,
            parallel=True,
            parallel_time_scale=0.01,
        ))
        mean, _ = staleness_summary(trace)
        return mean

    wins = 0
    pairs = []
    for rep in range(5):
        a = arm(Strategy("async"), 1000, 100 + rep)
        g = arm(Strategy("global_accum", global_count=4), 250, 100 + rep)
        wins += g < a
        pairs.append(f"{g:.2f}<{a:.2f}" if g < a else f"{g:.2f}>={a:.2f}")
    ok = wins >= 4
    _report(capsys, 10, ok,
            "paced global accumulation beats async staleness in >= 4/5 runs",
            f"{wins}/5: " + ", ".join(pairs))
    assert ok, pairs
