"""Benchmark for stalesim: host speed of `stalesim run` and `stalesim sweep`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It imports stalesim from ./src, builds
the workload's inputs from the seed, and runs the workload back to back
(closed loop, one process, at most two threads) for S seconds after one
warm-up run. A reference kernel (reference.py) runs after each run, and
run times are reported relative to it, which cancels the drift of the
host's speed. Every run's outputs are checked; a run that raises,
diverges or fails the check counts as failed. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every second run is
traced, and the metrics are the per-layer ones. A full
record, with the output hashes and the host it ran on, goes to
perfbench/out/. NOTES.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from reference import KERNEL_S, timed_kernel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_RUNS = 3  # per phase, however short --seconds is
SETUP_PROBES = 10


class CheckFailed(Exception):
    pass


def import_stalesim():
    if not (SRC / "stalesim" / "__init__.py").is_file():
        sys.exit(f"error: no stalesim sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import stalesim

    if Path(stalesim.__file__).resolve().parent != SRC / "stalesim":
        sys.exit(f"error: imported stalesim from {stalesim.__file__}, not from {SRC}")


def check_outputs(point_dirs: list[Path]) -> tuple[int, int, tuple[str, str]]:
    """Check every point's trace.csv and summary.json; return (pushes,
    updates, (sha256 of the traces, sha256 of the summaries))."""
    from stalesim.config import parse_config
    from stalesim.simulator import RunTrace

    pushes = updates = 0
    trace_hash, summary_hash = hashlib.sha256(), hashlib.sha256()
    for d in point_dirs:
        trace_bytes = (d / "trace.csv").read_bytes()
        summary_bytes = (d / "summary.json").read_bytes()
        for h, data in ((trace_hash, trace_bytes), (summary_hash, summary_bytes)):
            h.update(d.name.encode() + b"\0" + data)
        trace = RunTrace.from_csv(str(d / "trace.csv"))
        summary = json.loads(summary_bytes)
        cfg = parse_config(summary["config"])
        g = cfg.strategy.effective(cfg.workers)[1]
        rows = trace.rows
        problems = []
        if trace.diverged or summary["diverged"]:
            problems.append("run diverged")
        if not rows:
            problems.append("empty trace")
        if [r.pushes for r in rows] != list(range(1, len(rows) + 1)):
            problems.append("push counter is not 1..P")
        if any(r.staleness < 0 for r in rows):
            problems.append("negative staleness")
        if not all(math.isfinite(r.loss_probe) for r in rows):
            problems.append("non-finite probe loss")
        if trace.updates != cfg.budget_updates:
            problems.append(f"{trace.updates} updates, budget {cfg.budget_updates}")
        if not 0 <= len(rows) - trace.updates * g < g:
            problems.append(f"{len(rows)} pushes for {trace.updates} updates at G={g}")
        if (summary["pushes"], summary["updates"]) != (len(rows), trace.updates):
            problems.append("summary.json disagrees with trace.csv")
        if problems:
            raise CheckFailed(f"{d.name}: " + "; ".join(problems))
        pushes += len(rows)
        updates += trace.updates
    return pushes, updates, (trace_hash.hexdigest(), summary_hash.hexdigest())


class RunWorkload:
    """The steps of `stalesim run` on pieces built once: parse the config,
    run_simulation, summarize, write trace.csv and summary.json."""

    def __init__(self, name: str, seed: int, work: Path):
        from stalesim.config import parse_config
        from stalesim.simulator import build_experiment

        self.text = workloads.config_text(name, seed)
        self.pieces = build_experiment(parse_config(self.text))
        objective, _, probe, theta0 = self.pieces
        self.initial_loss = float(objective.loss(theta0, probe))
        self.dir = work / "run"
        self.dir.mkdir()
        self.points = [self.dir]

    def run(self) -> None:
        # module attributes are looked up per call so traced runs see the wrappers
        from stalesim import config, harness, simulator

        cfg = config.parse_config(self.text)
        trace = simulator.run_simulation(cfg, *self.pieces)
        report = harness.summarize(trace, cfg, self.initial_loss)
        trace.to_csv(str(self.dir / "trace.csv"))
        (self.dir / "summary.json").write_text(report.to_json())


class SweepWorkload:
    """`stalesim sweep --jobs 2` over strategies x seeds."""

    def __init__(self, name: str, seed: int, work: Path):
        cfg_path = work / "sweep.cfg"
        cfg_path.write_text(workloads.SWEEP_CONFIG)
        seeds = workloads.sweep_seeds(seed)
        out = work / "sweep"
        self.argv = [
            "sweep", str(cfg_path),
            "--grid", "strategy=" + ",".join(workloads.SWEEP_STRATEGIES),
            "--grid", "seed=" + ",".join(map(str, seeds)),
            "--jobs", str(workloads.SWEEP_JOBS),
            "--out-dir", str(out),
        ]
        self.points = [
            out / f"strategy={s}__seed={n}"
            for s in workloads.SWEEP_STRATEGIES
            for n in seeds
        ]

    def run(self) -> None:
        from stalesim import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise CheckFailed(f"stalesim sweep exited with {code}")


class Runner:
    """Times runs of one workload and checks each run's outputs against
    the invariants and against the first run's hashes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def once(self, tracer=None) -> dict | None:
        self.attempted += 1
        for d in self.workload.points:  # so a run that writes nothing cannot pass
            for name in ("trace.csv", "summary.json"):
                (d / name).unlink(missing_ok=True)
        gc.collect()  # each run starts from the same heap, as in a fresh process
        try:
            before = tracer.snapshot() if tracer else None
            c0, t0 = time.process_time(), time.perf_counter()
            self.workload.run()
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            kernel = timed_kernel()
            after = tracer.snapshot() if tracer else None
            pushes, updates, digest = check_outputs(self.workload.points)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                raise CheckFailed("outputs differ from the first run of this seed")
        except Exception:  # a failed run is counted, reported, and the loop goes on
            self.failed += 1
            traceback.print_exc()
            return None
        rec = {"wall": wall, "cpu": cpu, "kernel": kernel, "pushes": pushes,
               "updates": updates, "traced": tracer is not None}
        if tracer:
            rec["calls"] = {k: v - before[0].get(k, 0) for k, v in after[0].items()}
            rec["self_s"] = {k: v - before[1].get(k, 0.0) for k, v in after[1].items()}
        return rec

    def phase(self, seconds: float, tracer=None, between=None) -> list[dict]:
        """Run back to back for `seconds`. With a tracer, every second run
        is traced, so both kinds see the same host conditions.
        `between(fraction done)` runs after each run, outside its timing."""
        runs, n = [], 0
        start = time.perf_counter()
        while n < MIN_RUNS * (2 if tracer else 1) or time.perf_counter() < start + seconds:
            traced = tracer is not None and n % 2 == 1
            n += 1
            if traced:
                with tracer.installed():
                    rec = self.once(tracer)
            else:
                rec = self.once()
            if rec is not None:
                runs.append(rec)
            if between:
                between((time.perf_counter() - start) / seconds)
        return runs


class SetupProbes:
    """Cold set-up time of the workload, one fresh process per sample,
    each with the time of the reference kernel run right after it in that
    process. Samples are spread over the measuring window; a first,
    dropped probe warms the file cache."""

    def __init__(self, name: str, seed: int):
        self.argv = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]
        self.samples: list[tuple[float, float]] = []  # (set-up s, kernel s)
        self.probe()
        self.samples.clear()

    def probe(self) -> None:
        proc = subprocess.run(
            self.argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        setup, kernel = map(float, proc.stdout.split()[-2:])
        self.samples.append((setup, kernel))

    def __call__(self, done: float) -> None:
        if len(self.samples) < SETUP_PROBES * min(done, 1.0):
            self.probe()


def end_to_end(runs: list[dict], setup: list[tuple[float, float]]) -> dict:
    """Times at the speed where the reference kernel takes KERNEL_S. A
    run's time is the window's total run time over its total kernel time:
    a kernel run is short and as noisy as a run, so a median of per-run
    ratios spreads more. A set-up probe and its kernel share a fresh
    process, and set-up times are the median of their ratios."""
    wall = sum(r["wall"] for r in runs) / sum(r["kernel"] for r in runs) * KERNEL_S
    return {
        "pushes_per_s": (runs[0]["pushes"] / wall, "1/s"),  # same pushes every run
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(s / k for s, k in setup) * KERNEL_S, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict], gaps: list[float], points: int) -> dict:
    from tracer import LAYERS

    def med(f):
        return statistics.median(f(r) for r in traced)

    def self_s(r, layer):
        return r["self_s"].get(layer, 0.0)

    def calls(r, layer):
        return r["calls"].get(layer, 0)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (med(lambda r: calls(r, layer)), "count")
        m[f"{layer}.self_s"] = (med(lambda r: self_s(r, layer)), "s")
        m[f"{layer}.share"] = (med(lambda r: self_s(r, layer) / r["wall"]), "ratio")
    probes = sum(calls(r, "models.probe_loss") for r in traced)
    redundant = sum(calls(r, "models.probe_loss.redundant") for r in traced)
    m["models.probe_loss.redundant_ratio"] = (redundant / probes, "ratio")
    m["optim.step.calls_per_update"] = (med(lambda r: calls(r, "optim.step") / r["updates"]), "count")
    m["simulator.build_experiment.calls_per_point"] = (
        med(lambda r: calls(r, "simulator.build_experiment") / points), "count")
    m["simulator.engine.us_per_push"] = (
        med(lambda r: self_s(r, "simulator.engine") / r["pushes"] * 1e6), "us")
    pct = statistics.quantiles(gaps, n=100)
    m["simulator.push_host_us.p50"] = (statistics.median(gaps) * 1e6, "us")
    m["simulator.push_host_us.p99"] = (pct[98] * 1e6, "us")
    m["harness.trace_csv.bytes"] = (med(lambda r: calls(r, "harness.trace_csv.bytes")), "B")
    m["harness.sweep.cpu_per_wall"] = (
        sum(r["cpu"] for r in untraced) / sum(r["wall"] for r in untraced), "ratio")

    def kernel_units(rs):  # as in end_to_end, so host drift cancels
        return sum(r["wall"] for r in rs) / sum(r["kernel"] for r in rs)

    m["trace.overhead_ratio"] = (kernel_units(traced) / kernel_units(untraced) - 1.0, "ratio")
    m["trace.wall_s"] = (med(lambda r: r["wall"]), "s")
    m["trace.remainder_s"] = (
        med(lambda r: r["wall"] - sum(self_s(r, layer) for layer in LAYERS)), "s")
    return m


def environment(load_at_start) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "stalesim").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "platform": platform.platform(),
    }


def main() -> int:
    load_at_start = os.getloadavg()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    import_stalesim()

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        kind = SweepWorkload if args.workload == "sweep-linreg" else RunWorkload
        runner = Runner(kind(args.workload, args.seed, work))
        runner.once()  # warm-up: checked and counted, not timed
        setup = []
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            runs = runner.phase(args.seconds, tracer)
            traced = [r for r in runs if r["traced"]]
            untraced = [r for r in runs if not r["traced"]]
            ok = bool(untraced and traced)
            if ok:
                metrics = per_layer(untraced, traced, tracer.push_gaps(),
                                    len(runner.workload.points))
        else:
            probes = SetupProbes(args.workload, args.seed)
            runs = runner.phase(args.seconds, between=probes)
            while len(probes.samples) < SETUP_PROBES:  # a window too short to spread them
                probes.probe()
            setup = probes.samples
            ok = bool(runs)
            if ok:
                metrics = end_to_end(runs, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not ok:
        print(f"error: no measured run passed ({runner.failed} of {runner.attempted} failed)",
              file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(load_at_start),
        "trace_sha256": runner.digest[0],
        "summary_sha256": runner.digest[1],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "kernel_s": KERNEL_S,
        "setup_s_samples": [s for s, _ in setup],
        "setup_kernel_s": [k for _, k in setup],
        "run_wall_s": [r["wall"] for r in runs],
        "run_kernel_s": [r["kernel"] for r in runs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("# " + json.dumps({
        k: record[k] for k in ("trace_sha256", "summary_sha256", "fail_ratio")
    } | {"record": str(path.relative_to(ROOT)), "environment": record["environment"]}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
