"""Command-line interface.

    stalesim run <config> [--seed N] [--out-dir DIR] [--parallel]
    stalesim sweep <config> --grid key=v1,v2,... [--grid ...]
                   [--out-dir DIR] [--jobs N] [--seed N]
    stalesim selftest {adam,staleness,gradients,all}

Exit codes: 0 success, 2 bad configuration or unreadable input, 3 run
diverged, 4 finished but missed a configured loss threshold, 5 any other
error (one line on stderr, no traceback); sweep exits 3 if a point
diverged, else 0, missed thresholds or not. selftest exits 1 on failure.
The default output directory is taken from --out-dir, then the config's
out_dir, then $STALESIM_OUT, then the working directory.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .harness import (
    EXIT_CONFIG_ERROR,
    EXIT_DIVERGED,
    EXIT_INTERNAL_ERROR,
    resolve_out_dir,
    run_experiment,
    selftest_adam_table,
    selftest_gradients,
    selftest_staleness_table,
    sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stalesim",
        description="Deterministic parameter-server SGD simulator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configured experiment")
    run_p.add_argument("config", help="path to a key=value config file")
    run_p.add_argument("--seed", type=int, help="override the config's seed")
    run_p.add_argument("--out-dir", help="directory for trace.csv and summary.json")
    run_p.add_argument(
        "--parallel",
        action="store_true",
        help="pace the event loop with real sleeps instead of simulated time",
    )

    sweep_p = sub.add_parser("sweep", help="run a grid of config overrides")
    sweep_p.add_argument("config", help="path to the base config file")
    sweep_p.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="values to sweep for one config key (repeatable; cartesian product)",
    )
    sweep_p.add_argument("--out-dir", help="parent directory for per-point outputs")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="threads that run the paced points (default 1)")
    sweep_p.add_argument("--seed", type=int, help="override the config's seed")

    self_p = sub.add_parser("selftest", help="reproduce built-in reference tables")
    self_p.add_argument(
        "which", choices=["adam", "staleness", "gradients", "all"]
    )
    return p


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as f:  # a byte-order mark is skipped
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None


def _num(value, spec: str) -> str:
    """value formatted by spec, or n/a for a figure the run never produced."""
    return "n/a" if value is None else format(value, spec)


def _cmd_run(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.parallel:
        overrides["parallel"] = "true"
    cfg = parse_config(_read(args.config), overrides)
    out = resolve_out_dir(args.out_dir, cfg)
    trace, report = run_experiment(cfg, out)
    print(f"strategy={report.strategy} workers={report.workers} seed={cfg.seed}")
    print(
        f"updates={report.updates} pushes={report.pushes} "
        f"sim_time={report.sim_time_s:.6g}s "
        f"throughput={report.throughput_cost_per_s:.6g} cost/s"
    )
    print(
        f"mean_staleness={_num(report.mean_staleness, '.6g')} "
        f"final_loss={_num(report.final_loss, '.6g')}"
    )
    for t in report.thresholds:
        when = "unreached" if not t.reached else f"at {t.sim_time_s:.6g}s"
        print(f"threshold {t.kind} {t.value:g} (loss {t.loss_level:.6g}): {when}")
    if report.diverged:
        print(f"DIVERGED: {report.divergence_reason}")
    print(f"wrote {out}/trace.csv and {out}/summary.json")
    return report.exit_code()


def _parse_grid(items: list[str]) -> dict:
    grid = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--grid expects KEY=V1,V2,..., got {item!r}")
        key, _, values = item.partition("=")
        vals = [v.strip() for v in values.split(",") if v.strip()]
        key = key.strip()
        if not vals:
            raise ConfigError(f"--grid {key}: no values given")
        if key in grid:
            raise ConfigError(f"--grid {key} given twice; list all its values in one")
        grid[key] = vals
    return grid


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    text = _read(args.config)
    grid = _parse_grid(args.grid)
    overrides = {} if args.seed is None else {"seed": str(args.seed)}
    # every point writes under the same out_dir (sweep rejects a grid over
    # it), so the first point, which sweep parses first too, names it
    first = parse_config(text, {**overrides, **{k: v[0] for k, v in grid.items()}})
    out = resolve_out_dir(args.out_dir, first)
    results = sweep(text, grid, out, jobs=args.jobs, overrides=overrides)
    for label, report in results:
        status = "diverged" if report.diverged else "ok"
        print(
            f"{label}: final_loss={_num(report.final_loss, '.6g')} "
            f"mean_staleness={_num(report.mean_staleness, '.4g')} [{status}]"
        )
    print(f"{len(results)} runs written under {out}")
    return EXIT_DIVERGED if any(r.diverged for _, r in results) else 0


def _cmd_selftest(args) -> int:
    suites = {
        "adam": selftest_adam_table,
        "staleness": selftest_staleness_table,
        "gradients": selftest_gradients,
    }
    names = list(suites) if args.which == "all" else [args.which]
    all_ok = True
    for name in names:
        ok, lines = suites[name]()
        print(f"== selftest {name} ==")
        for line in lines:
            print(line)
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'}")
        all_ok &= ok
    return 0 if all_ok else 1


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_selftest(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
