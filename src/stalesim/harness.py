"""Experiment orchestration: run/summarize/sweep plus built-in self-tests.

run_experiment executes one configured run and writes two files into the
output directory: trace.csv (one row per push, schema trace-v1) and
summary.json (schema summary-v1: config echo, staleness stats, loss
milestones, time-to-threshold table, throughput).

The self-tests reproduce two desk-scale reference tables from first
principles: the worked 6-step Adam example over three gradient streams
with the same mean and different variance, and the steady-state staleness
values {0, 3, 3, 1.5, 0.75} of the five canonical 4-worker strategies.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import (
    AdamConfig,
    ComputeTimeModel,
    ConfigError,
    ExperimentConfig,
    Strategy,
    parse_config,
    serialize_config,
    stage_key,
)
from .core import RngStream
from .models import (
    Batch,
    LinearRegression,
    Mlp,
    Quadratic,
    finite_diff_grad,
    make_blob_samples,
    make_linreg_samples,
)
from .optim import AdamState, adam_step
from .simulator import (
    RunTrace,
    build_experiment,
    run_simulation,
    staleness_summary,
)

__all__ = [
    "EXIT_OK",
    "EXIT_CONFIG_ERROR",
    "EXIT_DIVERGED",
    "EXIT_THRESHOLDS",
    "EXIT_INTERNAL_ERROR",
    "ThresholdResult",
    "SummaryReport",
    "summarize",
    "run_experiment",
    "sweep",
    "selftest_adam_table",
    "selftest_staleness_table",
    "selftest_gradients",
]

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_DIVERGED = 3
EXIT_THRESHOLDS = 4
EXIT_INTERNAL_ERROR = 5  # any other error, e.g. one an objective raised

OUT_DIR_ENV = "STALESIM_OUT"

SUMMARY_SCHEMA = "summary-v1"


@dataclass(frozen=True)
class ThresholdResult:
    """One time-to-threshold entry: the first simulated time at which the
    probe loss fell to loss_level, or unreached."""

    kind: str  # "fraction" or "absolute"
    value: float
    loss_level: float
    reached: bool
    sim_time_s: float | None


@dataclass
class SummaryReport:
    strategy: str
    workers: int
    pushes: int
    updates: int
    sim_time_s: float
    throughput_cost_per_s: float
    initial_loss: float
    final_loss: float | None
    best_loss: float | None
    mean_staleness: float | None
    staleness_histogram: dict
    thresholds: list
    diverged: bool
    divergence_reason: str | None
    config_echo: str

    def exit_code(self) -> int:
        if self.diverged:
            return EXIT_DIVERGED
        if any(not t.reached for t in self.thresholds):
            return EXIT_THRESHOLDS
        return EXIT_OK

    def to_json(self) -> str:
        """summary.json: the fields, with `config_echo` written as `config`,
        plus `schema` and each threshold's `sim_hours`, keys sorted. A
        non-finite number (an initial loss that overflowed or was never
        probed, and the fraction levels built on it) is written as null."""
        doc = asdict(self)
        doc["schema"] = SUMMARY_SCHEMA
        doc["config"] = doc.pop("config_echo")
        # keys become str before sort_keys sees them, so the histogram is
        # written in string order ("10" before "2"), as summary-v1 has it
        hist = doc["staleness_histogram"]
        doc["staleness_histogram"] = {str(k): v for k, v in hist.items()}
        for t in doc["thresholds"]:
            t["sim_hours"] = None if t["sim_time_s"] is None else t["sim_time_s"] / 3600
        return json.dumps(_strict(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _strict(x):
    """x with every nan or inf float in it, at any depth, as None."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_strict(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _scan_threshold(trace: RunTrace, kind: str, value: float, level: float) -> ThresholdResult:
    for loss, t in zip(trace.columns["loss_probe"], trace.columns["sim_time_s"]):
        if loss <= level:
            return ThresholdResult(kind, value, level, True, t)
    return ThresholdResult(kind, value, level, False, None)


def _check_target(cfg: ExperimentConfig, initial_loss: float) -> None:
    """A target above a finite initial loss would put every fraction
    level above the start, so it raises a ConfigError while fraction
    thresholds are set."""
    target = cfg.thresholds_target
    if cfg.thresholds and math.isfinite(initial_loss) and target > initial_loss:
        raise ConfigError(
            f"thresholds.target must be <= the initial probe loss {initial_loss!r}"
            f" while fraction thresholds are set, got {target!r}"
        )


def summarize(trace: RunTrace, cfg: ExperimentConfig, initial_loss: float) -> SummaryReport:
    """Reduce a trace to the summary record. initial_loss is the probe
    loss at the initial parameters (before any update); fraction
    thresholds sit at target + f*(initial - target), and _check_target
    rejects a target above the start."""
    _check_target(cfg, initial_loss)
    target = cfg.thresholds_target
    try:
        mean_st, hist = staleness_summary(trace, cfg.stats_warmup_pushes)
    except ValueError:
        mean_st, hist = None, {}
    thresholds = [
        _scan_threshold(
            trace,
            "fraction",
            f,
            target + f * (initial_loss - target),
        )
        for f in cfg.thresholds
    ]
    thresholds += [
        _scan_threshold(trace, "absolute", a, a) for a in cfg.thresholds_absolute
    ]
    t_final = trace.final_sim_time
    return SummaryReport(
        strategy=trace.strategy_label,
        workers=trace.n_workers,
        pushes=trace.pushes,
        updates=trace.updates,
        sim_time_s=t_final,
        throughput_cost_per_s=trace.total_cost / t_final if t_final > 0 else 0.0,
        initial_loss=initial_loss,
        final_loss=trace.final_loss if trace.pushes else None,
        best_loss=trace.best_loss if trace.pushes else None,
        mean_staleness=mean_st,
        staleness_histogram=hist,
        thresholds=thresholds,
        diverged=trace.diverged,
        divergence_reason=trace.divergence_reason,
        config_echo=serialize_config(cfg),
    )


def resolve_out_dir(explicit: str | None, cfg: ExperimentConfig) -> str:
    """explicit (the CLI's --out-dir), else cfg's out_dir, else
    $STALESIM_OUT, else the working directory. An empty out_dir or
    $STALESIM_OUT is unset, but an explicit empty directory is a
    ConfigError."""
    if explicit == "":
        raise ConfigError("--out-dir must not be empty")
    return explicit or cfg.out_dir or os.environ.get(OUT_DIR_ENV) or "."


def _make_out_dir(path: str) -> None:
    """Make the directory path and its parents, or raise a ConfigError
    naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make the output directory {path}: {e.strerror}") from None


def _checked_pieces(cfg: ExperimentConfig, pieces: tuple = ()) -> tuple:
    """The pieces to run cfg on, once _check_target has passed cfg. Only
    fraction thresholds with a target above 0 need the initial probe loss
    (every loss here is >= 0): then the pieces are built unless given,
    probed as the run probes them, and returned."""
    if cfg.thresholds and cfg.thresholds_target > 0:
        pieces = objective, _, probe, theta0 = build_experiment(cfg, *pieces)
        with np.errstate(over="ignore", invalid="ignore"):  # as the run probes it
            _check_target(cfg, objective.loss(theta0, probe))
    return pieces


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None, pieces: tuple = ()
) -> tuple[RunTrace, SummaryReport]:
    """Run one experiment and write trace.csv + summary.json.

    pieces, when given, are the (objective, dataset, probe, theta0) that
    build_experiment returned for cfg's build keys; otherwise they are
    built here. Bad input is rejected before the run: an empty out_dir
    first, then a fraction target above the initial probe loss
    (_checked_pieces, which builds the pieces to probe it and the run then
    runs on), then an output directory that cannot be made, which is made
    before the run. run_simulation paces
    the run on the real clock when cfg.parallel is set and probes the
    initial loss; the summary takes it from the trace. The summary's
    config echo never names a directory the files were not written to
    (_echo). The exit status for a CLI wrapper comes from
    SummaryReport.exit_code(): 0 ok, 3 diverged, 4 thresholds unreached.
    """
    if out_dir == "":
        raise ConfigError("run_experiment's out_dir argument must not be empty")
    pieces = _checked_pieces(cfg, pieces)
    out = resolve_out_dir(out_dir, cfg)
    _make_out_dir(out)
    trace = run_simulation(cfg, *pieces)
    report = summarize(trace, _echo(cfg, out), trace.initial_loss)
    trace.to_csv(os.path.join(out, "trace.csv"))
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as f:
        f.write(report.to_json())
    return trace, report


def _echo(cfg: ExperimentConfig, out: str) -> ExperimentConfig:
    """cfg as summary.json echoes it, for files written to the directory
    out. A cfg without out_dir is echoed as it is. Otherwise out_dir is
    out, which the out_dir argument (the CLI's --out-dir, a sweep point's
    subdirectory) may have taken elsewhere, so that running the echo again
    writes where this run did. A line of config text cannot hold an out
    with a line break or with space at either end (parse_config splits
    lines and strips values), so such an out is left out of the echo."""
    if not cfg.out_dir:
        return cfg
    return replace(cfg, out_dir=out if out.splitlines() == [out.strip()] else "")


def _sanitize(label: str) -> str:
    return label.replace(os.sep, "_").replace(" ", "")


def sweep(
    base_text: str,
    grid: dict,
    out_dir: str,
    jobs: int = 1,
    overrides: dict | None = None,
) -> list[tuple[str, SummaryReport]]:
    """Run the cartesian product of config overrides.

    grid maps config keys to lists of raw string values
    (e.g. {"optimizer.alpha": ["0.001", "0.003"], "seed": ["0", "1"]}).
    overrides, raw values as for parse_config, apply to every point; the
    grid's values win over them (the CLI's sweep --seed).
    Each point runs in its own subdirectory of out_dir named by its
    overrides, and the results come back in grid order.

    Every point is checked before any runs, so bad input anywhere in the
    grid raises a ConfigError with nothing written: an empty out_dir
    (the points' directories would land in the working directory), a bad
    value, two points that would share a directory, two points with the
    same config (the same experiment twice), a grid over out_dir (each
    point writes under the sweep's out_dir, never under its own) and a
    fraction-threshold target above a point's initial probe loss. Then
    every point's directory is made, and one that cannot be made raises a
    ConfigError too.

    Points that agree on every build key (config stage_key "build") can
    share one build_experiment result, which is read-only. Paced points
    (cfg.parallel) run on jobs threads, each building its own pieces;
    unpaced points share their group's build and run in turn on the
    calling thread, while the paced points sleep. An unpaced point holds
    the interpreter lock for its whole run, so a second thread would add
    no throughput, only a thread switch at every numpy call that releases
    the lock (ndarray.dot in the gradients). So at most jobs paced builds
    and one unpaced group build are alive. The target check
    (_checked_pieces) builds each group once more, on the calling thread,
    and passes that build along the group's points; the check's builds
    are dropped before any point runs.
    """
    if not out_dir:
        raise ConfigError("sweep's out_dir argument must not be empty")
    if jobs < 1:
        raise ConfigError(f"sweep's jobs argument must be >= 1, got {jobs}")
    keys = list(grid)
    points = {}  # directory -> (label, config)
    same = {}  # config echo -> label
    for combo in itertools.product(*(grid[k] for k in keys)):
        point = dict(zip(keys, combo))
        label = "__".join(f"{k}={v}" for k, v in point.items()) or "base"
        path = os.path.join(out_dir, _sanitize(label))
        if path in points:
            raise ConfigError(
                f"sweep points {points[path][0]} and {label} share the directory {path}"
            )
        cfg = parse_config(base_text, {**(overrides or {}), **point})
        first = same.setdefault(serialize_config(cfg), label)
        if first != label:
            raise ConfigError(f"sweep points {first} and {label} have the same config")
        points[path] = (label, cfg)
    if "out_dir" in grid:
        raise ConfigError(f"sweep cannot grid over out_dir: every point writes under {out_dir}")
    groups: dict[tuple, list] = {}  # build key -> [(directory, config)]
    for path, (_, cfg) in points.items():
        groups.setdefault(stage_key(cfg, "build"), []).append((path, cfg))
    for members in groups.values():
        pieces = ()
        for _, cfg in members:
            pieces = _checked_pieces(cfg, pieces)
        del pieces  # no check's build lives on into the runs
    for path in points:
        _make_out_dir(path)

    reports = {}
    with ThreadPoolExecutor(max_workers=jobs) as pool:  # its exit waits for every paced point
        paced = {path: pool.submit(lambda c, p: run_experiment(c, p)[1], cfg, path)
                 for path, (_, cfg) in points.items() if cfg.parallel}
        for members in groups.values():
            pieces = ()
            for path, cfg in members:
                if not cfg.parallel:
                    pieces = pieces or build_experiment(cfg)
                    reports[path] = run_experiment(cfg, path, pieces)[1]
            del pieces
    reports.update((path, future.result()) for path, future in paced.items())
    return [(label, reports[path]) for path, (label, _) in points.items()]


# ---------------------------------------------------------------------------
# Self-tests
# ---------------------------------------------------------------------------

# Reference 6-step Adam run (alpha=0.001, beta1=0.9, beta2=0.98) over three
# gradient streams sharing the same scale but not the same variance. Cells
# are quoted at 3 decimals; a computed value matches a cell when it rounds
# to it half-away-from-zero, i.e. |computed - cell| <= 0.0005 (plus a small
# float guard for exact ties like m_3 = 0.2255 in the scaled stream). A
# zero cell, printed as 0.000 or -0.000, also carries a sign the magnitude
# test alone cannot: 0.0 requires the value >= 0 and -0.0 requires it < 0.
# The -0.000 theta at step 6 of different_sign is the "takes 6 steps
# before the parameter has the correct sign" event.
_ADAM_TABLE = {
    "constant": {
        "g": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        "m": (0.1, 0.19, 0.271, 0.344, 0.41, 0.469),
        "v": (0.02, 0.04, 0.059, 0.078, 0.096, 0.114),
        "m_hat": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        "v_hat": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        "theta": (-0.001, -0.002, -0.003, -0.004, -0.005, -0.006),
    },
    "scaled": {
        "g": (0.5, 1.5, 0.5, 1.5, 0.5, 1.5),
        "m": (0.05, 0.195, 0.226, 0.353, 0.368, 0.481),
        "v": (0.005, 0.05, 0.054, 0.098, 0.101, 0.144),
        "m_hat": (0.5, 1.026, 0.832, 1.026, 0.898, 1.026),
        "v_hat": (0.25, 1.26, 0.917, 1.26, 1.05, 1.26),
        "theta": (-0.001, -0.002, -0.003, -0.004, -0.005, -0.005),
    },
    "different_sign": {
        "g": (-1.0, 2.0, -1.0, 2.0, -1.0, 2.0),
        "m": (-0.1, 0.11, -0.001, 0.199, 0.079, 0.271),
        "v": (0.02, 0.1, 0.118, 0.195, 0.211, 0.287),
        "m_hat": (-1.0, 0.579, -0.004, 0.579, 0.193, 0.579),
        "v_hat": (1.0, 2.515, 2.0, 2.515, 2.2, 2.515),
        "theta": (0.001, 0.001, 0.001, 0.0, 0.0, -0.0),
    },
}

CELL_TOL = 0.0005 + 1e-9


def selftest_adam_table() -> tuple[bool, list[str]]:
    """Recompute the three-stream worked Adam example and compare every
    m, v, m_hat, v_hat, theta cell at 3-decimal rounding."""
    cfg = AdamConfig(alpha=0.001, beta1=0.9, beta2=0.98, epsilon=1e-8)
    lines = []
    ok = True
    for stream, table in _ADAM_TABLE.items():
        state = AdamState.zeros(1)
        theta = np.zeros(1)
        got = {"m": [], "v": [], "m_hat": [], "v_hat": [], "theta": []}
        for g in table["g"]:
            state, theta = adam_step(state, cfg, theta, np.array([g]), cfg.alpha)
            got["m"].append(state.m[0])
            got["v"].append(state.v[0])
            got["m_hat"].append(state.m[0] / (1 - cfg.beta1**state.t))
            got["v_hat"].append(state.v[0] / (1 - cfg.beta2**state.t))
            got["theta"].append(theta[0])
        for quantity in ("m", "v", "m_hat", "v_hat", "theta"):
            for t in range(1, 7):
                actual = got[quantity][t - 1]
                expected = table[quantity][t - 1]
                diff = abs(actual - expected)
                cell_ok = diff <= CELL_TOL
                if expected == 0 and (actual < 0) != (math.copysign(1.0, expected) < 0):
                    cell_ok = False
                ok &= cell_ok
                lines.append(
                    f"{stream:>14} {quantity:>5} t={t}: {actual:+.6f} "
                    f"vs {expected:+.3f} (diff {diff:.6f}) "
                    f"{'ok' if cell_ok else 'MISMATCH'}"
                )
    return ok, lines


def _staleness_config(strategy: Strategy, updates: int) -> ExperimentConfig:
    # unit costs + constant unit compute keep every batch's duration at
    # exactly 1 s, incommensurate with the i/4 s worker stagger
    return ExperimentConfig(
        strategy=strategy,
        workers=4,
        batch_budget=1,
        batch_cost_max=1,
        budget_updates=updates,
        compute=ComputeTimeModel("constant", 1.0),
        seed=0,
    )


def selftest_staleness_table() -> tuple[bool, list[str]]:
    """Steady-state mean staleness of the five canonical 4-worker setups
    under equal compute times, plus the async mean under noisy compute
    times. The warmup exclusion (first N pushes) leaves exactly the
    steady-state pattern, so the five means are checked for equality, not
    approximately."""
    cases = [
        (Strategy("sync"), 50, 0.0),
        (Strategy("async"), 200, 3.0),
        (Strategy("local_accum", local=4), 50, 3.0),
        (Strategy("combined", local=2, global_count=2), 50, 1.5),
        (Strategy("global_accum", global_count=4), 50, 0.75),
    ]
    lines = []
    ok = True
    for strategy, updates, expected in cases:
        trace = run_simulation(_staleness_config(strategy, updates))
        mean, _ = staleness_summary(trace)
        case_ok = mean == expected
        ok &= case_ok
        lines.append(
            f"{strategy.label:>16}: mean staleness {mean} "
            f"(expected {expected}) {'ok' if case_ok else 'MISMATCH'}"
        )
    noisy = replace(
        _staleness_config(Strategy("async"), 10_000),
        compute=ComputeTimeModel("normal", 1.0, 0.2),
    )
    mean, _ = staleness_summary(run_simulation(noisy))
    noisy_ok = 2.8 <= mean <= 3.2
    ok &= noisy_ok
    lines.append(
        f"{'async-noisy':>16}: mean staleness {mean:.4f} over 10^4 pushes "
        f"(expected in [2.8, 3.2]) {'ok' if noisy_ok else 'MISMATCH'}"
    )
    return ok, lines


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(analytic)), 1e-8)
    return float(np.linalg.norm(analytic - numeric)) / scale


def selftest_gradients() -> tuple[bool, list[str]]:
    """Analytic gradients vs central finite differences on all three
    objectives (noise disabled)."""
    rng = RngStream(11, 7)
    theta_q = rng.normal(size=6)
    theta_true = rng.normal(size=5)
    theta_l = rng.normal(size=5)
    centers = rng.normal(0.0, 2.0, size=(3, 4))
    linreg_batch = make_linreg_samples(RngStream(12, 0), 8, theta_true)
    mlp, mlp_batch = Mlp(4, 8, 3), make_blob_samples(RngStream(13, 0), 5, centers)
    cases = [
        ("quadratic", Quadratic.random(6, seed=3, cond=10.0), theta_q, Batch.cost_only([1]), 1e-6),
        ("linreg", LinearRegression(5), theta_l, linreg_batch, 1e-6),
        (f"mlp ({mlp.dim} params)", mlp, mlp.init_theta(RngStream(14, 3)), mlp_batch, 1e-4),
    ]
    lines = []
    ok = True
    for name, objective, theta, batch, tol in cases:
        err = _rel_err(
            objective.grad(theta, batch), finite_diff_grad(objective, theta, batch, 1e-4)
        )
        case_ok = err < tol
        ok &= case_ok
        verdict = "ok" if case_ok else "MISMATCH"
        lines.append(f"{name}: rel err {err:.3e} (tol {tol:.0e}) {verdict}")
    return ok, lines
