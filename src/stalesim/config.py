"""Experiment configuration: a flat, line-oriented key=value document.

Example:

    # 4 async workers on a noisy quadratic
    objective.kind = quadratic
    objective.dim = 20
    objective.noise_sigma = 4.0
    workers = 4
    strategy.kind = global_accum
    strategy.global = 4
    optimizer.alpha = 0.01
    budget.updates = 2000
    seed = 7

Keys use dotted section prefixes but the document is flat: no nesting, one
key per line, `#` lines are comments. Unknown keys are rejected with their
line number, as are syntax and type errors and non-finite numbers (nan,
inf); semantic violations (G < 1, negative sigma, ...) are reported with
the constraint named. parse and serialize round-trip to an equal config.

The table `_KEYS` is the one list of keys, with each key's field and type:
parse_config, its assembly step and serialize_config all read it.

`strategy = LABEL` (e.g. `strategy = combined-2-3`) is shorthand: it is
expanded into the four strategy.* values as soon as it is read, so a bad
label is reported with its line. A document may use either form, not both.
Overrides apply in order: a label sets all four values, a strategy.* key
refines them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import NamedTuple

from .core import ComputeTimeModel
from .optim import AdamConfig
from .simulator import Strategy

__all__ = [
    "ObjectiveSpec",
    "ExperimentConfig",
    "ConfigError",
    "parse_config",
    "serialize_config",
]


class ConfigError(ValueError):
    """Configuration rejected; .line is the 1-based line number when the
    problem is tied to a specific input line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which toy objective to build and its generation parameters.

    dim/cond/noise_sigma/theta_star_scale apply to the quadratic (dim also
    to linreg); target_noise to linreg; in_dim/hidden/classes/spread to the
    mlp. samples is the dataset size. The mlp splits it, and probe.samples,
    over the classes: samples // classes rows per class, at least 1, so the
    defaults give 255 training and 63 probe rows.
    """

    kind: str = "quadratic"
    dim: int = 20
    cond: float = 10.0
    noise_sigma: float = 0.0
    theta_star_scale: float = 5.0
    samples: int = 256
    target_noise: float = 0.0
    in_dim: int = 4
    hidden: int = 8
    classes: int = 3
    spread: float = 0.5

    def __post_init__(self):
        if self.kind not in ("quadratic", "linreg", "mlp"):
            raise ValueError(f"objective.kind must be quadratic, linreg or mlp, got {self.kind!r}")
        if self.dim < 1:
            raise ValueError("objective.dim must be >= 1")
        if self.cond < 1:
            raise ValueError("objective.cond must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("objective.noise_sigma must be >= 0")
        if self.samples < 1:
            raise ValueError("objective.samples must be >= 1")
        if self.target_noise < 0:
            raise ValueError("objective.target_noise must be >= 0")
        for name, low in (("in_dim", 1), ("hidden", 1), ("classes", 2)):
            if getattr(self, name) < low:
                raise ValueError(f"objective.{name} must be >= {low}")
        if self.spread <= 0:
            raise ValueError("objective.spread must be > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    workers: int = 4
    strategy: Strategy = Strategy("async")
    optimizer_kind: str = "adam"
    adam: AdamConfig = field(default_factory=AdamConfig)
    schedule_warmup: int = 0
    schedule_decay: str = "inverse-sqrt"
    schedule_batch_scale: float = 0.0
    compute: ComputeTimeModel = ComputeTimeModel("constant", 1.0)
    comm_latency: float = 0.0
    combine: str = "mean"
    batch_budget: int = 8
    batch_cost_max: int = 1
    budget_updates: int = 1000
    budget_sim_time: float = 0.0
    seed: int = 0
    probe_seed: int = 9999
    probe_samples: int = 64
    parallel: bool = False
    parallel_time_scale: float = 1.0
    stats_warmup_pushes: int | None = None
    thresholds: tuple = (0.5, 0.1, 0.01)
    thresholds_absolute: tuple = ()
    thresholds_target: float = 0.0
    out_dir: str = ""

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.optimizer_kind not in ("adam", "sgd"):
            raise ValueError(f"optimizer.kind must be adam or sgd, got {self.optimizer_kind!r}")
        if self.schedule_warmup < 0:
            raise ValueError("schedule.warmup must be >= 0")
        if self.schedule_decay not in ("inverse-sqrt", "none"):
            raise ValueError(f"schedule.decay must be inverse-sqrt or none, got {self.schedule_decay!r}")
        if self.schedule_batch_scale < 0:
            raise ValueError("schedule.batch_scale must be >= 0")
        if self.comm_latency < 0:
            raise ValueError("comm.latency must be >= 0")
        if self.combine not in ("mean", "sum"):
            raise ValueError(f"combine must be mean or sum, got {self.combine!r}")
        if self.batch_budget < 1:
            raise ValueError("batch.budget must be >= 1")
        if self.batch_cost_max < 1:
            raise ValueError("batch.cost_max must be >= 1")
        if self.batch_cost_max > self.batch_budget:
            # a sample costlier than the budget fits in no batch
            raise ValueError(
                f"batch.cost_max ({self.batch_cost_max}) must not exceed "
                f"batch.budget ({self.batch_budget})"
            )
        if self.budget_updates < 1:
            raise ValueError("budget.updates must be >= 1")
        if self.budget_sim_time < 0:
            raise ValueError("budget.sim_time must be >= 0 (0 disables it)")
        if self.probe_samples < 1:
            raise ValueError("probe.samples must be >= 1")
        if self.parallel_time_scale <= 0:
            raise ValueError("parallel.time_scale must be > 0")
        if self.stats_warmup_pushes is not None and self.stats_warmup_pushes < 0:
            raise ValueError("stats.warmup_pushes must be >= 0")
        for f_ in self.thresholds:
            if not 0 < f_ <= 1:
                raise ValueError("thresholds fractions must be in (0, 1]")
        for a in self.thresholds_absolute:
            if not math.isfinite(a):
                raise ValueError("thresholds.absolute values must be finite")


class _Key(NamedTuple):
    key: str  # as written in the document
    path: str  # ExperimentConfig field, "owner.field" inside a sub-object
    tag: str  # int, float, bool, str or float_list
    optional: bool = False  # omitted by serialize_config while unset


# The one list of config keys, in serialization order.
_KEYS = (
    _Key("objective.kind", "objective.kind", "str"),
    _Key("objective.dim", "objective.dim", "int"),
    _Key("objective.cond", "objective.cond", "float"),
    _Key("objective.noise_sigma", "objective.noise_sigma", "float"),
    _Key("objective.theta_star_scale", "objective.theta_star_scale", "float"),
    _Key("objective.samples", "objective.samples", "int"),
    _Key("objective.target_noise", "objective.target_noise", "float"),
    _Key("objective.in_dim", "objective.in_dim", "int"),
    _Key("objective.hidden", "objective.hidden", "int"),
    _Key("objective.classes", "objective.classes", "int"),
    _Key("objective.spread", "objective.spread", "float"),
    _Key("workers", "workers", "int"),
    _Key("strategy.kind", "strategy.kind", "str"),
    _Key("strategy.local", "strategy.local", "int"),
    _Key("strategy.global", "strategy.global_count", "int"),
    _Key("strategy.pull_every", "strategy.pull_every", "int"),
    _Key("optimizer.kind", "optimizer_kind", "str"),
    _Key("optimizer.alpha", "adam.alpha", "float"),
    _Key("optimizer.beta1", "adam.beta1", "float"),
    _Key("optimizer.beta2", "adam.beta2", "float"),
    _Key("optimizer.epsilon", "adam.epsilon", "float"),
    _Key("schedule.warmup", "schedule_warmup", "int"),
    _Key("schedule.decay", "schedule_decay", "str"),
    _Key("schedule.batch_scale", "schedule_batch_scale", "float"),
    _Key("compute.kind", "compute.kind", "str"),
    _Key("compute.mean", "compute.mean", "float"),
    _Key("compute.std", "compute.std", "float"),
    _Key("comm.latency", "comm_latency", "float"),
    _Key("combine", "combine", "str"),
    _Key("batch.budget", "batch_budget", "int"),
    _Key("batch.cost_max", "batch_cost_max", "int"),
    _Key("budget.updates", "budget_updates", "int"),
    _Key("budget.sim_time", "budget_sim_time", "float"),
    _Key("seed", "seed", "int"),
    _Key("probe.seed", "probe_seed", "int"),
    _Key("probe.samples", "probe_samples", "int"),
    _Key("parallel", "parallel", "bool"),
    _Key("parallel.time_scale", "parallel_time_scale", "float"),
    _Key("thresholds", "thresholds", "float_list"),
    _Key("thresholds.target", "thresholds_target", "float"),
    _Key("stats.warmup_pushes", "stats_warmup_pushes", "int", optional=True),
    _Key("thresholds.absolute", "thresholds_absolute", "float_list", optional=True),
    _Key("out_dir", "out_dir", "str", optional=True),
)
_TAGS = {k.key: k.tag for k in _KEYS}
_TAGS["strategy"] = "str"  # label form, e.g. "combined-2-2"; the one key outside _KEYS
_STRATEGY_KEYS = [k for k in _KEYS if k.path.startswith("strategy.")]
_DEFAULTS = ExperimentConfig()
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _convert(key: str, raw: str, line: int | None):
    tag = _TAGS[key]
    try:
        if tag == "int":
            return int(raw)
        if tag == "bool":
            return _BOOL_WORDS[raw.lower()]
        if tag == "str":
            return raw
        if tag == "float":
            nums = (float(raw),)
        else:
            nums = tuple(float(x) for x in raw.split(",")) if raw else ()
    except (ValueError, KeyError):
        raise ConfigError(f"{key} expects a {tag} value, got {raw!r}", line) from None
    if not all(map(math.isfinite, nums)):
        raise ConfigError(f"{key} must be finite, got {raw!r}", line)
    return nums[0] if tag == "float" else nums


def _set(values: dict, key: str, raw: str, line: int | None) -> None:
    """Convert one raw value into values. The label form is shorthand: it
    sets all four strategy.* values at once."""
    if key != "strategy":
        values[key] = _convert(key, raw, line)
        return
    try:
        s = Strategy.parse(raw)
    except ValueError as e:
        raise ConfigError(str(e), line) from None
    for k in _STRATEGY_KEYS:
        values[k.key] = getattr(s, k.path.partition(".")[2])


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a config document, apply documented defaults, validate.

    overrides, when given, maps keys to raw string values applied on top
    of the document in order (the CLI's --seed/--out-dir/--parallel flags).
    """
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _TAGS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in seen:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {seen[key]})", lineno
            )
        seen[key] = lineno
        _set(values, key, raw, lineno)
    for k in _STRATEGY_KEYS:
        if "strategy" in seen and k.key in seen:
            raise ConfigError(
                f"strategy (label form) conflicts with {k.key}; use one style",
                max(seen["strategy"], seen[k.key]),
            )
    for key, raw in (overrides or {}).items():
        if key not in _TAGS:
            raise ConfigError(f"unknown override key {key!r}")
        _set(values, key, str(raw), None)
    return _assemble(values)


def _assemble(v: dict) -> ExperimentConfig:
    top: dict[str, object] = {}
    subs: dict[str, dict] = {}
    for k in _KEYS:
        if k.key in v:
            owner, _, name = k.path.rpartition(".")
            (subs.setdefault(owner, {}) if owner else top)[name] = v[k.key]
    try:
        for owner, changes in subs.items():
            top[owner] = replace(getattr(_DEFAULTS, owner), **changes)
        return replace(_DEFAULTS, **top)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(x)) for x in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit a document that parse_config maps back to an equal config.
    Optional keys at their unset defaults (stats.warmup_pushes, empty
    thresholds.absolute, empty out_dir) are omitted."""
    out = []
    for k in _KEYS:
        value = attrgetter(k.path)(cfg)
        if not (k.optional and value == attrgetter(k.path)(_DEFAULTS)):
            out.append(f"{k.key} = {_format(value)}\n")
    return "".join(out)
