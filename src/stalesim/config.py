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
inf); a value outside its key's rule (G < 1, negative sigma, ...) is
reported with the key, the rule and the value. parse and serialize
round-trip to an equal config.

The table `_KEYS` is the one list of keys, with each key's field, type,
stage and allowed values: parse_config, its assembly step,
serialize_config, stage_key and the checks of all five value types
(ObjectiveSpec, Strategy, AdamConfig, ComputeTimeModel and
ExperimentConfig) read it. Each type's __post_init__ runs its keys' rules
through one _check, then only the checks no single rule states.

`strategy = LABEL` (e.g. `strategy = combined-2-3`) is shorthand: it is
expanded into the four strategy.* values as soon as it is read, so a bad
label is reported with its line. A document may use either form, not both.
Overrides apply in order: a label sets all four values, a strategy.* key
refines them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from operator import attrgetter, ge, gt, le, lt
from typing import NamedTuple

import numpy as np

from .core import learning_rate

__all__ = [
    "ObjectiveSpec",
    "Strategy",
    "AdamConfig",
    "ComputeTimeModel",
    "ExperimentConfig",
    "ConfigError",
    "parse_config",
    "serialize_config",
    "stage_key",
]


class ConfigError(ValueError):
    """Configuration rejected; .line is the 1-based line number when the
    problem is tied to a specific input line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class _Key(NamedTuple):
    key: str  # as written in the document
    path: str  # ExperimentConfig field, "owner.field" inside a sub-object
    tag: str  # int, float, bool, str or float_list
    # what the value decides: "build" the pieces build_experiment makes,
    # "schedule" the event order and its draws, "step" the optimizer step,
    # "report" only the summary and where the files go
    stage: str
    # allowed words, or a bound such as ">= 1 and <= 1e12"; "" for a key
    # that no rule covers
    rule: tuple | str = ""
    optional: bool = False  # omitted by serialize_config while unset


# The Strategy fields each kind takes, in label order; a kind fixes every
# other field at 1.
_PARAMS = {
    "sync": (),
    "sync_stale": ("pull_every",),
    "async": (),
    "local_accum": ("local",),
    "global_accum": ("global_count",),
    "combined": ("local", "global_count"),
}

_SEED = ">= 0 and < 18446744073709551616"  # one 64-bit Philox key word

# The one list of config keys, in serialization order.
_KEYS = (
    _Key("objective.kind", "objective.kind", "str", "build", ("quadratic", "linreg", "mlp")),
    _Key("objective.dim", "objective.dim", "int", "build", ">= 1"),
    # above 1e12, rounding can leave Quadratic.random's matrix indefinite
    _Key("objective.cond", "objective.cond", "float", "build", ">= 1 and <= 1e12"),
    _Key("objective.noise_sigma", "objective.noise_sigma", "float", "build", ">= 0"),
    _Key("objective.theta_star_scale", "objective.theta_star_scale", "float", "build", ">= 0"),
    _Key("objective.samples", "objective.samples", "int", "build", ">= 1"),
    _Key("objective.target_noise", "objective.target_noise", "float", "build", ">= 0"),
    _Key("objective.in_dim", "objective.in_dim", "int", "build", ">= 1"),
    _Key("objective.hidden", "objective.hidden", "int", "build", ">= 1"),
    _Key("objective.classes", "objective.classes", "int", "build", ">= 2"),
    _Key("objective.spread", "objective.spread", "float", "build", "> 0"),
    _Key("workers", "workers", "int", "schedule", ">= 1"),
    _Key("strategy.kind", "strategy.kind", "str", "schedule", tuple(_PARAMS)),
    _Key("strategy.local", "strategy.local", "int", "schedule", ">= 1"),
    _Key("strategy.global", "strategy.global_count", "int", "schedule", ">= 1"),
    _Key("strategy.pull_every", "strategy.pull_every", "int", "schedule", ">= 1"),
    _Key("optimizer.kind", "optimizer_kind", "str", "step", ("adam", "sgd")),
    _Key("optimizer.alpha", "adam.alpha", "float", "step", "> 0"),
    _Key("optimizer.beta1", "adam.beta1", "float", "step", ">= 0 and < 1"),
    _Key("optimizer.beta2", "adam.beta2", "float", "step", ">= 0 and < 1"),
    _Key("optimizer.epsilon", "adam.epsilon", "float", "step", ">= 0"),
    _Key("schedule.warmup", "schedule_warmup", "int", "step", ">= 0"),
    _Key("schedule.decay", "schedule_decay", "str", "step", ("inverse-sqrt", "none")),
    _Key("schedule.batch_scale", "schedule_batch_scale", "float", "step", ">= 0"),
    _Key("compute.kind", "compute.kind", "str", "schedule", ("constant", "normal")),
    _Key("compute.mean", "compute.mean", "float", "schedule", "> 0"),
    _Key("compute.std", "compute.std", "float", "schedule", ">= 0"),
    _Key("comm.latency", "comm_latency", "float", "schedule", ">= 0"),
    _Key("combine", "combine", "str", "step", ("mean", "sum")),
    # an int64, as every cost is: batch.cost_max <= batch.budget keeps the
    # costs' draw (Generator.integers) in range
    _Key("batch.budget", "batch_budget", "int", "schedule", ">= 1 and < 9223372036854775808"),
    _Key("batch.cost_max", "batch_cost_max", "int", "build", ">= 1"),
    _Key("budget.updates", "budget_updates", "int", "schedule", ">= 1"),
    _Key("budget.sim_time", "budget_sim_time", "float", "schedule", ">= 0"),
    _Key("seed", "seed", "int", "build", _SEED),
    _Key("probe.seed", "probe_seed", "int", "build", _SEED),
    _Key("probe.samples", "probe_samples", "int", "build", ">= 1"),
    _Key("parallel", "parallel", "bool", "schedule"),
    _Key("parallel.time_scale", "parallel_time_scale", "float", "schedule", "> 0"),
    _Key("thresholds", "thresholds", "float_list", "report"),
    _Key("thresholds.target", "thresholds_target", "float", "report"),
    _Key("stats.warmup_pushes", "stats_warmup_pushes", "int", "report", ">= 0", optional=True),
    _Key("thresholds.absolute", "thresholds_absolute", "float_list", "report", optional=True),
    _Key("out_dir", "out_dir", "str", "report", optional=True),
)
# partial(op, bound)(value) is `bound op value`, so each operator is
# stored with its sides swapped: ">= 1" tests 1 <= value
_SWAPPED = {">=": le, ">": lt, "<=": ge, "<": gt}


def _compile(keys) -> dict[str, list]:
    """Each rule parsed once, as (field, test, key, text) per clause, under
    its owner: "" for ExperimentConfig, else the field that holds the value
    type (objective, strategy, adam or compute). text is the rule as
    messages and the README's key table state it."""
    rules: dict[str, list] = {}
    for k in filter(attrgetter("rule"), keys):
        if isinstance(k.rule, str):
            text = k.rule
            clauses = (c.split() for c in text.split(" and "))
            tests = [partial(_SWAPPED[op], int(n) if n.isdigit() else float(n))
                     for op, n in clauses]
        else:
            text = f"{', '.join(k.rule[:-1])} or {k.rule[-1]}"
            tests = [frozenset(k.rule).__contains__]
        owner, _, name = k.path.rpartition(".")
        rules.setdefault(owner, []).extend((name, test, k.key, text) for test in tests)
    return rules


_RULES = _compile(_KEYS)


def _check(obj, owner: str) -> None:
    """Raise ValueError naming the first of owner's keys whose value in obj
    breaks its rule. An unset optional value (None) passes."""
    for name, test, key, text in _RULES[owner]:
        value = getattr(obj, name)
        if value is not None and not test(value):
            raise ValueError(f"{key} must be {text}, got {value!r}")


# strategy.kind, then the parameters, in _KEYS order
_STRATEGY_KEYS = [k for k in _KEYS if k.path.startswith("strategy.")]


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
        _check(self, "objective")


@dataclass(frozen=True)
class Strategy:
    """Communication strategy, built by the constructor, e.g.
    Strategy("global_accum", global_count=4), or from its label by parse.

    _PARAMS is the one record of which parameters each kind takes:
    strategy.kind's rule, the constructor's checks, label and parse all
    read it. The constructor insists that parameters a kind does not take
    stay at 1, so equal strategies compare equal. A label is the kind
    followed by its parameters in table order, joined by "-", e.g.
    "sync_stale-7" or "combined-2-3" (local, then global). Check messages
    name each field by its config key (strategy.global for global_count).

    Degenerate parameter choices collapse onto each other by construction:
    local_accum-1, global_accum-1 and combined-1-1 all run exactly the
    async schedule, and sync_stale-1 runs exactly sync. They stay distinct
    values here (the trace records what was configured); the simulation
    engine sees only the normalized numbers.
    """

    kind: str
    local: int = 1
    global_count: int = 1
    pull_every: int = 1

    def __post_init__(self):
        _check(self, "strategy")
        for k in _STRATEGY_KEYS[1:]:
            name = k.path.partition(".")[2]
            if name not in _PARAMS[self.kind] and getattr(self, name) != 1:
                raise ValueError(f"strategy {self.kind!r} does not take {k.key}")

    @property
    def is_barrier(self) -> bool:
        return self.kind in ("sync", "sync_stale")

    def effective(self, n_workers: int) -> tuple[int, int, int]:
        """(L, G, U) as the engine runs them; barrier strategies aggregate
        all N workers per update."""
        if self.is_barrier:
            return 1, n_workers, self.pull_every
        return self.local, self.global_count, 1

    @property
    def label(self) -> str:
        params = (str(getattr(self, n)) for n in _PARAMS[self.kind])
        return "-".join([self.kind, *params])

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        """Inverse of .label, e.g. "async", "sync_stale-7", "combined-2-2"."""
        kind, *args = text.strip().split("-")
        try:
            nums = [int(a) for a in args]
        except ValueError:
            raise ValueError(f"bad strategy parameters in {text!r}") from None
        names = _PARAMS.get(kind)
        if names is None or len(nums) != len(names):
            raise ValueError(f"cannot parse strategy {text!r}")
        try:
            return cls(kind, **dict(zip(names, nums)))
        except ValueError as e:
            raise ValueError(f"invalid strategy {text!r}: {e}") from None


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters. epsilon=0 is allowed and makes the update
    exactly scale invariant."""

    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-8

    def __post_init__(self):
        _check(self, "adam")

    @cached_property
    def operands(self) -> tuple[np.ndarray, ...]:
        """(beta1, 1-beta1, beta2, 1-beta2, epsilon) as read-only 0-d
        float64 arrays, built at the first step and shared by every step
        on this config (see optim.adam_step). Not a field, so equality,
        hashing and the config echo see only the four hyperparameters."""
        b1, b2, eps = self.beta1, self.beta2, self.epsilon
        operands = tuple(np.array(x, np.float64) for x in (b1, 1.0 - b1, b2, 1.0 - b2, eps))
        for x in operands:
            x.setflags(write=False)
        return operands


@dataclass(frozen=True)
class ComputeTimeModel:
    """Distribution of per-batch compute durations, in seconds per cost unit,
    e.g. ComputeTimeModel("normal", 1.0, 0.2); core.sample_compute_time
    draws from it.

    kind="constant": always `mean`; it takes no std. kind="normal": normal(mean,
    std) truncated below at mean/10 by rejection so durations stay positive.
    Both values must be finite: at an infinite mean that rejection never ends.
    """

    kind: str
    mean: float
    std: float = 0.0

    def __post_init__(self):
        _check(self, "compute")
        for name in ("mean", "std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"compute.{name} must be finite, got {getattr(self, name)!r}")
        if self.kind == "constant" and self.std != 0:
            raise ValueError("compute 'constant' does not take compute.std")


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
        _check(self, "")
        if self.batch_cost_max > self.batch_budget:
            # a sample costlier than the budget fits in no batch
            raise ValueError(
                f"batch.cost_max ({self.batch_cost_max}) must not exceed "
                f"batch.budget ({self.batch_budget})"
            )
        # plain SGD refuses a rate of 0, which a tiny alpha or batch scale
        # can round to; the schedule is lowest at the first or last update
        if self.optimizer_kind == "sgd" and not min(map(self.lr, (1, self.budget_updates))):
            raise ValueError("the SGD learning rate rounds to 0 at the first or the last update")
        if not all(0 < f <= 1 for f in self.thresholds):
            raise ValueError("thresholds fractions must be in (0, 1]")
        if not all(map(math.isfinite, self.thresholds_absolute)):
            raise ValueError("thresholds.absolute values must be finite")

    @property
    def lr(self) -> partial:
        """The learning rate of update t >= 1 as lr(t), trace.csv's lr:
        the schedule (core.learning_rate) on the base rate, alpha, or with
        schedule.batch_scale > 0, alpha * scale * L * G, as one update
        aggregates L*G pushes' worth of samples."""
        local, global_count, _ = self.strategy.effective(self.workers)
        alpha, scale = self.adam.alpha, self.schedule_batch_scale
        base = alpha * scale * (local * global_count) if scale > 0 else alpha
        return partial(learning_rate, base, self.schedule_warmup, self.schedule_decay)


_TAGS = {k.key: k.tag for k in _KEYS}
_TAGS["strategy"] = "str"  # label form, e.g. "combined-2-2"; the one key outside _KEYS
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
        article = "an" if tag == "int" else "a"
        raise ConfigError(f"{key} expects {article} {tag} value, got {raw!r}", line) from None
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


def stage_key(cfg: ExperimentConfig, stage: str) -> tuple[str, ...]:
    """cfg's values of the keys in one stage, as serialize_config writes
    them: two configs with equal build keys build the same pieces bit for
    bit (0.0 and -0.0 differ here, though the configs compare equal)."""
    return tuple(_format(attrgetter(k.path)(cfg)) for k in _KEYS if k.stage == stage)


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
