"""Config document parsing, validation, and round-tripping."""

import math
import re
from pathlib import Path

import pytest

from stalesim import config
from stalesim.config import (
    ConfigError,
    ExperimentConfig,
    ObjectiveSpec,
    parse_config,
    serialize_config,
    stage_key,
)
from stalesim.models import Quadratic
from stalesim.simulator import Strategy, build_experiment

MINIMAL = """
objective.kind = quadratic
workers = 4
strategy.kind = async
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.workers == 4
    assert cfg.strategy == Strategy("async")
    assert cfg.objective.kind == "quadratic"
    assert cfg.objective.dim == 20  # default
    assert cfg.adam.beta1 == 0.9 and cfg.adam.beta2 == 0.98
    assert cfg.budget_updates >= 1


def test_round_trip_equality():
    cfg = parse_config(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_nondefault_fields():
    text = """
objective.kind = mlp
objective.samples = 40
objective.hidden = 6
workers = 3
strategy.kind = combined
strategy.local = 2
strategy.global = 2
optimizer.kind = adam
optimizer.alpha = 0.01
schedule.warmup = 100
schedule.decay = none
compute.kind = normal
compute.mean = 2.0
compute.std = 0.4
comm.latency = 0.25
combine = sum
batch.budget = 12
budget.updates = 77
seed = 9
thresholds = 0.5, 0.25
thresholds.target = 0.1
"""
    cfg = parse_config(text)
    assert cfg.strategy == Strategy("combined", local=2, global_count=2)
    assert cfg.compute.kind == "normal" and cfg.compute.std == 0.4
    assert cfg.thresholds == (0.5, 0.25)
    assert cfg.thresholds_target == 0.1
    assert parse_config(serialize_config(cfg)) == cfg


def test_strategy_label_shorthand():
    cfg = parse_config("strategy = combined-2-2\n")
    assert cfg.strategy == Strategy("combined", local=2, global_count=2)


def test_strategy_label_conflicts_with_component_keys():
    with pytest.raises(ConfigError, match="strategy"):
        parse_config("strategy = async\nstrategy.kind = sync\n")


def test_unknown_key_reports_line_number():
    text = "workers = 4\nworker.count = 4\n"
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert e.value.line == 2
    assert "worker.count" in str(e.value)


def test_duplicate_key_rejected_with_line():
    text = "workers = 4\n# a comment\nworkers = 8\n"
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert e.value.line == 3


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError) as e:
        parse_config("workers = 4\nnonsense line\n")
    assert e.value.line == 2


def test_type_errors_report_line():
    for text, line in [
        ("workers = four\n", 1),
        ("workers = 4\nstrategy = warp-9\n", 2),
    ]:
        with pytest.raises(ConfigError) as e:
            parse_config(text)
        assert e.value.line == line


def test_zero_global_count_names_the_constraint():
    text = "strategy.kind = global_accum\nstrategy.global = 0\n"
    with pytest.raises(ConfigError, match=">= 1"):
        parse_config(text)


def test_update_budget_must_be_positive():
    with pytest.raises(ConfigError, match=">= 1"):
        parse_config("budget.updates = 0\n")


def test_irrelevant_strategy_parameter_rejected():
    text = "strategy.kind = async\nstrategy.local = 2\n"
    with pytest.raises(ConfigError, match="does not take"):
        parse_config(text)


@pytest.mark.parametrize(
    "line",
    ["schedule.warmup = -1", "schedule.decay = exponential", "schedule.batch_scale = -0.5"],
)
def test_bad_schedule_values_rejected(line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=key):
        parse_config(line + "\n")


def test_overrides_replace_document_values():
    cfg = parse_config(MINIMAL, overrides={"seed": "7", "workers": "2"})
    assert cfg.seed == 7 and cfg.workers == 2


def test_component_override_refines_a_label_form_strategy():
    cfg = parse_config("strategy = global_accum-4\n", {"strategy.global": "2"})
    assert cfg.strategy == Strategy("global_accum", global_count=2)
    cfg = parse_config("strategy = combined-2-3\n", {"strategy.local": "5"})
    assert cfg.strategy == Strategy("combined", local=5, global_count=3)
    with pytest.raises(ConfigError, match="strategy"):
        parse_config("strategy = global_accum-x\n", {"strategy.global": "2"})


def test_strategy_override_supersedes_component_form():
    text = "strategy.kind = global_accum\nstrategy.global = 4\n"
    cfg = parse_config(text, overrides={"strategy": "async"})
    assert cfg.strategy == Strategy("async")
    cfg2 = parse_config("strategy = async\n",
                        overrides={"strategy": "sync_stale-5"})
    assert cfg2.strategy == Strategy("sync_stale", pull_every=5)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\nworkers = 2\n   # indented comment\n")
    assert cfg.workers == 2


def test_experiment_config_kwargs():
    cfg = ExperimentConfig(workers=8, combine="sum")
    assert cfg.workers == 8 and cfg.combine == "sum"
    with pytest.raises(ValueError):
        ExperimentConfig(combine="median")


def test_serialize_emits_parseable_flat_document():
    text = serialize_config(ExperimentConfig())
    for line in text.strip().splitlines():
        assert line.startswith("#") or " = " in line
    # idempotent: serializing the reparse gives the same bytes
    assert serialize_config(parse_config(text)) == text


# Every key at a non-default value, the optional ones included. Strategy
# kinds fix the parameters they do not take at 1, so strategy.pull_every is
# set at its default here and at 3 by the label-form document below.
EVERY_KEY = """
objective.kind = mlp
objective.dim = 7
objective.cond = 3.5
objective.noise_sigma = 0.25
objective.theta_star_scale = 2.0
objective.samples = 40
objective.target_noise = 0.1
objective.in_dim = 5
objective.hidden = 6
objective.classes = 4
objective.spread = 0.75
workers = 3
strategy.kind = combined
strategy.local = 2
strategy.global = 3
strategy.pull_every = 1
optimizer.kind = sgd
optimizer.alpha = 0.02
optimizer.beta1 = 0.8
optimizer.beta2 = 0.99
optimizer.epsilon = 1e-6
schedule.warmup = 100
schedule.decay = none
schedule.batch_scale = 0.5
compute.kind = normal
compute.mean = 2.0
compute.std = 0.4
comm.latency = 0.25
combine = sum
batch.budget = 12
batch.cost_max = 3
budget.updates = 77
budget.sim_time = 50
seed = 9
probe.seed = 123
probe.samples = 32
parallel = yes
parallel.time_scale = 0.5
stats.warmup_pushes = 5
thresholds =
thresholds.absolute = 1.5, 0.25
thresholds.target = 0.1
out_dir = results/every-key
"""

# serialize_config(parse_config(EVERY_KEY)), byte for byte; note the
# trailing space of the empty threshold list and the optional keys last
EVERY_KEY_SERIALIZED = (
    "objective.kind = mlp\n"
    "objective.dim = 7\n"
    "objective.cond = 3.5\n"
    "objective.noise_sigma = 0.25\n"
    "objective.theta_star_scale = 2.0\n"
    "objective.samples = 40\n"
    "objective.target_noise = 0.1\n"
    "objective.in_dim = 5\n"
    "objective.hidden = 6\n"
    "objective.classes = 4\n"
    "objective.spread = 0.75\n"
    "workers = 3\n"
    "strategy.kind = combined\n"
    "strategy.local = 2\n"
    "strategy.global = 3\n"
    "strategy.pull_every = 1\n"
    "optimizer.kind = sgd\n"
    "optimizer.alpha = 0.02\n"
    "optimizer.beta1 = 0.8\n"
    "optimizer.beta2 = 0.99\n"
    "optimizer.epsilon = 1e-06\n"
    "schedule.warmup = 100\n"
    "schedule.decay = none\n"
    "schedule.batch_scale = 0.5\n"
    "compute.kind = normal\n"
    "compute.mean = 2.0\n"
    "compute.std = 0.4\n"
    "comm.latency = 0.25\n"
    "combine = sum\n"
    "batch.budget = 12\n"
    "batch.cost_max = 3\n"
    "budget.updates = 77\n"
    "budget.sim_time = 50.0\n"
    "seed = 9\n"
    "probe.seed = 123\n"
    "probe.samples = 32\n"
    "parallel = true\n"
    "parallel.time_scale = 0.5\n"
    "thresholds = \n"
    "thresholds.target = 0.1\n"
    "stats.warmup_pushes = 5\n"
    "thresholds.absolute = 1.5,0.25\n"
    "out_dir = results/every-key\n"
)

_COMBINED_LINES = "strategy.kind = combined\nstrategy.local = 2\nstrategy.global = 3\n"


def test_every_key_serialization_is_pinned_and_round_trips():
    cfg = parse_config(EVERY_KEY)
    text = serialize_config(cfg)
    assert text == EVERY_KEY_SERIALIZED
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


def test_label_form_serialization_is_pinned_and_round_trips():
    doc = EVERY_KEY.replace(_COMBINED_LINES, "").replace(
        "strategy.pull_every = 1\n", "strategy = sync_stale-3\n"
    )
    cfg = parse_config(doc)
    assert cfg.strategy == Strategy("sync_stale", pull_every=3)
    expected = EVERY_KEY_SERIALIZED.replace(
        _COMBINED_LINES,
        "strategy.kind = sync_stale\nstrategy.local = 1\nstrategy.global = 1\n",
    ).replace("strategy.pull_every = 1\n", "strategy.pull_every = 3\n")
    assert serialize_config(cfg) == expected
    assert parse_config(expected) == cfg


def test_every_table_key_is_in_the_every_key_document():
    document_keys = [
        line.partition("=")[0].strip() for line in EVERY_KEY.strip().splitlines()
    ]
    assert sorted(document_keys) == sorted(k.key for k in config._KEYS)


_FLOAT_KEYS = [k.key for k in config._KEYS if k.tag in ("float", "float_list")]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_numbers_rejected_with_key_and_line(key, bad):
    raw = bad if config._TAGS[key] == "float" else f"0.5, {bad}"
    with pytest.raises(ConfigError, match="finite") as e:
        parse_config(f"workers = 2\n{key} = {raw}\n")
    assert e.value.line == 2
    assert key in str(e.value)
    with pytest.raises(ConfigError, match="finite"):
        parse_config("workers = 2\n", overrides={key: raw})


def test_experiment_config_rejects_a_non_finite_absolute_threshold():
    # parse_config rejects these first, so only direct construction
    # reaches the config's own check
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="thresholds.absolute values must be finite"):
            ExperimentConfig(thresholds_absolute=(1.0, bad))


# the text each rule is stated by, in messages and in the README key table
_RULE_TEXT = {key: text for rules in config._RULES.values() for _, _, key, text in rules}


def _assert_rule_edges(key, tag, rule):
    """parse_config accepts each allowed word and each inclusive bound, and
    rejects another word, an exclusive bound and one step past each bound
    (1 for ints, the next float for floats) with a ConfigError naming key."""
    if isinstance(rule, tuple):
        accepted, rejected = list(rule), [rule[0] + "x"]
    else:
        accepted, rejected = [], []
        for op, num in (c.split() for c in rule.split(" and ")):
            bound = int(num) if tag == "int" else float(num)
            out = -1 if op[0] == ">" else 1  # the side of the bound that is rejected
            past, inside = ((bound + out, bound - out) if tag == "int" else
                            (math.nextafter(bound, out * math.inf),
                             math.nextafter(bound, -out * math.inf)))
            accepted.append(bound if op.endswith("=") else inside)
            rejected.append(past if op.endswith("=") else bound)
    for value in accepted:
        parse_config(f"{key} = {value}\n")
    for value in rejected:
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(f"{key} = {value}\n")


@pytest.mark.parametrize("k", [k for k in config._KEYS if k.rule], ids=lambda k: k.key)
def test_each_rule_accepts_its_edges_and_rejects_one_step_past(k):
    _assert_rule_edges(k.key, k.tag, k.rule)


def test_quadratic_at_the_cond_ceiling_is_positive_definite():
    # up to the ceiling, rounding leaves Quadratic.random's matrix positive
    # definite, which its constructor checks; at 1e17 many builds fail
    ceiling = float(_RULE_TEXT["objective.cond"].rpartition("<= ")[2])
    for dim in (1, 2, 3, 5, 8, 20, 50):
        for seed in range(5):
            Quadratic.random(dim, seed, ceiling)


@pytest.mark.parametrize("kind", ["quadratic", "linreg", "mlp"])
def test_build_experiment_reads_only_build_stage_keys(kind):
    # sweep shares one build between points with equal build keys, so a
    # field that build_experiment reads must hold build keys alone
    cfg = ExperimentConfig(objective=ObjectiveSpec(kind=kind))
    other = {k.path.partition(".")[0] for k in config._KEYS if k.stage != "build"}
    read = set()

    class Recording:
        def __getattr__(self, name):
            read.add(name)
            return getattr(cfg, name)

    build_experiment(Recording())
    assert read and not read & other
    # the key holds each value as written, so values that compare equal
    # but are written apart, as 0.0 and -0.0, never share a build
    signed = ExperimentConfig(objective=ObjectiveSpec(kind=kind, noise_sigma=-0.0))
    assert signed == cfg and stage_key(signed, "build") != stage_key(cfg, "build")


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_key_table_matches_the_key_table():
    # each row: key, type, default, allowed values, stage. Rows of keys
    # that Strategy, AdamConfig or ComputeTimeModel check state their rule
    # in the same grammar, and it is held to the same edges
    rows = re.findall(r"^\| `(\S+)` \| (\S+) \| (.+?) \| (.+?) \| (\S+) \|$",
                      _README.read_text(encoding="utf-8"), re.M)
    assert [r[0] for r in rows] == [k.key for k in config._KEYS]
    lines = serialize_config(ExperimentConfig()).splitlines()
    defaults = dict(line.split(" = ", 1) for line in lines)
    for k, (key, tag, default, allowed, stage) in zip(config._KEYS, rows):
        assert (tag, stage) == (k.tag, k.stage), key
        assert default == (f"`{defaults[key]}`" if key in defaults else "unset"), key
        if k.rule:
            assert allowed == f"`{_RULE_TEXT[key]}`", key
        elif k.path.partition(".")[0] in ("strategy", "adam", "compute"):
            text = allowed.strip("`")
            rule = text if text[0] in "<>" else tuple(re.split(r", | or ", text))
            _assert_rule_edges(key, k.tag, rule)
