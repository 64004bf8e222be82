"""Core plumbing: vectors, named RNG streams, the LR formula, compute times;
and the library input checks no run reaches."""

import importlib
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stalesim
from stalesim.cli import main
from stalesim.config import AdamConfig, ComputeTimeModel, ExperimentConfig, ObjectiveSpec
from stalesim.core import (
    RngStream,
    as_vec,
    learning_rate,
    sample_compute_time,
)
from stalesim.models import (
    Batch,
    LinearRegression,
    Mlp,
    Objective,
    Quadratic,
    make_cost_stream,
)
from stalesim.optim import sgd_step
from stalesim.simulator import TRACE_COLUMNS, RunTrace, run_simulation, staleness_summary


# ---------------------------------------------------------------------------
# vectors


class _Steps(Objective):
    """Under SGD at lr 1 from theta 0, update v adds steps[v - 1] to theta:
    the gradient is the next step's negation, whatever theta is."""

    def __init__(self, steps):
        self.steps = [np.asarray(s, dtype=float) for s in steps]
        self.dim = len(self.steps[0])
        self.calls = 0

    def loss(self, theta, batch):
        return 0.0

    def grad(self, theta, batch, rng=None):
        self.calls += 1
        return -self.steps[min(self.calls, len(self.steps)) - 1]


def _run_steps(steps, updates):
    # one worker, so push v makes update v and leaves a row at version v
    cfg = ExperimentConfig(
        objective=ObjectiveSpec(kind="quadratic", dim=1, samples=8),
        workers=1,
        optimizer_kind="sgd",
        adam=AdamConfig(alpha=1.0),
        schedule_decay="none",
        budget_updates=updates,
    )
    return run_simulation(cfg, objective=_Steps(steps))


def _finite(x) -> bool:
    """Whether the run's one divergence check passes parameters x: a run
    whose first update makes theta = x ends at its budget, or at that
    update with no row."""
    trace = _run_steps([x], 1)
    if not trace.diverged:
        assert trace.pushes == 1
        np.testing.assert_array_equal(trace.final_theta, x)
        return True
    assert trace.divergence_reason == "parameters went non-finite at update 1"
    assert trace.pushes == 0
    return False


def test_finiteness_detection():
    assert _finite(as_vec([0.0, 1e300]))
    assert not _finite(as_vec([0.0, math.nan]))
    assert not _finite(as_vec([math.inf]))


@pytest.mark.parametrize("n", [1, 2, 7, 20, 257])
def test_finiteness_check_is_exact(n):
    for bad in (math.inf, -math.inf, math.nan):
        for i in range(n):
            x = np.ones(n)
            x[i] = bad
            assert not _finite(x), (bad, i)
    # finite entries whose sum overflows (for n > 1)
    assert _finite(np.full(n, 1.7e308))
    assert _finite(np.resize([1.7e308, 1.7e308, -1.7e308], n))
    for tiny in (5e-324, -2.5e-310, 2.2250738585072e-308):  # denormals
        assert _finite(np.full(n, tiny))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_finiteness_check_finds_a_bad_version_mid_block(bad):
    # versions are checked 64 at a time: the bad one, 30, sits mid-block
    # among finite versions that hold a denormal and whose sums overflow,
    # and the run ends there with the rows of versions 1-29
    x = np.resize([5e306, 5e306, -5e306, 1e-310], 7)
    for i in range(7):
        steps = [x] * 29 + [np.where(np.arange(7) == i, bad, x)] + [x] * 40
        trace = _run_steps(steps, 100)
        assert trace.divergence_reason == "parameters went non-finite at update 30", (bad, i)
        assert trace.columns["update_idx"] == list(range(1, 30))
        clean = _run_steps([x], 29)
        assert trace.rows == clean.rows and not clean.diverged


def test_every_exported_name_resolves():
    modules = [stalesim] + [
        importlib.import_module(f"stalesim.{m.name}")
        for m in pkgutil.iter_modules(stalesim.__path__)
    ]
    assert stalesim.__all__
    for mod in modules:
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"{mod.__name__}.__all__ names missing: {missing}"


# ---------------------------------------------------------------------------
# library input checks that no run reaches


def _trace(*rows) -> RunTrace:
    columns = {c: [row[i] for row in rows] for i, c in enumerate(TRACE_COLUMNS)}
    return RunTrace(columns=columns, n_workers=1, strategy_label="async")


def _no_schema(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# workers=1\n" + ",".join(TRACE_COLUMNS) + "\n", encoding="utf-8")
    return RunTrace.from_csv(str(path))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda _: as_vec([[1.0]]), ValueError, "parameter vector must be 1-D, got shape (1, 1)"),
        (lambda _: Objective().grad(np.zeros(1), Batch.cost_only([1])), NotImplementedError, ""),
        (lambda _: Quadratic(np.ones((2, 3)), [0.0, 0.0]), ValueError,
         "A must be a square matrix"),
        (lambda _: Quadratic(np.eye(2), [0.0, 0.0], noise_sigma=-1.0), ValueError,
         "noise_sigma must be >= 0"),
        (lambda _: Quadratic(np.eye(2), [0.0, 0.0, 0.0]), ValueError,
         "theta_star dimension must match A"),
        (lambda _: LinearRegression(0), ValueError, "dim must be >= 1"),
        (lambda _: Mlp(2, 0, 3), ValueError, "need in_dim, hidden >= 1 and classes >= 2"),
        (lambda _: Mlp(2, 4, 1), ValueError, "need in_dim, hidden >= 1 and classes >= 2"),
        (lambda _: make_cost_stream(RngStream(0, 0), 4, cost_max=0), ValueError,
         "cost_max must be >= 1"),
        (lambda _: sgd_step(np.zeros(2), np.zeros(3), 0.1), ValueError,
         "dimension mismatch: (2,) vs (3,)"),
        (lambda _: _trace().final_loss, ValueError, "empty trace has no final loss"),
        (lambda _: _trace().best_loss, ValueError, "empty trace has no best loss"),
        (_no_schema, ValueError, "unsupported trace schema None"),
        (lambda _: staleness_summary(_trace((1, 1.0, 1, 0, 1.0, 0.1, "async", 0)), -1),
         ValueError, "warmup_pushes must be >= 0"),
    ],
    ids=[
        "as_vec-2d", "objective-grad", "quadratic-not-square", "quadratic-noise",
        "quadratic-theta-star", "linreg-dim", "mlp-hidden", "mlp-classes", "cost-max",
        "sgd-shapes", "final-loss-empty", "best-loss-empty", "csv-no-schema", "warmup",
    ],
)
def test_library_input_checks_raise_their_message(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert str(info.value) == message


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the README's `## Library` section documents the public API by example
    readme = _README.read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", library, re.S)
    exec(compile(block, "README.md", "exec"), {})
    mean, final_loss = map(float, capsys.readouterr().out.split())
    assert mean > 0 and math.isfinite(final_loss)


def test_importing_the_package_root_loads_only_the_run_layer():
    # a cold `import stalesim`, and the README library example's import,
    # load config, core, models, optim and simulator; the harness, the CLI
    # and the modules only they use stay unloaded, and so does numpy.random
    # until the first stream is made
    library = _README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    (imports,) = re.findall(r"^from stalesim import \(.*?\)$", library, re.S | re.M)
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\nimport stalesim\n" + imports + "\n"
        "print(*sorted(m for m in sys.modules if m.startswith('stalesim')"
        " or m in ('json', 'concurrent.futures', 'numpy.random')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "stalesim", "stalesim.config", "stalesim.core", "stalesim.models",
        "stalesim.optim", "stalesim.simulator",
    ]


def test_readme_cli_transcripts_match(tmp_path, monkeypatch, capsys):
    # the README's config block, saved as noisy.cfg, gives each of its
    # `$ stalesim ...` transcripts line for line
    blocks = re.findall(r"```\n(.*?)```", _README.read_text(encoding="utf-8"), re.S)
    (config,) = [b for b in blocks if "\nobjective.kind = " in b]
    transcripts = [b.splitlines() for b in blocks if b.startswith("$ stalesim ")]
    assert len(transcripts) == 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "noisy.cfg").write_text(config, encoding="utf-8")
    for command, *expected in transcripts:
        assert main(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command


# ---------------------------------------------------------------------------
# rng streams


def test_same_seed_and_stream_bitwise_identical():
    a = RngStream(123, stream=7).normal(size=1000)
    b = RngStream(123, stream=7).normal(size=1000)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, stream=0).normal(size=100)
    b = RngStream(123, stream=1).normal(size=100)
    assert not np.array_equal(a, b)


def test_stream_reference_draws_frozen():
    # First draws under (seed=0, stream=0), pinned so that any change to
    # the generator choice or keying shows up as a test failure.
    got = RngStream(0, stream=0).normal(size=3)
    expected = np.random.Generator(
        np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
    ).normal(size=3)
    np.testing.assert_array_equal(got, expected)


def test_stream_key_words_outside_64_bits_are_rejected():
    # each is one Philox key word; masking 2**64 to 0 would alias seed 0
    for seed, stream in ((2**64, 0), (-1, 0), (0, 2**64), (0, -1)):
        with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
            RngStream(seed, stream)
    RngStream(2**64 - 1, 2**64 - 1)


# ---------------------------------------------------------------------------
# lr schedule


def test_lr_peak_at_end_of_warmup():
    assert learning_rate(0.0003, 16000, "inverse-sqrt", 16000) == pytest.approx(
        0.0003, rel=1e-12
    )


def test_lr_inverse_sqrt_decay_value():
    # sqrt(16000/64000) = 1/2 exactly
    assert learning_rate(0.0003, 16000, "inverse-sqrt", 64000) == pytest.approx(
        0.00015, rel=1e-12
    )


def test_lr_linear_warmup_midpoint():
    assert learning_rate(0.0003, 16000, "inverse-sqrt", 8000) == pytest.approx(
        0.00015, rel=1e-12
    )


def test_lr_warmup_disabled_is_flat():
    for t in (1, 10, 100000):
        assert learning_rate(0.007, 0, "inverse-sqrt", t) == 0.007


def test_lr_decay_none_holds_base_after_warmup():
    assert learning_rate(0.01, 10, "none", 5) == pytest.approx(0.005)
    for t in (10, 11, 1000):
        assert learning_rate(0.01, 10, "none", t) == pytest.approx(0.01)


@given(t=st.integers(1, 10**7))
def test_lr_always_positive(t):
    assert learning_rate(0.0003, 16000, "inverse-sqrt", t) > 0


@given(base=st.floats(0.0, 1e308), warmup=st.integers(1, 10**6), t=st.integers(1, 10**7),
       decay=st.sampled_from(["inverse-sqrt", "none"]))
def test_lr_is_the_docstring_formula_bit_for_bit(base, warmup, t, decay):
    other = math.sqrt(warmup / t) if decay == "inverse-sqrt" else 1.0
    assert learning_rate(base, warmup, decay, t) == base * min(t / warmup, other)


def test_lr_monotone_up_then_down():
    w = 50
    ramp = [learning_rate(1.0, w, "inverse-sqrt", t) for t in range(1, w + 1)]
    assert all(a <= b for a, b in zip(ramp, ramp[1:]))
    tail = [learning_rate(1.0, w, "inverse-sqrt", t) for t in range(w, 5 * w)]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


# ---------------------------------------------------------------------------
# compute-time model


def test_constant_compute_time_is_exact():
    rng = RngStream(1, stream=10)
    m = ComputeTimeModel("constant", 1.0)
    assert sample_compute_time(rng, m) == 1.0
    # and it must not consume any randomness
    np.testing.assert_array_equal(
        rng.normal(size=4), RngStream(1, stream=10).normal(size=4)
    )


def test_normal_compute_time_is_generator_normal_bit_for_bit():
    # the draw is mean + std*z from one standard normal, which is what
    # Generator.normal(mean, std) computes, rejections included
    m = ComputeTimeModel("normal", 1.0, 0.6)
    rng, ref = RngStream(9, stream=10), RngStream(9, stream=10)
    for _ in range(5000):
        want = float(ref.normal(m.mean, m.std))
        while want <= m.mean / 10.0:
            want = float(ref.normal(m.mean, m.std))
        assert sample_compute_time(rng, m) == want


def test_zero_sigma_normal_is_constant():
    rng = RngStream(1, stream=10)
    assert sample_compute_time(rng, ComputeTimeModel("normal", 1.0, 0.0)) == 1.0


def test_normal_compute_times_positive_and_centered():
    rng = RngStream(42, stream=10)
    m = ComputeTimeModel("normal", 1.0, 0.2)
    draws = np.array([sample_compute_time(rng, m) for _ in range(100_000)])
    assert draws.min() > 0.0
    assert draws.min() > 1.0 / 10.0  # truncation floor: a tenth of the mean
    assert abs(draws.mean() - 1.0) < 0.01


def test_compute_time_model_validation():
    with pytest.raises(ValueError):
        ComputeTimeModel("constant", 0.0)
    with pytest.raises(ValueError):
        ComputeTimeModel("normal", 1.0, -0.1)
    with pytest.raises(ValueError):
        ComputeTimeModel("normal", -1.0, 0.1)
    with pytest.raises(ValueError, match="does not take compute.std"):
        ComputeTimeModel("constant", 1.0, 0.5)
    # the sampler's rejection loop never ends at an infinite mean, so a
    # non-finite value is refused at construction (and never sampled here)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="compute.mean"):
            ComputeTimeModel("normal", bad, 0.2)
        with pytest.raises(ValueError, match="compute.std"):
            ComputeTimeModel("normal", 1.0, bad)


@settings(max_examples=25)
@given(mu=st.floats(0.01, 100.0), sigma=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_compute_times_never_collapse_to_zero(mu, sigma, seed):
    rng = RngStream(seed, stream=10)
    m = ComputeTimeModel("normal", mu, sigma * mu)
    for _ in range(20):
        assert sample_compute_time(rng, m) > 0
