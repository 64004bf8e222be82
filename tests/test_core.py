"""Core plumbing: vectors, named RNG streams, the LR formula, compute times."""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stalesim
from stalesim.core import (
    ComputeTimeModel,
    RngStream,
    all_finite,
    as_vec,
    learning_rate,
    sample_compute_time,
)


# ---------------------------------------------------------------------------
# vectors


def _finite(x) -> bool:
    # 0*inf raises numpy's invalid flag; the engine runs under this errstate
    with np.errstate(invalid="ignore"):
        return all_finite(x, np.zeros_like(x))


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


@settings(max_examples=25)
@given(mu=st.floats(0.01, 100.0), sigma=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_compute_times_never_collapse_to_zero(mu, sigma, seed):
    rng = RngStream(seed, stream=10)
    m = ComputeTimeModel("normal", mu, sigma * mu)
    for _ in range(20):
        assert sample_compute_time(rng, m) > 0
