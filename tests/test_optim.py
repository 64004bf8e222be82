"""Adam/SGD steps, bias correction, scale invariance, efficiency predictions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalesim.core import RngStream, as_vec
from stalesim.optim import (
    AdamConfig,
    AdamState,
    adam_direction,
    adam_step,
    predicted_efficiency,
    sgd_step,
)


def _run_adam_on_stream(grads, cfg):
    """Adam from zero state and parameters over a (steps, dim) stream;
    returns the final theta and the state after each step."""
    theta = np.zeros(grads.shape[1])
    state = AdamState.zeros(grads.shape[1])
    states = []
    for g in grads:
        state, theta = adam_step(state, cfg, theta, g, cfg.alpha)
        states.append(state)
    return theta, states


def _paper_cfg(**kw) -> AdamConfig:
    base = dict(alpha=0.001, beta1=0.9, beta2=0.98, epsilon=1e-8)
    base.update(kw)
    return AdamConfig(**base)


# ---------------------------------------------------------------------------
# single steps


def test_first_adam_step_bias_correction_exact():
    # At t=1 the bias correction cancels the decay factors exactly:
    # m_hat = g and v_hat = g^2, so the step is -alpha * g/(|g| + eps).
    cfg = _paper_cfg()
    g = as_vec([2.0, -0.5, 0.125])
    state, theta = adam_step(AdamState.zeros(3), cfg, np.zeros(3), g, cfg.alpha)
    np.testing.assert_allclose(state.m / (1 - 0.9), g, rtol=1e-15)
    np.testing.assert_allclose(state.v / (1 - 0.98), g * g, rtol=1e-15)
    expected = -cfg.alpha * g / (np.abs(g) + cfg.epsilon)
    np.testing.assert_allclose(theta, expected, rtol=1e-12)
    assert state.t == 1


def test_constant_stream_matches_worked_trajectory():
    # Unit gradients: m_hat = v_hat = 1 at every step, so theta walks down
    # by alpha each update: -0.001, -0.002, ..., -0.006.
    cfg = _paper_cfg()
    grads = np.ones((6, 1))
    theta = np.zeros(1)
    state = AdamState.zeros(1)
    thetas = []
    for g in grads:
        state, theta = adam_step(state, cfg, theta, g, cfg.alpha)
        thetas.append(theta[0])
    np.testing.assert_allclose(
        thetas, [-0.001, -0.002, -0.003, -0.004, -0.005, -0.006], atol=2e-6
    )
    assert round(state.m[0], 3) == 0.469
    assert round(state.v[0], 3) == 0.114


def test_alternating_half_three_halves_stream():
    # 0.5, 1.5, 0.5, ... : same mean as the unit stream but with spread;
    # the normalized step shrinks and theta only reaches about -0.005.
    cfg = _paper_cfg()
    grads = np.array([[0.5], [1.5], [0.5], [1.5], [0.5], [1.5]])
    theta, states = _run_adam_on_stream(grads, cfg)
    s2 = states[1]
    m_hat2 = s2.m[0] / (1 - 0.9**2)
    v_hat2 = s2.v[0] / (1 - 0.98**2)
    assert m_hat2 == pytest.approx(1.026, abs=5e-4)
    assert v_hat2 == pytest.approx(1.26, abs=5e-3)
    assert theta[0] == pytest.approx(-0.005, abs=5e-4)


def test_sign_flipping_stream_crosses_zero_at_step_six():
    # -1, 2, -1, 2, ...: the average gradient is +0.5 but it takes six
    # updates before theta first lands at or below zero.
    cfg = _paper_cfg()
    grads = np.array([[-1.0], [2.0], [-1.0], [2.0], [-1.0], [2.0]])
    theta = np.zeros(1)
    state = AdamState.zeros(1)
    signs = []
    for g in grads:
        state, theta = adam_step(state, cfg, theta, g, cfg.alpha)
        signs.append(theta[0])
    assert all(v >= 0 for v in signs[:5])
    assert signs[5] <= 0


def test_adam_step_lr_replaces_alpha():
    # the lr passed wins over cfg.alpha, which the step never reads
    cfg = _paper_cfg(alpha=123.0)
    g = as_vec([1.0])
    _, theta = adam_step(AdamState.zeros(1), cfg, np.zeros(1), g, 0.5)
    assert theta[0] == pytest.approx(-0.5, rel=1e-8)


def test_adam_step_dimension_and_finite_checks():
    cfg = _paper_cfg()
    with pytest.raises(ValueError):
        adam_step(AdamState.zeros(2), cfg, np.zeros(2), np.zeros(3), cfg.alpha)


def test_adam_state_invariants():
    s = AdamState.zeros(4)
    assert s.t == 0
    np.testing.assert_array_equal(s.m, np.zeros(4))
    np.testing.assert_array_equal(s.v, np.zeros(4))
    cfg = _paper_cfg()
    rng = RngStream(3, stream=0)
    theta = np.zeros(4)
    for _ in range(50):
        s, theta = adam_step(s, cfg, theta, rng.normal(size=4), cfg.alpha)
        assert np.all(s.v >= 0)
    assert s.t == 50


def test_adam_config_validation():
    for bad in (
        dict(alpha=0.0),
        dict(beta1=1.0),
        dict(beta1=-0.1),
        dict(beta2=1.0),
        dict(epsilon=-1e-9),
    ):
        with pytest.raises(ValueError):
            _paper_cfg(**bad)


def test_sgd_step_cases():
    np.testing.assert_array_equal(sgd_step(as_vec([1.0]), as_vec([1.0]), 0.5), [0.5])
    v = as_vec([3.0, -2.0])
    np.testing.assert_array_equal(sgd_step(v, np.zeros(2), 0.1), v)
    np.testing.assert_array_equal(
        sgd_step(np.zeros(2), as_vec([1.0, -1.0]), 1.0), [-1.0, 1.0]
    )
    with pytest.raises(ValueError):
        sgd_step(np.zeros(2), np.zeros(2), 0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), steps=st.integers(1, 5))
def test_steps_leave_their_inputs_bit_identical(seed, steps):
    # workers share the server's theta without a copy, so neither step may
    # write into the theta (or Adam state) it is given
    draws = RngStream(seed, stream=0).normal(size=(steps + 1, 7))
    theta, grads = draws[0], draws[1:]
    state = AdamState.zeros(7)
    for g in grads:
        before = (theta.tobytes(), state.m.tobytes(), state.v.tobytes(), g.tobytes())
        new_state, new_theta = adam_step(state, _paper_cfg(), theta, g, 0.01)
        sgd_step(theta, g, 0.01)
        assert (theta.tobytes(), state.m.tobytes(), state.v.tobytes(), g.tobytes()) == before
        assert new_theta is not theta and new_state.m is not state.m
        state, theta = new_state, new_theta


def _reference_adam(state, cfg, theta, g, lr):
    """One Adam step with Python-float operands, in adam_step's order of
    operations: (m, v, theta, unit-rate direction)."""
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    direction = m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return m, v, theta - lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon), direction


@st.composite
def _adam_streams(draw):
    # a long stream runs past the t where 1 - beta**t rounds to 1.0
    # (t = 54 for beta = 0.5), so the step's skipped division is covered
    long = draw(st.booleans())
    beta = st.floats(0.0, 0.5) if long else st.floats(0.0, 1.0, exclude_max=True)
    cfg = AdamConfig(
        alpha=1.0,
        beta1=draw(beta),
        beta2=draw(beta),
        epsilon=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
    )
    steps = draw(st.integers(60, 80) if long else st.integers(1, 20))
    dim = draw(st.integers(1, 8))
    scale = draw(st.floats(1e-3, 1e3))
    grads = RngStream(draw(st.integers(0, 2**16)), stream=0).normal(0.0, scale, (steps, dim))
    if long:
        assert 1.0 - max(cfg.beta1, cfg.beta2) ** steps == 1.0
    return cfg, grads, draw(st.floats(1e-6, 10.0))


@settings(max_examples=60, deadline=None)
@given(case=_adam_streams())
def test_steps_match_a_python_float_reference_bit_for_bit(case):
    # the steps apply 0-d array operands and skip a division by exactly
    # 1.0; neither may change a bit of m, v, theta or the direction
    cfg, grads, lr = case
    state, theta = AdamState.zeros(grads.shape[1]), np.zeros(grads.shape[1])
    for g in grads:
        m, v, expected, direction = _reference_adam(state, cfg, theta, g, lr)
        state, theta_new = adam_step(state, cfg, theta, g, lr)
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        assert theta_new.tobytes() == expected.tobytes()
        assert adam_direction(state, cfg).tobytes() == direction.tobytes()
        assert sgd_step(theta, g, lr).tobytes() == (theta - lr * g).tobytes()
        theta = theta_new


def test_adam_operands_are_not_config_fields():
    # built once per config and cached, outside equality, hashing and repr
    a, b = _paper_cfg(), _paper_cfg()
    assert a.operands is a.operands
    assert all(x.shape == () and x.dtype == np.float64 and not x.flags.writeable
               for x in a.operands)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


# ---------------------------------------------------------------------------
# scale invariance


@settings(max_examples=20, deadline=None)
@given(
    c=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**16),
)
def test_adam_scale_invariance_property(c, seed):
    # With epsilon = 0, scaling the whole gradient stream by c > 0 leaves
    # the parameter trajectory unchanged.
    cfg = _paper_cfg(epsilon=0.0)
    grads = RngStream(seed, stream=0).normal(1.0, 0.5, size=(40, 3))
    theta_base, _ = _run_adam_on_stream(grads, cfg)
    theta_scaled, _ = _run_adam_on_stream(c * grads, cfg)
    np.testing.assert_allclose(theta_scaled, theta_base, rtol=1e-9, atol=1e-12)


def test_epsilon_breaks_scale_invariance_slightly():
    # Sanity check that the invariance above is a property of epsilon = 0,
    # not an artifact of the implementation ignoring scale.
    cfg = _paper_cfg(epsilon=1e-2)
    grads = RngStream(7, stream=0).normal(1.0, 0.5, size=(40, 3))
    a, _ = _run_adam_on_stream(grads, cfg)
    b, _ = _run_adam_on_stream(1e-3 * grads, cfg)
    assert np.max(np.abs(a - b)) > 1e-6


# ---------------------------------------------------------------------------
# efficiency prediction


def test_predicted_efficiency_noiseless_is_one():
    assert predicted_efficiency(mean=3.0, variance=0.0, count=1) == 1.0


def test_predicted_efficiency_reference_values():
    # mean 0.5, Var 2.25 -> 1/sqrt(2.25/0.25 + 1) = 1/sqrt(10)
    e = predicted_efficiency(mean=0.5, variance=2.25, count=1)
    assert e == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-12)
    # summing 4 unit-variance samples: 1/sqrt(1/4 + 1)
    e4 = predicted_efficiency(mean=1.0, variance=1.0, count=4)
    assert e4 == pytest.approx(1.0 / math.sqrt(1.25), rel=1e-12)
    assert e4 == pytest.approx(0.894, abs=5e-4)


def test_predicted_efficiency_rejects_zero_mean():
    with pytest.raises(ValueError):
        predicted_efficiency(mean=0.0, variance=1.0, count=1)


def test_predicted_efficiency_rejects_bad_variance_and_count():
    with pytest.raises(ValueError, match="variance"):
        predicted_efficiency(mean=1.0, variance=-0.1, count=1)
    with pytest.raises(ValueError, match="count"):
        predicted_efficiency(mean=1.0, variance=1.0, count=0)


@given(
    mean=st.floats(0.1, 10.0),
    var=st.floats(0.0, 100.0),
    count=st.integers(1, 64),
)
def test_summing_samples_never_hurts_efficiency(mean, var, count):
    base = predicted_efficiency(mean, var, 1)
    summed = predicted_efficiency(mean, var, count)
    assert summed >= base - 1e-15
    assert 0 < summed <= 1.0


def test_adam_direction_requires_a_completed_step():
    cfg = _paper_cfg()
    with pytest.raises(ValueError):
        adam_direction(AdamState.zeros(2), cfg)
    state, _ = adam_step(AdamState.zeros(2), cfg, np.zeros(2), as_vec([1.0, 1.0]), cfg.alpha)
    np.testing.assert_allclose(adam_direction(state, cfg), [1.0, 1.0], rtol=1e-7)


def test_run_adam_on_stream_vector_matches_scalar_columns():
    cfg = _paper_cfg()
    grads = RngStream(9, stream=0).normal(size=(30, 3))
    theta_vec, _ = _run_adam_on_stream(grads, cfg)
    for j in range(3):
        # elementwise updates: each coordinate evolves independently, so a
        # single-column run must reproduce that column bit for bit
        theta_j, _ = _run_adam_on_stream(grads[:, j : j + 1], cfg)
        assert theta_j[0] == theta_vec[j]
