"""Objectives, gradient oracles, cost-budget batching, sample serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stalesim.core import RngStream, as_vec
from stalesim.models import (
    Batch,
    LinearRegression,
    Mlp,
    Quadratic,
    Sample,
    dump_samples,
    dynamic_batcher,
    finite_diff_grad,
    grad,
    load_samples,
    loss,
    make_blob_samples,
    make_cost_stream,
    make_linreg_samples,
)


def _unit_batch(n=1):
    return Batch(tuple(Sample((), 0.0, 1) for _ in range(n)))


def _rel_err(a, b):
    denom = max(np.linalg.norm(a), 1e-12)
    return np.linalg.norm(a - b) / denom


# ---------------------------------------------------------------------------
# sample / batch invariants


def test_sample_cost_must_be_positive():
    Sample((1.0,), 0.0, 1)
    with pytest.raises(ValueError):
        Sample((1.0,), 0.0, 0)


def test_batch_total_cost_and_nonempty():
    b = Batch((Sample((), 0.0, 3), Sample((), 0.0, 5)))
    assert b.total_cost == 8
    with pytest.raises(ValueError):
        Batch(())


def test_batch_arrays_are_built_once_and_read_only():
    b = Batch(tuple(Sample((float(i), 1.0), float(i), 1) for i in range(3)))
    x, y = b.feature_matrix(), b.target_vector()
    assert b.feature_matrix() is x and b.target_vector() is y
    np.testing.assert_array_equal(x, [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    np.testing.assert_array_equal(y, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        x[0, 0] = 5.0
    with pytest.raises(ValueError):
        y[0] = 5.0
    twin = Batch(b.samples)
    assert twin == b and hash(twin) == hash(b)  # the cache is not a field


# ---------------------------------------------------------------------------
# quadratic


def test_quadratic_zero_loss_at_minimizer():
    q = Quadratic.random(dim=6, seed=0)
    assert loss(q, q.theta_star.copy(), _unit_batch()) == pytest.approx(0.0, abs=1e-18)


def test_quadratic_identity_matrix_loss():
    q = Quadratic(np.eye(2), np.zeros(2))
    assert loss(q, as_vec([3.0, 4.0]), _unit_batch()) == pytest.approx(12.5)


def test_quadratic_identity_exact_gradient():
    q = Quadratic(np.eye(2), np.zeros(2))
    g = grad(q, as_vec([2.0, -2.0]), _unit_batch())
    np.testing.assert_allclose(g, [2.0, -2.0], rtol=1e-15)


def test_quadratic_requires_symmetric_positive_definite():
    with pytest.raises(ValueError):
        Quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))  # asymmetric
    with pytest.raises(ValueError):
        Quadratic(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))  # indefinite


def test_quadratic_random_geometry():
    q = Quadratic.random(dim=8, seed=4, cond=25.0)
    eigs = np.linalg.eigvalsh(q.a_matrix)
    assert eigs.min() > 0
    assert eigs.max() / eigs.min() == pytest.approx(25.0, rel=1e-8)
    np.testing.assert_allclose(q.a_matrix, q.a_matrix.T, atol=1e-12)
    # same seed, same geometry
    q2 = Quadratic.random(dim=8, seed=4, cond=25.0)
    np.testing.assert_array_equal(q.a_matrix, q2.a_matrix)
    np.testing.assert_array_equal(q.theta_star, q2.theta_star)


def test_quadratic_noise_scales_with_batch_cost():
    # Gradient noise has per-coordinate std sigma/sqrt(total batch cost).
    sigma = 2.0
    q = Quadratic(np.eye(3), np.zeros(3), noise_sigma=sigma)
    rng = RngStream(1, stream=10)
    theta = np.zeros(3)
    for cost in (1, 16):
        batch = _unit_batch(cost)
        draws = np.array([grad(q, theta, batch, rng) for _ in range(10_000)])
        want = sigma / np.sqrt(cost)
        assert abs(draws.std() - want) / want < 0.05


def test_noisy_gradient_requires_rng():
    q = Quadratic(np.eye(2), np.zeros(2), noise_sigma=1.0)
    with pytest.raises(ValueError):
        grad(q, np.zeros(2), _unit_batch())


# ---------------------------------------------------------------------------
# linear regression and mlp


def test_linreg_exact_fit_has_zero_loss():
    theta_true = as_vec([1.0, -2.0, 0.5])
    samples = make_linreg_samples(RngStream(0, stream=0), 12, theta_true)
    batch = Batch(tuple(samples))
    obj = LinearRegression(3)
    assert loss(obj, theta_true, batch) == pytest.approx(0.0, abs=1e-20)
    np.testing.assert_allclose(grad(obj, theta_true, batch), np.zeros(3), atol=1e-12)


def test_mlp_finite_forward_and_param_count():
    mlp = Mlp(in_dim=4, hidden=8, classes=3)
    assert mlp.dim == 8 * 4 + 8 + 3 * 8 + 3
    rng = RngStream(0, stream=3)
    theta = mlp.init_theta(rng)
    centers = RngStream(0, stream=2).normal(size=(3, 4))
    batch = Batch(tuple(make_blob_samples(RngStream(0, stream=0), 5, centers)))
    val = loss(mlp, theta, batch)
    assert np.isfinite(val) and val > 0
    assert np.all(np.isfinite(grad(mlp, theta, batch)))


def test_mlp_extreme_inputs_stay_finite():
    mlp = Mlp(in_dim=2, hidden=4, classes=2)
    theta = mlp.init_theta(RngStream(1, stream=3), scale=5.0)
    batch = Batch((Sample((1e3, -1e3), 0.0, 1), Sample((-1e3, 1e3), 1.0, 1)))
    assert np.isfinite(loss(mlp, theta, batch))
    assert np.all(np.isfinite(grad(mlp, theta, batch)))


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_matches_quadratic_gradient():
    q = Quadratic.random(dim=6, seed=3)
    theta = RngStream(8, stream=0).normal(size=6)
    b = _unit_batch()
    assert _rel_err(grad(q, theta, b), finite_diff_grad(q, theta, b, 1e-5)) < 1e-6


def test_finite_diff_matches_linreg_gradient():
    samples = make_linreg_samples(RngStream(2, stream=0), 8, as_vec([0.3, -1.1, 2.0]))
    batch = Batch(tuple(samples))
    obj = LinearRegression(3)
    theta = RngStream(5, stream=0).normal(size=3)
    assert (
        _rel_err(grad(obj, theta, batch), finite_diff_grad(obj, theta, batch, 1e-6))
        < 1e-6
    )


def test_finite_diff_matches_mlp_gradient():
    mlp = Mlp(in_dim=4, hidden=8, classes=3)
    theta = mlp.init_theta(RngStream(0, stream=3))
    centers = RngStream(0, stream=2).normal(size=(3, 4))
    batch = Batch(tuple(make_blob_samples(RngStream(0, stream=0), 4, centers)))
    assert (
        _rel_err(grad(mlp, theta, batch), finite_diff_grad(mlp, theta, batch, 1e-5))
        < 1e-4
    )


def test_finite_diff_zero_function_gives_zero_vector():
    # all-zero targets and features: the loss is identically zero
    obj = LinearRegression(2)
    batch = Batch((Sample((0.0, 0.0), 0.0, 1),))
    np.testing.assert_array_equal(
        finite_diff_grad(obj, as_vec([0.7, -0.3]), batch, 1e-5), np.zeros(2)
    )


def test_finite_diff_rejects_bad_step_and_noisy_objectives():
    q = Quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        finite_diff_grad(q, np.zeros(2), _unit_batch(), 0.0)
    noisy = Quadratic(np.eye(2), np.zeros(2), noise_sigma=1.0)
    with pytest.raises(ValueError):
        finite_diff_grad(noisy, np.zeros(2), _unit_batch(), 1e-5)


# ---------------------------------------------------------------------------
# dynamic batching


def test_batcher_greedy_fill_example():
    samples = [Sample((), 0.0, 3) for _ in range(3)]
    batches = dynamic_batcher(samples, budget=6)
    assert [len(b.samples) for b in batches] == [2, 1]
    assert [b.total_cost for b in batches] == [6, 3]


def test_batcher_unit_costs_fill_exactly():
    samples = [Sample((), 0.0, 1) for _ in range(23)]
    batches = dynamic_batcher(samples, budget=5)
    assert [len(b.samples) for b in batches] == [5, 5, 5, 5, 3]


def test_batcher_budget_scaling_quarters_batch_count():
    samples = [Sample((), 0.0, 2) for _ in range(200)]
    small = dynamic_batcher(samples, budget=10)
    large = dynamic_batcher(samples, budget=40)
    assert len(small) == 4 * len(large)


def test_batcher_rejects_oversized_sample():
    with pytest.raises(ValueError):
        dynamic_batcher([Sample((), 0.0, 11)], budget=10)


@settings(max_examples=60)
@given(
    costs=st.lists(st.integers(1, 9), min_size=1, max_size=40),
    budget=st.integers(9, 30),
)
def test_batcher_partition_properties(costs, budget):
    samples = [Sample((), 0.0, c) for c in costs]
    batches = dynamic_batcher(samples, budget)
    # order-preserving partition
    flat = [s for b in batches for s in b.samples]
    assert flat == samples
    for i, b in enumerate(batches):
        assert b.samples  # never empty
        assert b.total_cost <= budget
        # greedy maximality: the next sample would not have fit
        nxt = sum(len(x.samples) for x in batches[: i + 1])
        if nxt < len(samples):
            assert b.total_cost + samples[nxt].cost > budget


def test_cost_stream_bounds():
    rng = RngStream(0, stream=0)
    costs = make_cost_stream(rng, 500, cost_max=50)
    assert min(costs) >= 1 and max(costs) <= 50
    # degenerate max: every cost is 1 and no randomness is consumed
    rng2 = RngStream(0, stream=0)
    assert make_cost_stream(rng2, 10, cost_max=1) == [1] * 10
    np.testing.assert_array_equal(
        rng2.normal(size=3), RngStream(0, stream=0).normal(size=3)
    )


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_dump_load_round_trip(fmt, tmp_path):
    rng = RngStream(6, stream=0)
    samples = make_linreg_samples(rng, 17, as_vec([1.0, -0.5]), cost_max=9)
    path = str(tmp_path / f"samples.{fmt}")
    dump_samples(samples, path, fmt=fmt)
    back = load_samples(path, fmt=fmt)
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert a.cost == b.cost
        assert a.target == b.target
        np.testing.assert_array_equal(a.features, b.features)


def test_load_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        load_samples(str(tmp_path / "x"), fmt="json")
