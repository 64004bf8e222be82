"""Array-backed batches, objectives, gradient oracles, cost-budget batching."""

import inspect
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stalesim.core import RngStream, as_vec
from stalesim.models import (
    Batch,
    LinearRegression,
    Mlp,
    Objective,
    Quadratic,
    dynamic_batcher,
    finite_diff_grad,
    make_blob_samples,
    make_cost_stream,
    make_linreg_samples,
)


def _unit_batch(n=1):
    return Batch.cost_only([1] * n)


def _rel_err(a, b):
    denom = max(np.linalg.norm(a), 1e-12)
    return np.linalg.norm(a - b) / denom


# ---------------------------------------------------------------------------
# batch invariants


def test_sample_cost_must_be_positive():
    Batch([[1.0]], [0.0], [1])
    with pytest.raises(ValueError):
        Batch([[1.0]], [0.0], [0])
    with pytest.raises(ValueError):
        Batch([[1.0], [2.0]], [0.0, 0.0], [3, -1])


def test_batch_total_cost_and_nonempty():
    b = Batch.cost_only([3, 5])
    assert b.total_cost == 8 and isinstance(b.total_cost, int)
    with pytest.raises(ValueError):
        Batch(np.empty((0, 2)), [], [])
    with pytest.raises(ValueError):
        Batch.cost_only([])


def test_batch_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        Batch([1.0, 2.0], [0.0, 0.0], [1, 1])  # features not (n, d)
    with pytest.raises(ValueError):
        Batch([[1.0], [2.0]], [0.0], [1, 1])
    with pytest.raises(ValueError):
        Batch([[1.0], [2.0]], [0.0, 0.0], [1])


def test_batch_arrays_are_built_once_and_read_only():
    features = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    b = Batch(features, [0.0, 1.0, 2.0], [1, 1, 1])
    x, y = b.features, b.targets
    assert x.dtype == y.dtype == np.float64 and b.costs.dtype == np.int64
    np.testing.assert_array_equal(x, [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    np.testing.assert_array_equal(y, [0.0, 1.0, 2.0])
    for arr in (x, y, b.costs):
        with pytest.raises(ValueError):
            arr[0] = 5
    features[0, 0] = 7.0  # the caller's own array stays writeable
    assert x[0, 0] == 7.0  # and is not copied


# ---------------------------------------------------------------------------
# quadratic


def test_quadratic_zero_loss_at_minimizer():
    q = Quadratic.random(dim=6, seed=0)
    assert q.loss(q.theta_star.copy(), _unit_batch()) == pytest.approx(0.0, abs=1e-18)


def test_quadratic_identity_matrix_loss():
    q = Quadratic(np.eye(2), np.zeros(2))
    assert q.loss(as_vec([3.0, 4.0]), _unit_batch()) == pytest.approx(12.5)


def test_quadratic_identity_exact_gradient():
    q = Quadratic(np.eye(2), np.zeros(2))
    g = q.grad(as_vec([2.0, -2.0]), _unit_batch())
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


def test_batch_total_cost_is_the_exact_sum_past_int64():
    assert Batch.cost_only([2**62, 2**62, 1]).total_cost == 2**63 + 1


def test_quadratic_random_overflows_a_huge_theta_star_scale_without_a_warning():
    # the largest float times a draw above 1 is inf, which the run's first
    # probe reports as divergence; a warning would be a stderr line more
    q = Quadratic.random(dim=8, seed=0, theta_star_scale=1.7976931348623157e308)
    assert np.isinf(q.theta_star).any()


def test_quadratic_noise_scales_with_batch_cost():
    # Gradient noise has per-coordinate std sigma/sqrt(total batch cost).
    sigma = 2.0
    q = Quadratic(np.eye(3), np.zeros(3), noise_sigma=sigma)
    rng = RngStream(1, stream=10)
    theta = np.zeros(3)
    for cost in (1, 16):
        batch = _unit_batch(cost)
        draws = np.array([q.grad(theta, batch, rng) for _ in range(10_000)])
        want = sigma / np.sqrt(cost)
        assert abs(draws.std() - want) / want < 0.05


def test_noisy_gradient_requires_rng():
    q = Quadratic(np.eye(2), np.zeros(2), noise_sigma=1.0)
    with pytest.raises(ValueError):
        q.grad(np.zeros(2), _unit_batch())


# ---------------------------------------------------------------------------
# linear regression and mlp


def test_linreg_exact_fit_has_zero_loss():
    theta_true = as_vec([1.0, -2.0, 0.5])
    batch = make_linreg_samples(RngStream(0, stream=0), 12, theta_true)
    obj = LinearRegression(3)
    assert obj.loss(theta_true, batch) == pytest.approx(0.0, abs=1e-20)
    np.testing.assert_allclose(obj.grad(theta_true, batch), np.zeros(3), atol=1e-12)


def test_mlp_finite_forward_and_param_count():
    mlp = Mlp(in_dim=4, hidden=8, classes=3)
    assert mlp.dim == 8 * 4 + 8 + 3 * 8 + 3
    rng = RngStream(0, stream=3)
    theta = mlp.init_theta(rng)
    centers = RngStream(0, stream=2).normal(size=(3, 4))
    batch = make_blob_samples(RngStream(0, stream=0), 5, centers)
    val = mlp.loss(theta, batch)
    assert np.isfinite(val) and val > 0
    assert np.all(np.isfinite(mlp.grad(theta, batch)))


def test_mlp_extreme_inputs_stay_finite():
    mlp = Mlp(in_dim=2, hidden=4, classes=2)
    theta = mlp.init_theta(RngStream(1, stream=3), scale=5.0)
    batch = Batch([[1e3, -1e3], [-1e3, 1e3]], [0.0, 1.0], [1, 1])
    assert np.isfinite(mlp.loss(theta, batch))
    assert np.all(np.isfinite(mlp.grad(theta, batch)))


def _gradient_cases():
    centers = RngStream(0, stream=2).normal(size=(3, 4))
    blobs = make_blob_samples(RngStream(0, stream=0), 4, centers)
    linreg = make_linreg_samples(RngStream(2, stream=0), 8, as_vec([0.3, -1.1, 2.0]))
    mlp = Mlp(in_dim=4, hidden=8, classes=3)
    return [
        (Quadratic.random(dim=5, seed=3), np.ones(5), _unit_batch()),
        (Quadratic.random(dim=5, seed=3, noise_sigma=1.0), np.ones(5), _unit_batch()),
        (LinearRegression(3), np.ones(3), linreg),
        (mlp, mlp.init_theta(RngStream(0, stream=3)), blobs),
    ]


@pytest.mark.parametrize("case", range(4), ids=["quadratic", "noisy", "linreg", "mlp"])
def test_gradient_shares_no_memory_with_its_inputs_or_an_earlier_return(case):
    # the engine keeps each returned gradient as a value and sums by
    # rebinding, so a gradient must be an array of its own
    obj, theta, batch = _gradient_cases()[case]
    rng = RngStream(1, stream=0)
    first = obj.grad(theta, batch, rng)
    g = obj.grad(theta, batch, rng)
    for other in (theta, batch.features, batch.targets, batch.costs, first):
        assert not np.shares_memory(g, other)


@pytest.mark.parametrize("case", range(4), ids=["quadratic", "noisy", "linreg", "mlp"])
def test_wrong_dimension_theta_is_rejected_by_loss_and_grad(case):
    obj, theta, batch = _gradient_cases()[case]
    for bad in (theta[:-1], np.append(theta, 0.0), np.stack([theta, theta])):
        with pytest.raises(ValueError, match=f"objective expects {obj.dim}"):
            obj.loss(bad, batch)
        with pytest.raises(ValueError, match=f"objective expects {obj.dim}"):
            obj.grad(bad, batch, RngStream(1, stream=0))


def test_an_objective_with_no_loss_formula_is_not_implemented():
    # loss and losses default to each other; a subclass overrides one
    class NoFormula(Objective):
        dim = 2

    obj = NoFormula()
    with pytest.raises(NotImplementedError, match="neither loss nor losses"):
        obj.loss(np.zeros(2), _unit_batch())
    with pytest.raises(NotImplementedError, match="neither loss nor losses"):
        obj.losses(np.zeros((1, 2)), _unit_batch())


# loss is the one-row case of losses, so this checks that a row's loss
# never depends on how many rows are stacked with it. That still matters:
# a version's probe block is cut short where the run ends or diverges, so
# its loss must not depend on the block's size, and perfbench checks that
# its traced runs, which probe with one loss call per version, write the
# digests of its untraced ones.
@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "linreg", "mlp"]),
    k=st.integers(1, 80),
    dim=st.integers(1, 24),
    hidden=st.integers(1, 10),
    classes=st.integers(2, 4),
    samples=st.integers(1, 40),
    top=st.floats(-3.0, 160.0),
    seed=st.integers(0, 2**16),
)
def test_stacked_losses_match_per_row_loss_bit_for_bit(
    kind, k, dim, hidden, classes, samples, top, seed
):
    # the engine probes up to 64 versions in one losses call, so row j must
    # be loss(thetas[j]) to the last bit, nan and inf rows included
    rng = RngStream(seed, stream=0)
    if kind == "quadratic":
        obj, batch = Quadratic.random(dim, seed, cond=10.0), _unit_batch()
    elif kind == "linreg":
        obj = LinearRegression(dim)
        batch = make_linreg_samples(rng, samples, rng.normal(size=dim), 0.1)
    else:
        in_dim = 1 + dim % 5
        obj = Mlp(in_dim, hidden, classes)
        centers = rng.normal(0.0, 2.0, size=(classes, in_dim))
        batch = make_blob_samples(rng, samples, centers)
    # each row at its own scale, from 1e-3 up to 10**top; the last row at
    # 1e160, where the quadratic's and linreg's squares overflow
    gen = np.random.default_rng(seed)
    scales = 10.0 ** gen.uniform(-3.0, top, size=(k, 1))
    scales[-1] = 1e160
    thetas = gen.normal(size=(k, obj.dim)) * scales
    with np.errstate(over="ignore", invalid="ignore"):
        got = obj.losses(thetas, batch)
        want = np.array([obj.loss(t, batch) for t in thetas])
    assert got.dtype == np.float64 and got.shape == (k,)
    assert got.tobytes() == want.tobytes()
    if kind != "mlp":
        assert not np.isfinite(want[-1])


def _reference_grad(obj, theta, batch, rng):
    """Each gradient as the @ / concatenate formula the kernels replaced."""
    if isinstance(obj, Quadratic):
        g = obj.a_matrix @ (theta - obj.theta_star)
        if obj.noise_sigma > 0:
            std = obj.noise_sigma / math.sqrt(batch.total_cost)
            g = g + rng.normal(0.0, std, size=obj.dim)
        return g
    x, n = batch.features, len(batch)
    if isinstance(obj, LinearRegression):
        return (x.T @ (x @ theta - batch.targets)) / n
    h, d, c = obj.hidden, obj.in_dim, obj.classes
    i = h * d + h
    w1, b1 = theta[: h * d].reshape(h, d), theta[h * d : i]
    w2, b2 = theta[i : i + c * h].reshape(c, h), theta[i + c * h :]
    a = np.tanh(x @ w1.T + b1)
    z = a @ w2.T + b2
    z = z - z.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    dz2 = np.exp(log_p)
    dz2[np.arange(n), batch.targets.astype(np.int64)] -= 1.0
    dz2 /= n
    dz1 = (dz2 @ w2) * (1.0 - a * a)
    return np.concatenate(
        [(dz1.T @ x).ravel(), dz1.sum(axis=0), (dz2.T @ a).ravel(), dz2.sum(axis=0)]
    )


# the kernels take their 2-D products through ndarray.dot and write into
# slices of one vector; both must leave every bit of the @ formulas
@settings(max_examples=150, deadline=None)
# one sample, one input and one hidden unit: dot multiplied the
# one-element (1, 1) operands as scalars, giving -0.0 where @ gives +0.0
@example(kind="mlp", dim=1, hidden=1, classes=2, rows=1, top=2.0, seed=1)
@given(
    kind=st.sampled_from(["quadratic", "noisy", "linreg", "mlp"]),
    dim=st.integers(1, 80),
    hidden=st.integers(1, 40),
    classes=st.integers(2, 8),
    rows=st.integers(1, 40),
    top=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**16),
)
def test_gradients_match_the_matmul_formulas_bit_for_bit(
    kind, dim, hidden, classes, rows, top, seed
):
    gen = np.random.default_rng(seed)
    if kind in ("quadratic", "noisy"):
        obj = Quadratic.random(dim, seed, noise_sigma=2.0 if kind == "noisy" else 0.0)
        batch = Batch.cost_only(gen.integers(1, 5, size=rows))
    elif kind == "linreg":
        obj = LinearRegression(dim)
        batch = Batch(gen.normal(size=(rows, dim)), gen.normal(size=rows), np.ones(rows))
    else:
        obj = Mlp(dim, hidden, classes)
        targets = gen.integers(0, classes, size=rows).astype(np.float64)
        batch = Batch(gen.normal(size=(rows, dim)) * 3.0, targets, np.ones(rows))
    theta = gen.normal(size=obj.dim) * 10.0**top
    got = obj.grad(theta, batch, RngStream(seed, stream=5))
    want = _reference_grad(obj, theta, batch, RngStream(seed, stream=5))
    assert got.dtype == np.float64 and got.shape == (obj.dim,)
    assert got.tobytes() == want.tobytes()


def test_one_element_products_keep_the_matmul_signed_zero():
    # a product of one-element operands that is -0.0 is +0.0 under @,
    # which sums it from +0.0; each gradient must give @'s bits
    x = [[0.0]]
    cases = [
        # A (theta - theta*) = 2 * -0.0
        (Quadratic([[2.0]], [0.0]), np.array([-0.0]), _unit_batch()),
        # x theta = 0 * -1.5
        (LinearRegression(1), np.array([-1.5]), Batch(x, [0.0], [1])),
        # dz1' x = (negative) * 0, with W1, b1, W2, b2 = -1, 0, (-3, 3), (0, 0)
        (Mlp(1, 1, 2), np.array([-1.0, 0.0, -3.0, 3.0, 0.0, 0.0]), Batch(x, [1.0], [1])),
    ]
    for obj, theta, batch in cases:
        want = _reference_grad(obj, theta, batch, None)
        assert obj.grad(theta, batch).tobytes() == want.tobytes(), type(obj).__name__


def test_mlp_reads_a_target_as_a_class_index_in_loss_and_grad():
    # int(target) indexes the classes: one past the last class is an
    # error in both paths, never a silent all-zero one-hot row; -1 is the
    # last class and 1.5 is class 1, in both, so grad stays the gradient
    # of the loss it is probed with
    mlp = Mlp(in_dim=2, hidden=3, classes=3)
    theta = mlp.init_theta(RngStream(0, stream=3))
    x = RngStream(1, stream=0).normal(size=(2, 2))

    def batch(target):
        return Batch(x, [0.0, target], [1, 1])

    for bad in (3.0, 7.0, -4.0):
        with pytest.raises(IndexError):
            mlp.grad(theta, batch(bad))
        with pytest.raises(IndexError):
            mlp.loss(theta, batch(bad))
    for odd, class_id in ((-1.0, 2.0), (1.5, 1.0)):
        got, want = mlp.grad(theta, batch(odd)), mlp.grad(theta, batch(class_id))
        assert got.tobytes() == want.tobytes()
        assert mlp.loss(theta, batch(odd)) == mlp.loss(theta, batch(class_id))


# Mlp.grad keeps each batch's one-hot label rows on the batch and the
# weight views of the last theta it was given; neither may change a bit


def _mlp_cut(classes=3, seed=0):
    # a blob dataset of classes ids cut into 5-sample batches
    centers = RngStream(seed, stream=2).normal(size=(classes, 4))
    dataset = make_blob_samples(RngStream(seed, stream=0), 8, centers)
    return list(dynamic_batcher(dataset, 5))


def _assert_reference_grad(mlp, theta, batch):
    want = _reference_grad(mlp, theta, batch, None)
    assert mlp.grad(theta, batch).tobytes() == want.tobytes()


def test_mlp_grad_caches_keep_every_bit_cold_warm_and_after_another_theta():
    mlp = Mlp(in_dim=4, hidden=8, classes=3)
    view = _mlp_cut()[1]
    # a list keeps each theta one object; indexing a 2-D array makes a new one
    thetas = list(RngStream(4, stream=3).normal(size=(2, mlp.dim)))
    assert view._labels is None
    _assert_reference_grad(mlp, thetas[0], view)  # both caches cold
    rows = view._labels
    assert rows.shape == (len(view), 3) and not rows.flags.writeable
    _assert_reference_grad(mlp, thetas[0], view)  # both warm
    _assert_reference_grad(mlp, thetas[1], view)  # another theta, warm rows
    _assert_reference_grad(mlp, thetas[0], view)
    assert view._labels is rows  # made once


def test_mlp_construction_makes_nothing_the_size_of_classes_squared():
    # the label rows are made per batch view, from its targets alone
    tracemalloc.start()
    try:
        Mlp(4, 8, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_mlp_grad_label_rows_follow_the_class_count():
    # targets 0-2 are classes of both networks, whose one-hot rows differ
    # in width; each must subtract its own
    view = _mlp_cut()[0]
    narrow, wide = Mlp(4, 8, 3), Mlp(4, 8, 5)
    gen = np.random.default_rng(7)
    for mlp in (narrow, wide, narrow, wide):
        _assert_reference_grad(mlp, gen.normal(size=mlp.dim), view)
        assert view._labels.shape == (len(view), mlp.classes)


def test_mlp_grad_reads_a_theta_written_in_place():
    # the weight memo holds views of theta, matched by identity: a theta
    # written in place is read afresh, and an equal copy of it is not
    # answered with the views of the original
    mlp = Mlp(in_dim=4, hidden=8, classes=3)
    view = _mlp_cut()[2]
    theta = RngStream(5, stream=3).normal(size=mlp.dim)
    _assert_reference_grad(mlp, theta, view)
    theta *= -0.5
    _assert_reference_grad(mlp, theta, view)
    copy = theta.copy()
    theta += 1.0
    _assert_reference_grad(mlp, copy, view)
    _assert_reference_grad(mlp, theta, view)


def test_threads_grade_through_one_mlp_and_one_shared_cut():
    # as the engine's workers do, the threads pull the same versions: each
    # takes the thetas in its own order, so the weight memo changes hands
    mlp = Mlp(in_dim=4, hidden=8, classes=3)
    batches = _mlp_cut(seed=1)
    thetas = list(RngStream(6, stream=3).normal(size=(3, mlp.dim)))
    want = [[_reference_grad(mlp, t, b, None).tobytes() for b in batches] for t in thetas]

    def yielding(theta):
        # hand the interpreter lock over while the memo is being replaced
        time.sleep(0)
        return Mlp._weights(mlp, theta)

    mlp._weights = yielding
    barrier = threading.Barrier(4, timeout=60)
    bad = ["unfinished"] * 4  # a thread that raises stays unfinished

    def grade(w):
        barrier.wait()
        for i in range(200):
            k, j = (i + w) % len(thetas), (i // 3 + w) % len(batches)
            if mlp.grad(thetas[k], batches[j]).tobytes() != want[k][j]:
                bad[w] = (k, j)
                return
        bad[w] = None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grade, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert bad == [None] * 4


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_matches_quadratic_gradient():
    q = Quadratic.random(dim=6, seed=3)
    theta = RngStream(8, stream=0).normal(size=6)
    b = _unit_batch()
    assert _rel_err(q.grad(theta, b), finite_diff_grad(q, theta, b, 1e-5)) < 1e-6


def test_finite_diff_matches_linreg_gradient():
    batch = make_linreg_samples(RngStream(2, stream=0), 8, as_vec([0.3, -1.1, 2.0]))
    obj = LinearRegression(3)
    theta = RngStream(5, stream=0).normal(size=3)
    assert (
        _rel_err(obj.grad(theta, batch), finite_diff_grad(obj, theta, batch, 1e-6))
        < 1e-6
    )


def test_finite_diff_matches_mlp_gradient():
    mlp = Mlp(in_dim=4, hidden=8, classes=3)
    theta = mlp.init_theta(RngStream(0, stream=3))
    centers = RngStream(0, stream=2).normal(size=(3, 4))
    batch = make_blob_samples(RngStream(0, stream=0), 4, centers)
    assert (
        _rel_err(mlp.grad(theta, batch), finite_diff_grad(mlp, theta, batch, 1e-5))
        < 1e-4
    )


def test_finite_diff_zero_function_gives_zero_vector():
    # all-zero targets and features: the loss is identically zero
    obj = LinearRegression(2)
    batch = Batch([[0.0, 0.0]], [0.0], [1])
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
    batches = list(dynamic_batcher(Batch.cost_only([3] * 3), budget=6))
    assert [len(b) for b in batches] == [2, 1]
    assert [b.total_cost for b in batches] == [6, 3]


def test_batcher_unit_costs_fill_exactly():
    batches = list(dynamic_batcher(Batch.cost_only([1] * 23), budget=5))
    assert [len(b) for b in batches] == [5, 5, 5, 5, 3]


def test_batcher_budget_scaling_quarters_batch_count():
    dataset = Batch.cost_only([2] * 200)
    small = list(dynamic_batcher(dataset, budget=10))
    large = list(dynamic_batcher(dataset, budget=40))
    assert len(small) == 4 * len(large)


def test_batcher_rejects_oversized_sample():
    with pytest.raises(ValueError):
        dynamic_batcher(Batch.cost_only([11]), budget=10)
    # checked at the call, not when the iterator reaches the sample
    with pytest.raises(ValueError, match="sample cost 11 exceeds batch budget 10"):
        dynamic_batcher(Batch.cost_only([1, 2, 11]), budget=10)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        dynamic_batcher(Batch.cost_only([1]), budget=0)


def _costed_dataset(costs):
    n = len(costs)
    features = np.arange(2.0 * n).reshape(n, 2)
    return Batch(features, -np.arange(float(n)), costs)


@settings(max_examples=60)
@given(
    costs=st.lists(st.integers(1, 9), min_size=1, max_size=40),
    budget=st.integers(9, 30),
)
def test_batcher_partition_properties(costs, budget):
    dataset = _costed_dataset(costs)
    batches = list(dynamic_batcher(dataset, budget))
    # order-preserving partition: the rows concatenate back to the dataset
    np.testing.assert_array_equal(
        np.concatenate([b.features for b in batches]), dataset.features
    )
    np.testing.assert_array_equal(
        np.concatenate([b.targets for b in batches]), dataset.targets
    )
    assert np.concatenate([b.costs for b in batches]).tolist() == costs
    start = 0
    for i, b in enumerate(batches):
        assert len(b) > 0  # never empty
        assert b.total_cost == sum(costs[start : start + len(b)])
        assert b.total_cost <= budget
        if i > 0:
            # greedy maximality: this batch's first row would have
            # overflowed the batch before it
            assert batches[i - 1].total_cost + costs[start] > budget
        start += len(b)


def test_batches_are_read_only_views_of_the_dataset():
    dataset = _costed_dataset([1, 2, 3, 1, 2, 3, 1])
    batches = list(dynamic_batcher(dataset, budget=4))
    assert len(batches) > 1
    for b in batches:
        for arr, whole in (
            (b.features, dataset.features),
            (b.targets, dataset.targets),
            (b.costs, dataset.costs),
        ):
            assert np.shares_memory(arr, whole)
            with pytest.raises(ValueError):
                arr[0] = 0


def test_batcher_cuts_once_per_dataset_and_budget():
    dataset = _costed_dataset([1, 2, 3, 1, 2, 3, 1])
    # an iterator scans and cuts only the batches it reaches, and a later
    # one replays them
    first = next(dynamic_batcher(dataset, 4))
    cut, scan = dataset._cuts[4]
    assert len(cut) == 1
    assert inspect.getgeneratorlocals(scan)["i"] == 2  # read rows 0-2 only
    views = list(dynamic_batcher(dataset, 4))
    assert views[0] is first
    again = list(dynamic_batcher(dataset, 4))
    assert len(again) == len(views) and all(a is b for a, b in zip(again, views))
    # a second budget gets its own cut, and the first stays as it was
    other = list(dynamic_batcher(dataset, 5))
    assert [b.total_cost for b in views] == [3, 4, 2, 4]
    assert [b.total_cost for b in other] == [3, 4, 5, 1]
    assert not {id(b) for b in other} & {id(b) for b in views}
    assert [b.total_cost for b in dynamic_batcher(dataset, 6)] == [6, 6, 1]
    assert all(a is b for a, b in zip(dynamic_batcher(dataset, 4), views))
    # each call is its own iterator, so two can be open at once
    a, b = dynamic_batcher(dataset, 4), dynamic_batcher(dataset, 4)
    assert [next(a), next(a), next(b)] == [views[0], views[1], views[0]]


def test_threads_on_one_dataset_share_one_cut():
    # threads that race through a fresh cut all get the same view objects
    dataset = _costed_dataset(np.arange(2000) % 3 + 1)
    barrier = threading.Barrier(4, timeout=60)
    seen = [None] * 4

    def walk(t):
        barrier.wait()
        seen[t] = list(dynamic_batcher(dataset, 5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=walk, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen[0]) == 1000
    assert all(len(s) == 1000 and all(a is b for a, b in zip(s, seen[0])) for s in seen)


def test_batcher_checks_every_call_with_or_without_a_cut():
    costs = np.array([1, 2, 3, 1])
    dataset = Batch.cost_only(costs)  # a view of the caller's writeable costs
    for _ in range(2):
        with pytest.raises(ValueError, match="sample cost 3 exceeds batch budget 2"):
            dynamic_batcher(dataset, 2)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            dynamic_batcher(dataset, 0)
    assert [len(b) for b in dynamic_batcher(dataset, 3)] == [2, 1, 1]
    # the cut at budget 3 is kept, but the costs are checked again at each call
    costs[1] = 4
    with pytest.raises(ValueError, match="sample cost 4 exceeds batch budget 3"):
        dynamic_batcher(dataset, 3)


def test_cost_stream_bounds():
    rng = RngStream(0, stream=0)
    costs = make_cost_stream(rng, 500, cost_max=50)
    assert costs.dtype == np.int64
    assert min(costs.tolist()) >= 1 and max(costs.tolist()) <= 50
    # degenerate max: every cost is 1 and no randomness is consumed
    rng2 = RngStream(0, stream=0)
    ones = make_cost_stream(rng2, 10, cost_max=1)
    assert ones.dtype == np.int64
    assert ones.tolist() == [1] * 10
    np.testing.assert_array_equal(
        rng2.normal(size=3), RngStream(0, stream=0).normal(size=3)
    )


def test_cost_stream_reaches_cost_max():
    # costs are uniform on [1, cost_max], both ends included
    costs = make_cost_stream(RngStream(5, stream=1), 2000, cost_max=3)
    assert set(costs.tolist()) == {1, 2, 3}
