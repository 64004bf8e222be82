"""Toy differentiable objectives, synthetic datasets, and cost-budget batching.

Three objectives stand in for a real model, small enough that a central
finite-difference oracle verifies every analytic gradient in milliseconds:

* Quadratic: 0.5*(theta-theta*)' A (theta-theta*) with optional analytic
  gradient noise whose per-coordinate std is noise_sigma/sqrt(batch cost),
  so bigger batches mean less noise with exact control over the variance.
* LinearRegression: mean of 0.5*(theta.x - y)^2 over the batch samples.
* Mlp: one tanh hidden layer with softmax cross-entropy, parameters kept
  under a few hundred so finite differences stay cheap.

A dataset is one array-backed Batch: a feature matrix, a target vector and
integer costs (a token-count analog), one row per sample. dynamic_batcher
fills batches greedily up to a cost budget in dataset order, as row views
of the dataset. Every piece here is read-only and safe to share across
runs and threads. What runs that share a piece make only once is
described in one place each: the cut in dynamic_batcher, the two slots
that keep it on a batch in Batch, and the label rows and weight views in
Mlp.

The gradients run at d <= ~80, where a kernel's time is mostly numpy's
per-call overhead, not arithmetic. So each 2-D product in a gradient goes
through ndarray.dot, which calls the same BLAS routine as the @ operator
without the matmul ufunc's dispatch (tests/test_models.py checks that the
bits match), and each grad writes its result into one fresh vector. One
case differs: dot takes a one-element operand as a scalar, and a scalar
times a one-element operand keeps the sign of a -0.0 product, where @ sums
it from +0.0. A grad whose shapes can make such an operand (a batch of
one row, or a dimension of one) takes its products through matmul. The
stacked probe (losses) keeps matmul: dot means something else on N-D
arrays, and one gemm over the stack would round a row differently as the
stack grows.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator

import numpy as np

from .core import STREAM_OBJECTIVE, RngStream, Vec, as_vec

__all__ = [
    "Batch",
    "Objective",
    "Quadratic",
    "LinearRegression",
    "Mlp",
    "finite_diff_grad",
    "dynamic_batcher",
    "make_cost_stream",
    "make_linreg_samples",
    "make_blob_samples",
]


def _read_only(values, dtype) -> np.ndarray:
    """A read-only view of values as a dtype array; an array the caller
    passed in stays writeable."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


class Batch:
    """Rows fed to one gradient computation, or a whole dataset.

    Holds three read-only arrays with one row per sample: features (n, d)
    float64, targets (n,) float64 (a real value or a class id) and costs
    (n,) int64, each cost >= 1 and standing in for the sample's memory
    footprint. total_cost is their sum as a Python int. Objectives that
    see only the cost (the quadratic) use d = 0.

    Two slots keep what is made once for a batch, None at construction
    and on every row view. _cuts, on a dataset, maps each budget to
    (views, scan): the views dynamic_batcher has cut so far and the scan
    of the costs that finds the next. The pair holds the costs array, not
    the dataset, so a dataset is freed as soon as its last run ends.
    _labels holds the label rows Mlp.grad made for the batch, (n, classes)
    float64: n * classes * 8 bytes, so a cut's views hold dataset rows *
    classes * 8 bytes once each has been graded. Like total_cost, both
    are taken from the arrays as they are then, and never recomputed.
    """

    __slots__ = ("features", "targets", "costs", "total_cost", "_cuts", "_labels")

    def __init__(self, features, targets, costs):
        x = _read_only(features, np.float64)
        y = _read_only(targets, np.float64)
        c = _read_only(costs, np.int64)
        if x.ndim != 2 or y.shape != (x.shape[0],) or c.shape != y.shape:
            raise ValueError(
                "batch needs features (n, d), targets (n,) and costs (n,), "
                f"got {x.shape}, {y.shape} and {c.shape}"
            )
        if y.shape[0] == 0:
            raise ValueError("batch must be non-empty")
        if c.min() < 1:
            raise ValueError("sample cost must be >= 1")
        self.features, self.targets, self.costs = x, y, c
        self.total_cost = sum(c.tolist())  # exact, where an int64 sum would wrap
        self._cuts = self._labels = None

    @classmethod
    def cost_only(cls, costs) -> "Batch":
        """Rows with no features and zero targets, one per cost."""
        n = len(costs)
        return cls(np.empty((n, 0)), np.zeros(n), costs)

    def _rows(self, start: int, stop: int, total_cost: int) -> "Batch":
        # a view of rows [start, stop) whose costs the caller has summed
        b = object.__new__(Batch)
        b.features = self.features[start:stop]
        b.targets = self.targets[start:stop]
        b.costs = self.costs[start:stop]
        b.total_cost = total_cost
        b._cuts = b._labels = None
        return b

    def __len__(self) -> int:
        return self.targets.shape[0]


class Objective:
    """Interface shared by all toy objectives.

    loss/losses/grad take a Batch; grad additionally takes the caller's
    random stream (a Generator, as RngStream makes one) so concurrent
    workers never share sampler state. Objectives are read-only and safe
    to share across runs and threads (see Mlp for what its grad keeps).

    losses is the probe: the engine evaluates the probe loss of a block of
    parameter versions, 64 or the few more that the wave filling the
    block made, in one call to it, and loss is its one-row case. A
    subclass overrides one of the two. The objectives here override losses
    with one stacked computation whose row k never depends on how many
    rows are stacked; an objective that overrides only loss is probed one
    loss call per row.
    """

    dim: int
    has_noise: bool = False

    def loss(self, theta: Vec, batch: Batch) -> float:
        """The loss at theta on batch: row 0 of losses on theta alone."""
        self._check_dim(theta)
        return float(self.losses(theta[None], batch)[0])

    def losses(self, thetas: np.ndarray, batch: Batch) -> np.ndarray:
        """The loss of each row of thetas (K, dim) on batch, as K float64s."""
        if getattr(type(self), "loss", None) is Objective.loss:
            raise NotImplementedError(f"{type(self).__name__} overrides neither loss nor losses")
        return np.array([float(self.loss(t, batch)) for t in thetas])

    def grad(self, theta: Vec, batch: Batch, rng: np.random.Generator | None = None) -> Vec:
        """The gradient at theta on batch, as a fresh (dim,) array that
        shares no memory with theta, batch or an earlier return. The
        engine keeps the returned array and may step with it as is, so
        never write to it later. The objectives here take every 2-D
        product through ndarray.dot (see the module docstring)."""
        raise NotImplementedError

    def _check_dim(self, theta: Vec) -> None:
        if theta.shape != (self.dim,):
            raise ValueError(
                f"theta has dimension {theta.shape[0] if theta.ndim == 1 else theta.shape}, "
                f"objective expects {self.dim}"
            )


class Quadratic(Objective):
    """0.5*(theta-theta_star)' A (theta-theta_star) with A symmetric PD.

    The batch contributes only its total cost, which scales the injected
    gradient noise: each coordinate gets i.i.d. normal noise with std
    noise_sigma/sqrt(total_cost). noise_sigma=0 makes the gradient exact.
    """

    def __init__(self, a_matrix, theta_star, noise_sigma: float = 0.0):
        a = np.array(a_matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be a square matrix")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        if eigs.min() <= 0:
            raise ValueError("A must be positive definite")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.a_matrix = a
        self.theta_star = as_vec(theta_star)
        if self.theta_star.shape[0] != a.shape[0]:
            raise ValueError("theta_star dimension must match A")
        self.noise_sigma = float(noise_sigma)
        self.dim = a.shape[0]

    @property
    def has_noise(self) -> bool:
        return self.noise_sigma > 0

    def losses(self, thetas: np.ndarray, batch: Batch) -> np.ndarray:
        # 0.5 d'A d row by row as batched mat-vecs; a gemm over the stack
        # (thetas @ A) would round a row differently as K changes
        d = thetas - self.theta_star
        return (((0.5 * d)[:, None] @ self.a_matrix) @ d[..., None])[:, 0, 0]

    def grad(self, theta: Vec, batch: Batch, rng: np.random.Generator | None = None) -> Vec:
        self._check_dim(theta)
        d = theta - self.theta_star
        # at dim 1 A is one element (see the module docstring)
        g = self.a_matrix @ d if self.dim == 1 else self.a_matrix.dot(d)
        if self.noise_sigma > 0:
            if rng is None:
                raise ValueError("noisy quadratic gradient requires an RngStream")
            std = self.noise_sigma / math.sqrt(batch.total_cost)
            g = g + rng.normal(0.0, std, size=self.dim)
        return g

    @classmethod
    def random(
        cls,
        dim: int,
        seed: int,
        cond: float = 10.0,
        noise_sigma: float = 0.0,
        theta_star_scale: float = 5.0,
    ) -> "Quadratic":
        """Random PD quadratic with log-spaced eigenvalues in [1, cond] and
        a normal theta_star scaled by theta_star_scale."""
        rng = RngStream(seed, STREAM_OBJECTIVE)
        gauss = rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(gauss)
        eigs = np.logspace(0.0, np.log10(cond), dim)
        a = q @ np.diag(eigs) @ q.T
        a = 0.5 * (a + a.T)  # kill asymmetry from rounding
        # as normal(0.0, scale) draws it, but taking a scale of -0.0 too; a
        # huge scale overflows, which the run's first probe reports
        with np.errstate(over="ignore"):
            theta_star = theta_star_scale * rng.standard_normal(dim)
        return cls(a, theta_star, noise_sigma)


class LinearRegression(Objective):
    """Half-squared-error regression on the batch samples:
    mean over samples of 0.5*(theta.x - y)^2."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def losses(self, thetas: np.ndarray, batch: Batch) -> np.ndarray:
        # x @ theta for every row as a batched mat-vec, then the mean of
        # the squared residuals along each row
        r = (batch.features[None] @ thetas[..., None])[..., 0] - batch.targets
        return 0.5 * (np.add.reduce(r * r, axis=1) / len(batch))

    def grad(self, theta: Vec, batch: Batch, rng: np.random.Generator | None = None) -> Vec:
        self._check_dim(theta)
        x = batch.features
        # one row or one feature makes a one-element operand (see the
        # module docstring)
        product = np.matmul if 1 in x.shape else np.ndarray.dot
        r = product(x, theta)
        r -= batch.targets
        g = product(x.T, r)
        g /= len(batch)
        return g


def make_linreg_samples(
    rng: np.random.Generator,
    n: int,
    theta_true,
    target_noise: float = 0.0,
    cost_max: int = 1,
) -> Batch:
    """n regression samples with y = theta_true.x (+ optional target noise),
    as one Batch. target_noise=0 makes theta_true an exact fit."""
    theta_true = as_vec(theta_true)
    xs = rng.normal(size=(n, theta_true.shape[0]))
    ys = xs @ theta_true
    if target_noise > 0:
        ys = ys + rng.normal(0.0, target_noise, size=n)
    costs = make_cost_stream(rng, n, cost_max)
    return Batch(xs, ys, costs)


class Mlp(Objective):
    """One-hidden-layer tanh network with softmax cross-entropy loss.

    Parameter layout in theta: W1 (hidden x in) row-major, b1, W2
    (classes x hidden) row-major, b2. A target is read as the class
    index int(target), as numpy indexes: -1 is the last class, and a
    target >= classes raises IndexError in both losses and grad. _weights
    alone reads the layout, and one forward pass, _forward, on its views
    serves both the stacked losses and grad: grad's one vector takes its
    products through ndarray.dot (matmul when one can have a one-element
    operand), a stack through matmul. grad writes each block of the
    gradient into its slice of one fresh vector.

    grad takes what a push's batch or pulled version already fixed once.
    The first grad on a batch makes the one-hot rows of its targets
    (zeros, then 1.0 at each row's class) and stores them, read-only, on
    the batch (Batch._labels); an Mlp with another class count makes and
    stores its own, as the rows' width tells. grad also keeps the weight
    views of the last theta it was given, matched by identity: under
    global accumulation several pushes pull one version, and a run
    replays its batches. That memo holds views, never copies, so a caller
    that writes into its theta in place still gets its current values; it
    keeps that one theta alive until another replaces it. Both memos are
    only ever replaced whole, so a thread race at worst makes one twice.
    Kept small so the finite-difference oracle can sweep every coordinate
    quickly.
    """

    def __init__(self, in_dim: int, hidden: int, classes: int):
        if min(in_dim, hidden) < 1 or classes < 2:
            raise ValueError("need in_dim, hidden >= 1 and classes >= 2")
        self.in_dim = in_dim
        self.hidden = hidden
        self.classes = classes
        self.dim = hidden * in_dim + hidden + classes * hidden + classes
        # (theta, _weights(theta)) for the last theta grad was given
        self._last = None

    def _weights(self, theta: np.ndarray) -> tuple:
        """W1', b1, W2, W2' and b2 as views of one parameter vector (dim,)
        or a stack (K, dim): each weight matrix gets theta's leading axes
        and each bias a broadcast sample axis."""
        h, d, c = self.hidden, self.in_dim, self.classes
        lead = theta.shape[:-1]
        i = h * d + h
        w2 = theta[..., i : i + c * h].reshape(lead + (c, h))
        return (
            theta[..., : h * d].reshape(lead + (h, d)).swapaxes(-1, -2),
            theta[..., None, h * d : i],
            w2,
            w2.swapaxes(-1, -2),
            theta[..., None, i + c * h :],
        )

    def _forward(self, weights: tuple, x: np.ndarray, product=np.matmul):
        """The hidden activations and the log-probabilities of x's rows
        under _weights' views; a stack's arrays get its leading K axis.
        product takes the two products: matmul, or for one vector
        ndarray.dot."""
        w1t, b1, _, w2t, b2 = weights
        a = product(x, w1t)
        a += b1
        np.tanh(a, out=a)
        z = product(a, w2t)
        z += b2
        z -= np.maximum.reduce(z, axis=-1, keepdims=True)
        return a, z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))

    def losses(self, thetas: np.ndarray, batch: Batch) -> np.ndarray:
        _, log_p = self._forward(self._weights(thetas), batch.features)
        n = len(batch)
        # the gathered values as contiguous rows, so that each row is summed
        # in the same order whatever K is
        picked = np.ascontiguousarray(log_p[:, np.arange(n), batch.targets.astype(np.int64)])
        return -(np.add.reduce(picked, axis=1) / n)

    def grad(self, theta: Vec, batch: Batch, rng: np.random.Generator | None = None) -> Vec:
        self._check_dim(theta)
        h, d, c = self.hidden, self.in_dim, self.classes
        i = h * d + h
        x, n = batch.features, len(batch)
        # the operands x (n, d), W1 (h, d) and the activations (n, h) can
        # have one element (see the module docstring); dz2 and W2 never
        # can, as classes >= 2
        product = np.matmul if 1 in (d, h) and 1 in (n, d * h) else np.ndarray.dot
        last = self._last
        if last is None or last[0] is not theta:
            last = self._last = (theta, self._weights(theta))
        weights = last[1]
        a, log_p = self._forward(weights, x, product)
        labels = batch._labels
        if labels is None or labels.shape[1] != c:
            # the one-hot rows of the targets: p - 1.0 at the target's
            # class and p - 0.0, which is p, elsewhere
            labels = np.zeros((n, c))
            labels[np.arange(n), batch.targets.astype(np.int64)] = 1.0
            labels = batch._labels = _read_only(labels, np.float64)
        dz2 = np.exp(log_p)
        dz2 -= labels
        dz2 /= n
        g = np.empty(self.dim)
        product(dz2.T, a, out=g[i : i + c * h].reshape(c, h))
        np.add.reduce(dz2, axis=0, out=g[i + c * h :])
        dz1 = dz2.dot(weights[2])
        dz1 *= 1.0 - a * a
        product(dz1.T, x, out=g[: h * d].reshape(h, d))
        np.add.reduce(dz1, axis=0, out=g[h * d : i])
        return g

    def init_theta(self, rng: np.random.Generator, scale: float = 0.5) -> Vec:
        return rng.normal(0.0, scale, size=self.dim)


def make_blob_samples(
    rng: np.random.Generator,
    n_per_class: int,
    centers,
    spread: float = 0.5,
    cost_max: int = 1,
) -> Batch:
    """Gaussian-blob classification samples as one Batch: one
    normal(center_c, spread) cloud per class in class order, class id as
    target. centers has shape (classes, in_dim) and is drawn by the caller
    so that train and probe sets can share it while using different
    streams."""
    centers = np.asarray(centers, dtype=np.float64)
    xs, costs = [], []
    for c in range(centers.shape[0]):
        pts = rng.normal(0.0, spread, size=(n_per_class, centers.shape[1]))
        xs.append(pts + centers[c])
        costs.append(make_cost_stream(rng, n_per_class, cost_max))
    ys = np.repeat(np.arange(centers.shape[0], dtype=np.float64), n_per_class)
    return Batch(np.concatenate(xs), ys, np.concatenate(costs))


def finite_diff_grad(obj: Objective, theta: Vec, batch: Batch, h: float) -> Vec:
    """Central-difference gradient oracle: (loss(t+h*e_i)-loss(t-h*e_i))/2h,
    from one losses call on the 2*dim stacked rows theta +- h*e_i.

    Only valid for deterministic objectives; refuses to run when the
    objective injects gradient noise.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if obj.has_noise:
        raise ValueError("finite differences require noise disabled")
    e = h * np.eye(theta.shape[0])
    f = obj.losses(np.concatenate([theta + e, theta - e]), batch)
    plus, minus = np.split(f, 2)
    return (plus - minus) / (2 * h)


def dynamic_batcher(dataset: Batch, budget: int) -> Iterator[Batch]:
    """Greedy cost-budget batching in dataset order, cut on demand.

    A sample joins the open batch iff it fits the budget, otherwise a new
    batch starts. The batches are read-only row views of the dataset, not
    copies, and concatenate back to it exactly. The budget and every cost
    are checked at every call. The cut is kept on the dataset, one per
    budget (Batch._cuts): each batch is found and its view cut when an
    iterator first reaches it, so a run that uses a few batches of a large
    dataset scans and cuts only those, and every later iterator replays
    the same view objects. Each call returns its own iterator, so threads
    may iterate over one dataset at once; every cut grows under one lock,
    _CUTS_LOCK, held for one batch at a time.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    over = np.flatnonzero(dataset.costs > budget)
    if len(over):
        cost = dataset.costs[over[0]]
        raise ValueError(f"sample cost {cost} exceeds batch budget {budget}")
    with _CUTS_LOCK:
        if dataset._cuts is None:
            dataset._cuts = {}
        cut = dataset._cuts.get(budget)
        if cut is None:
            cut = dataset._cuts[budget] = ([], _greedy_bounds(dataset.costs, budget))
    return _replay(dataset, *cut)


# guards every cut: the first of each dataset and budget, so threads share
# it, and each batch cut after it, as the scan is a generator that two
# threads must not run at once. It is held for one batch's scan and view
_CUTS_LOCK = threading.Lock()


def _replay(dataset: Batch, views: list, bounds: Iterator) -> Iterator[Batch]:
    # yields the views cut so far, then cuts each next one unless another
    # iterator has; views and bounds are dataset._cuts[budget]
    i = 0
    while True:
        while i < len(views):
            yield views[i]
            i += 1
        with _CUTS_LOCK:
            if i == len(views):
                bound = next(bounds, None)  # a spent scan gives None again
                if bound is None:
                    return
                views.append(dataset._rows(*bound))


def _greedy_bounds(costs: np.ndarray, budget: int) -> Iterator[tuple[int, int, int]]:
    # (start, stop, total cost) of each batch, found as they are asked for
    start = current_cost = 0
    for i, cost in enumerate(costs.tolist()):
        if current_cost + cost > budget:
            yield start, i, current_cost
            start, current_cost = i, 0
        current_cost += cost
    yield start, len(costs), current_cost


def make_cost_stream(rng: np.random.Generator, n: int, cost_max: int = 50) -> np.ndarray:
    """n int64 costs uniform on [1, cost_max]; cost_max=1 means all ones
    (and draws nothing, keeping cost-free datasets deterministic across
    cost settings)."""
    if cost_max < 1:
        raise ValueError("cost_max must be >= 1")
    if cost_max == 1:
        return np.ones(n, np.int64)
    return rng.integers(1, cost_max, size=n, endpoint=True)
