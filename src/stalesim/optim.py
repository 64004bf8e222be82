"""Optimizers and gradient-stream analysis.

Adam and plain SGD are implemented as pure functions over explicit state
and an explicit learning rate: the engine (simulator.run_simulation and
its waves, simulator._wave) owns the Adam state and passes the scheduled
rate to every step, and simulator._probe_block checks the results for
finiteness, so these functions leave values unchecked. The analysis half
(`adam_direction`, `predicted_efficiency`) quantifies how gradient noise throttles Adam: in
the long run the mean update magnitude per coordinate approaches
1/sqrt(CoV^2 + 1) where CoV is the coefficient of variation of the
gradient stream, so averaging independent samples (which shrinks CoV as
1/sqrt(N)) speeds Adam up.

Every scalar operand of a step is applied as a 0-d float64 array, not as a
Python float. Both hold the same float64 value, so each element-wise
operation rounds to the same bits, but numpy applies the array with less
call overhead (at d = 20, 0.43 against 0.62 us per operation on a shared
2-core x86-64 host, Python 3.11, NumPy 2.4). beta1, 1-beta1, beta2,
1-beta2 and epsilon are built once per config.AdamConfig (its operands);
lr and the two bias corrections are wrapped once per step (0.19 us a
wrap, about what it saves). A bias correction 1 - beta**t that is exactly
1.0 is not divided by, since x/1.0 is x, bit for bit, for every double:
for beta1 = 0.9 that holds from t = 356 on, for beta2 = 0.98 from
t = 1853, and at every t for beta = 0.

A step is 11 to 13 element-wise operations and little Python around
them: on the same host at d = 20, a step at t = 1000 takes 6.4 us, of
which its 12 operations take 5.1 us. That is numpy's call floor for one
parameter vector, so adam_steps applies k updates as one stack: its
element-wise operations run once on (k, d) arrays and only the moment
recurrence runs per row, two calls. At d = 20, best of 30, 16 updates
take 41 us stacked against 103 us chained, 4 take 21 against 25, and
one takes 14 against 7 (a stack's fixed cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import Vec

if TYPE_CHECKING:
    from .config import AdamConfig

__all__ = [
    "AdamState",
    "adam_step",
    "adam_steps",
    "sgd_step",
    "adam_direction",
    "predicted_efficiency",
]


@dataclass
class AdamState:
    """Moment accumulators and completed-step counter.

    t counts completed updates; m and v start at zero. The bias-correction
    exponent for the step being applied is t+1, which makes the corrected
    first step satisfy m_hat = g and v_hat = g^2 exactly.
    """

    m: Vec
    v: Vec
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


def adam_step(
    state: AdamState, cfg: AdamConfig, theta: Vec, g: Vec, lr: float
) -> tuple[AdamState, Vec]:
    """Apply one Adam update with learning rate lr; returns (new state, new
    parameters).

        m' = b1*m + (1-b1)*g
        v' = b2*v + (1-b2)*g^2
        theta' = theta - lr * (m'/(1-b1^(t+1))) / (sqrt(v'/(1-b2^(t+1))) + eps)

    The caller picks lr: the engine passes the scheduled rate (see
    core.learning_rate), so cfg.alpha is read only where the rate is set.
    """
    if theta.shape != g.shape or state.m.shape != g.shape:
        raise ValueError(
            f"dimension mismatch: theta {theta.shape}, g {g.shape}, m {state.m.shape}"
        )
    t = state.t + 1
    b1, c1, b2, c2, eps = cfg.operands
    m = b1 * state.m + c1 * g
    v = b2 * state.v + c2 * g * g
    # _unbias, written out: a call costs more than its arithmetic here
    d1, d2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
    m_hat = m if d1 == 1.0 else m / np.asarray(d1)
    v_hat = v if d2 == 1.0 else v / np.asarray(d2)
    return AdamState(m, v, t), theta - np.asarray(lr) * m_hat / (np.sqrt(v_hat) + eps)


def adam_steps(
    state: AdamState, cfg: AdamConfig, theta: Vec, grads: np.ndarray, lrs: list
) -> tuple[AdamState, np.ndarray, np.ndarray]:
    """Apply the k updates of a (k, d) gradient stack in order, update i at
    rate lrs[i]; returns (new state, the (k, d) parameters after each
    update, the (k, d) second moments after each). Each row equals what
    chained adam_step calls make, bit for bit.

    Every step but the moment recurrence runs once on the stack. The
    recurrence runs per row on m and v side by side, one 2d-vector, in two
    calls. The two unbias divides are one divide of the (k, 2, d) view of
    the moments by each row's two divisors, applied at every row: x/1.0
    is x, so the rows where adam_step skips a divide keep their bits. The
    divisors are Python floats, as adam_step makes them (np.power can
    round beta**t differently). The parameters come from one
    np.subtract.accumulate over [theta; step rows], a sequential left
    fold, so each row is the previous row minus its step, as chained calls
    compute it."""
    k, d = grads.shape
    if theta.shape != (d,) or state.m.shape != (d,):
        raise ValueError(
            f"dimension mismatch: theta {theta.shape}, grads {grads.shape}, m {state.m.shape}"
        )
    _, c1, _, c2, eps = cfg.operands
    mv = np.empty((k, 2 * d))
    m, v = mv[:, :d], mv[:, d:]
    np.multiply(c1, grads, out=m)
    np.multiply(np.multiply(c2, grads, out=v), grads, out=v)
    decay = np.empty(2 * d)
    decay[:d], decay[d:] = cfg.beta1, cfg.beta2
    last = np.concatenate((state.m, state.v))
    for row in mv:  # row = decay * last + row: b1*m + c1*g, b2*v + c2*g*g
        last = np.add(np.multiply(decay, last), row, out=row)
    t = state.t
    hat = mv.reshape(k, 2, d) / np.array(
        [(1.0 - cfg.beta1**i, 1.0 - cfg.beta2**i) for i in range(t + 1, t + k + 1)]
    )[:, :, None]
    thetas = np.empty((k + 1, d))
    thetas[0] = theta
    np.divide(np.array(lrs)[:, None] * hat[:, 0], np.sqrt(hat[:, 1]) + eps, out=thetas[1:])
    np.subtract.accumulate(thetas, axis=0, out=thetas)
    return AdamState(m[-1], v[-1], t + k), thetas[1:], v


def _unbias(x: Vec, beta: float, t: int) -> Vec:
    """x / (1 - beta**t), or x itself when that divisor is exactly 1.0."""
    c = 1.0 - beta**t
    return x if c == 1.0 else x / np.asarray(c)


def sgd_step(theta: Vec, g: Vec, lr: float) -> Vec:
    """Plain SGD: theta - lr*g."""
    if theta.shape != g.shape:
        raise ValueError(f"dimension mismatch: {theta.shape} vs {g.shape}")
    if lr <= 0:
        raise ValueError("lr must be > 0")
    return theta - np.asarray(lr) * g


def adam_direction(state: AdamState, cfg: AdamConfig) -> Vec:
    """Unit-learning-rate update direction m_hat/(sqrt(v_hat)+eps) of the
    most recent step. Requires at least one completed step."""
    if state.t < 1:
        raise ValueError("adam_direction requires at least one completed step")
    m_hat = _unbias(state.m, cfg.beta1, state.t)
    v_hat = _unbias(state.v, cfg.beta2, state.t)
    return m_hat / (np.sqrt(v_hat) + cfg.operands[4])


def predicted_efficiency(mean: float, variance: float, count: int = 1) -> float:
    """Predicted long-run mean |adam_direction| for an i.i.d. gradient stream
    of one sample's mean and variance, each gradient the sum (or average)
    of count independent samples.

    Returns 1/sqrt(Var/mean^2 + 1) with Var = variance / count, since
    summing (or averaging) count independent samples divides the
    variance-to-squared-mean ratio by count. Undefined at mean 0.
    """
    if variance < 0:
        raise ValueError("variance must be >= 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    if mean == 0:
        raise ValueError("efficiency is undefined for a zero-mean stream")
    return 1.0 / np.sqrt(variance / count / mean**2 + 1.0)

