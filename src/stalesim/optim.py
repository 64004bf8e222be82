"""Optimizers and gradient-stream analysis.

Adam and plain SGD are implemented as pure functions over explicit state
and an explicit learning rate: the engine (simulator._Run.update) owns the
Adam state, passes the scheduled rate to every step and checks the results
for finiteness, so these functions leave values unchecked. The analysis
half (`adam_direction`, `predicted_efficiency`) quantifies how gradient
noise throttles Adam: in the long run the mean update magnitude per
coordinate approaches 1/sqrt(CoV^2 + 1) where CoV is the coefficient of
variation of the gradient stream, so averaging independent samples (which
shrinks CoV as 1/sqrt(N)) speeds Adam up.

Every scalar operand of a step is applied as a 0-d float64 array, not as a
Python float. Both hold the same float64 value, so each element-wise
operation rounds to the same bits, but numpy applies the array with less
call overhead (at d = 20, 0.36 against 0.53 us per operation on a 2-core
x86-64 host with NumPy 2.4). beta1, 1-beta1, beta2, 1-beta2 and epsilon
are built once per AdamConfig (AdamConfig.operands); lr and the two bias
corrections are wrapped once per step. A bias correction 1 - beta**t that
is exactly 1.0 is not divided by, since x/1.0 is x, bit for bit, for
every double: for beta1 = 0.9 that holds from t = 356 on, for
beta2 = 0.98 from t = 1853, and at every t for beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Vec

__all__ = [
    "AdamConfig",
    "AdamState",
    "adam_step",
    "sgd_step",
    "adam_direction",
    "predicted_efficiency",
]


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters. epsilon=0 is allowed and makes the update
    exactly scale invariant."""

    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("optimizer.alpha must be > 0")
        if not 0 <= self.beta1 < 1:
            raise ValueError("optimizer.beta1 must be in [0, 1)")
        if not 0 <= self.beta2 < 1:
            raise ValueError("optimizer.beta2 must be in [0, 1)")
        if self.epsilon < 0:
            raise ValueError("optimizer.epsilon must be >= 0")

    @cached_property
    def operands(self) -> tuple[np.ndarray, ...]:
        """(beta1, 1-beta1, beta2, 1-beta2, epsilon) as read-only 0-d
        float64 arrays, built at the first step and shared by every step
        on this config. Not a field, so equality, hashing and the config
        echo see only the four hyperparameters."""
        b1, b2, eps = self.beta1, self.beta2, self.epsilon
        operands = tuple(np.array(x, np.float64) for x in (b1, 1.0 - b1, b2, 1.0 - b2, eps))
        for x in operands:
            x.setflags(write=False)
        return operands


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
    t_new = state.t + 1
    b1, c1, b2, c2, eps = cfg.operands
    m = b1 * state.m + c1 * g
    v = b2 * state.v + c2 * g * g
    m_hat = _unbias(m, cfg.beta1, t_new)
    v_hat = _unbias(v, cfg.beta2, t_new)
    theta_new = theta - np.asarray(lr) * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(m=m, v=v, t=t_new), theta_new


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

