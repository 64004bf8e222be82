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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Vec

__all__ = [
    "AdamConfig",
    "AdamState",
    "GradStreamStats",
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


@dataclass(frozen=True)
class GradStreamStats:
    """Mean/variance summary of a gradient stream.

    count is the number of independent samples summed (or averaged) into
    each gradient; the per-gradient variance is variance/count.
    """

    mean: float
    variance: float
    count: int = 1

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")


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
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1**t_new)
    v_hat = v / (1.0 - cfg.beta2**t_new)
    theta_new = theta - lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return AdamState(m=m, v=v, t=t_new), theta_new


def sgd_step(theta: Vec, g: Vec, lr: float) -> Vec:
    """Plain SGD: theta - lr*g."""
    if theta.shape != g.shape:
        raise ValueError(f"dimension mismatch: {theta.shape} vs {g.shape}")
    if lr <= 0:
        raise ValueError("lr must be > 0")
    return theta - lr * g


def adam_direction(state: AdamState, cfg: AdamConfig) -> Vec:
    """Unit-learning-rate update direction m_hat/(sqrt(v_hat)+eps) of the
    most recent step. Requires at least one completed step."""
    if state.t < 1:
        raise ValueError("adam_direction requires at least one completed step")
    m_hat = state.m / (1.0 - cfg.beta1**state.t)
    v_hat = state.v / (1.0 - cfg.beta2**state.t)
    return m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def predicted_efficiency(stats: GradStreamStats) -> float:
    """Predicted long-run mean |adam_direction| for an i.i.d. gradient stream.

    Returns 1/sqrt(Var/mean^2 + 1) with Var = stats.variance / stats.count,
    since summing (or averaging) count independent samples divides the
    variance-to-squared-mean ratio by count. Undefined at mean 0.
    """
    if stats.mean == 0:
        raise ValueError("efficiency is undefined for a zero-mean stream")
    var = stats.variance / stats.count
    return 1.0 / np.sqrt(var / stats.mean**2 + 1.0)

