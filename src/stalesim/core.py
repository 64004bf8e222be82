"""Shared numeric primitives: dense vectors, seeded RNG streams and the
stream ids a run draws from, the learning-rate formula, and the sampler of
compute times.

Parameter vectors are plain 1-D float64 numpy arrays, not wrapped in a class:
as_vec makes one. A random stream is likewise a plain numpy Generator:
RngStream keys one on (seed, stream id), and callers draw with the
Generator methods themselves.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import ComputeTimeModel

__all__ = [
    "Vec",
    "as_vec",
    "RngStream",
    "learning_rate",
    "sample_compute_time",
]

# A parameter vector is a 1-D float64 array whose length never changes.
Vec = np.ndarray


def as_vec(values) -> Vec:
    """Copy `values` into a 1-D float64 vector."""
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {v.shape}")
    return v


def RngStream(seed: int, stream: int = 0) -> np.random.Generator:
    """A named, reproducible random stream: a numpy Generator on the Philox
    counter-based bit generator keyed on (seed, stream id), so the same
    pair yields a bit-identical sample sequence on every run and platform.
    Each stream must be consumed by a single worker at a time; distinct
    stream ids never overlap. The seed and the stream id are each one
    64-bit key word, so each must lie in [0, 2**64). A function, not a
    type: what it returns is a plain Generator.
    """
    words = [int(seed), int(stream)]
    for name, word in zip(("seed", "stream id"), words):
        if not 0 <= word < 2**64:
            raise ValueError(f"RngStream {name} must be in [0, 2**64), got {word}")
    return np.random.Generator(np.random.Philox(key=np.array(words, dtype=np.uint64)))


# Fixed stream ids so every consumer of randomness is independent: training
# data, probe data, objective parameters (quadratic geometry, regression
# weights, blob centers), parameter init, and worker i on BASE + i.
STREAM_DATASET = 0
STREAM_PROBE = 1
STREAM_OBJECTIVE = 2
STREAM_INIT = 3
STREAM_WORKER_BASE = 10


def learning_rate(base_lr: float, warmup: int, decay: str, t: int) -> float:
    """Learning rate for update number t >= 1, with W = warmup:

    base_lr * min(t/W, sqrt(W/t))   (decay="inverse-sqrt")
    base_lr * min(t/W, 1)           (decay="none")

    and base_lr at every t when W = 0. This is the standard
    inverse-sqrt-with-warmup shape, a documented choice of this package.
    The config checks the schedule.* values this takes; base_lr is the
    run's rate before the schedule (see config.ExperimentConfig.lr).
    """
    # each branch takes the smaller of the two factors, so t/W is computed
    # only below 1, and a t far past the float range does not overflow it
    if t < warmup:
        return base_lr * (t / warmup)
    return base_lr * math.sqrt(warmup / t) if warmup and decay == "inverse-sqrt" else base_lr


def sample_compute_time(rng: np.random.Generator, model: ComputeTimeModel) -> float:
    """Draw one positive compute duration from `model` using `rng`: see
    config.ComputeTimeModel for the two kinds.

    The constant model returns exactly `mean` and consumes no randomness.
    """
    if model.std == 0.0:
        return model.mean
    floor = model.mean / 10.0
    while True:
        # what Generator.normal(mean, std) computes, in one standard draw
        x = model.mean + model.std * rng.standard_normal()
        if x > floor:
            return x
