"""Shared numeric primitives: dense vectors, seeded RNG streams and the
stream ids a run draws from, the learning-rate formula, and compute-time
models.

Parameter vectors are plain 1-D float64 numpy arrays, not wrapped in a class:
as_vec makes one, and all_finite, one dot product with a zero vector, is the
finiteness check a run makes on every update. An RngStream is likewise a
plain numpy Generator; only its constructor, which keys it on (seed, stream
id), is ours, so callers draw with the Generator methods themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Vec",
    "as_vec",
    "all_finite",
    "RngStream",
    "learning_rate",
    "ComputeTimeModel",
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


def all_finite(x: Vec, zero: Vec) -> bool:
    """Whether x holds no inf or nan, given zeros of its length: x.zero is
    nan exactly then, as 0*inf and 0*nan are nan and 0*finite is 0. Call it
    under np.errstate(invalid="ignore"): 0*inf sets numpy's invalid flag."""
    return not math.isnan(x.dot(zero))


class RngStream(np.random.Generator):
    """A named, reproducible random stream: a numpy Generator on the Philox
    counter-based bit generator keyed on (seed, stream id), so the same
    pair yields a bit-identical sample sequence on every run and platform.
    Each stream must be consumed by a single worker at a time; distinct
    stream ids never overlap.
    """

    def __init__(self, seed: int, stream: int = 0):
        mask = 0xFFFFFFFFFFFFFFFF
        key = np.array([int(seed) & mask, int(stream) & mask], dtype=np.uint64)
        super().__init__(np.random.Philox(key=key))


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
    run's rate before the schedule (see simulator._Run).
    """
    if warmup == 0:
        return base_lr
    if decay == "inverse-sqrt":
        factor = min(t / warmup, math.sqrt(warmup / t))
    else:
        factor = min(t / warmup, 1.0)
    return base_lr * factor


@dataclass(frozen=True)
class ComputeTimeModel:
    """Distribution of per-batch compute durations, in seconds per cost unit,
    e.g. ComputeTimeModel("normal", 1.0, 0.2).

    kind="constant": always `mean`. kind="normal": normal(mean, std)
    truncated below at mean/10 by rejection so durations stay positive.
    """

    kind: str
    mean: float
    std: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "normal"):
            raise ValueError(f"compute.kind must be constant or normal, got {self.kind!r}")
        if self.mean <= 0:
            raise ValueError("compute.mean must be > 0")
        if self.std < 0:
            raise ValueError("compute.std must be >= 0")


def sample_compute_time(rng: RngStream, model: ComputeTimeModel) -> float:
    """Draw one positive compute duration from `model` using `rng`.

    The constant model returns exactly `mean` and consumes no randomness.
    """
    if model.kind == "constant" or model.std == 0.0:
        return model.mean
    floor = model.mean / 10.0
    while True:
        # what Generator.normal(mean, std) computes, in one standard draw
        x = model.mean + model.std * rng.standard_normal()
        if x > floor:
            return x
