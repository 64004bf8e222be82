"""Shared numeric primitives: dense vectors, seeded RNG streams, learning-rate
schedules, and compute-time models.

Parameter vectors are plain 1-D float64 numpy arrays. Helpers in this module
enforce the invariants the rest of the package relies on (matching dimensions,
finiteness as a detectable error state) instead of wrapping arrays in a class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Vec",
    "as_vec",
    "vec_is_finite",
    "RngStream",
    "LrSchedule",
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


def vec_is_finite(x: Vec) -> bool:
    return bool(np.all(np.isfinite(x)))


class RngStream:
    """A named, reproducible random stream.

    Backed by numpy's Philox counter-based generator keyed on
    (seed, stream id), so the same pair yields a bit-identical sample
    sequence on every run and platform. Each stream must be consumed by a
    single worker at a time; distinct stream ids never overlap.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        """Integers drawn uniformly from [low, high] inclusive."""
        return self._gen.integers(low, high, size, endpoint=True)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True)
class LrSchedule:
    """Learning-rate schedule: linear warmup, optional inverse-sqrt decay.

    lr_at(t) = base_lr * min(t/W, sqrt(W/t))   (decay="inverse-sqrt")
    lr_at(t) = base_lr * min(t/W, 1)           (decay="none")

    W = warmup_updates; W = 0 disables the warmup/decay factor entirely
    (factor 1 at every step). The interpolation above is the standard
    inverse-sqrt-with-warmup shape; the exact formula is a documented
    choice of this package, not an external constraint.

    batch_scale_factor > 0 lets scaled_for_batch() raise the base rate in
    proportion to an effective-batch multiplier; 0 disables that scaling.
    """

    base_lr: float
    warmup_updates: int = 0
    decay: str = "inverse-sqrt"
    batch_scale_factor: float = 0.0

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be > 0")
        if self.warmup_updates < 0:
            raise ValueError("warmup_updates must be >= 0")
        if self.decay not in ("inverse-sqrt", "none"):
            raise ValueError(f"unknown decay mode {self.decay!r}")
        if self.batch_scale_factor < 0:
            raise ValueError("batch_scale_factor must be >= 0")

    def lr_at(self, t: int) -> float:
        """Learning rate for update number t (1-indexed)."""
        if t < 1:
            raise ValueError("update index t must be >= 1")
        w = self.warmup_updates
        if w == 0:
            return self.base_lr
        if self.decay == "inverse-sqrt":
            factor = min(t / w, np.sqrt(w / t))
        else:
            factor = min(t / w, 1.0)
        return self.base_lr * factor

    def scaled_for_batch(self, batch_multiplier: float) -> "LrSchedule":
        """Schedule with base_lr scaled for a larger effective batch.

        With batch_scale_factor = s > 0 the new base rate is
        base_lr * s * batch_multiplier; s = 0 returns self unchanged.
        """
        if self.batch_scale_factor == 0:
            return self
        if batch_multiplier <= 0:
            raise ValueError("batch_multiplier must be > 0")
        return replace(
            self, base_lr=self.base_lr * self.batch_scale_factor * batch_multiplier
        )


@dataclass(frozen=True)
class ComputeTimeModel:
    """Distribution of per-batch compute durations, in seconds per cost unit.

    kind="constant": always `mean`. kind="normal": normal(mean, std)
    truncated below at mean/10 by rejection so durations stay positive.
    """

    kind: str
    mean: float
    std: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "normal"):
            raise ValueError(f"unknown compute-time model {self.kind!r}")
        if self.mean <= 0:
            raise ValueError("compute-time mean must be > 0")
        if self.std < 0:
            raise ValueError("compute-time std must be >= 0")

    @classmethod
    def constant(cls, mean: float) -> "ComputeTimeModel":
        return cls("constant", mean)

    @classmethod
    def normal(cls, mean: float, std: float) -> "ComputeTimeModel":
        return cls("normal", mean, std)


def sample_compute_time(rng: RngStream, model: ComputeTimeModel) -> float:
    """Draw one positive compute duration from `model` using `rng`.

    The constant model returns exactly `mean` and consumes no randomness.
    """
    if model.kind == "constant" or model.std == 0.0:
        return model.mean
    floor = model.mean / 10.0
    for _ in range(1000):
        x = float(rng.normal(model.mean, model.std))
        if x > floor:
            return x
    return floor  # unreachable for any sane (mean, std); keeps types honest
