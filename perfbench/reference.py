"""Reference kernel: a fixed piece of Python and NumPy work whose time
stands for the host's speed at the moment it runs.

The benchmark runs the kernel right after every measured run and right
after every set-up probe, and reports the run's time over the kernel's
time, scaled by KERNEL_S back to seconds. The shared host's speed drifts
by up to 2x over minutes; run and kernel slow down together, so their
ratio stays put while either time alone does not. The kernel uses no
stalesim code, so a change to stalesim moves only the run's side of the
ratio. Its three parts mimic the work the workloads do: an event heap and
Adam-style updates on a short vector, a small MLP forward and backward
pass, and Python rows stacked into an array.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

# Seconds the kernel took on the 2-CPU host where the benchmark was
# written (about the fastest of 200 runs); turns a run/kernel ratio into
# seconds. Changing it rescales every reported time.
KERNEL_S = 0.05

_X = np.linspace(-1.0, 1.0, 128 * 4).reshape(128, 4)
_Y = np.arange(128) % 3
_ROWS = np.arange(128)


def kernel() -> float:
    """Do the kernel's work once; return a checksum of it."""
    x, m, v = np.zeros(20), np.zeros(20), np.zeros(20)
    heap: list[tuple[float, int]] = []
    for i in range(2000):
        g = x - 1.0 + (i % 3) * 0.01
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 0.01 * m / (np.sqrt(v) + 1e-8)
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i))
        if len(heap) > 16:
            heapq.heappop(heap)

    w1, w2 = np.full((4, 8), 0.1), np.full((8, 3), 0.1)
    for i in range(800):
        n = 32 if i % 4 else 128
        xb, yb = _X[:n], _Y[:n]
        h = np.tanh(xb @ w1)
        z = h @ w2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[_ROWS[:n], yb] -= 1.0
        w2 -= 0.01 * (h.T @ p)
        w1 -= 0.01 * (xb.T @ ((p @ w2.T) * (1.0 - h * h)))

    rows = [[float((i * 31 + j * 7) % 97) for j in range(20)] for i in range(2048)]
    return float(x.sum() + w1.sum() + w2.sum() + np.array(rows).sum())


def timed_kernel() -> float:
    """Host seconds one run of the kernel takes. The cyclic garbage
    collector is off meanwhile, so the kernel's time does not depend on
    how many objects the run before it left alive."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()
