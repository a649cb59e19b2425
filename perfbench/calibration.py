"""Fixed reference work that measures how fast the shared host runs right now.

The benchmark host is shared, and its speed drifts by up to 1.5x over
periods of several seconds.  Between blocks of cases the benchmark times this
kernel, which runs no rectmvt code, and scales its timings to a host running
the kernel in ``NOMINAL_S``.  The kernel mixes the kinds of work the program
does: interpreter loops, small-object arithmetic, and numpy calls on small
and on large arrays.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# seconds the kernel takes on an unloaded host (2-core x86-64 VM, Python 3.11,
# numpy 2.4); a unit of the scaled figures, not a tuned value
NOMINAL_S = 0.010

_SMALL = np.linspace(0.0, 1.0, 33 * 33).reshape(33, 33)
_LARGE = np.linspace(0.0, 1.0, 257 * 257).reshape(257, 257)


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v: float, d: float):
        self.v = v
        self.d = d

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v + other.v, self.d + other.d)
        return _Dual(self.v + other, self.d)

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v * other.v, self.v * other.d + self.d * other.v)
        return _Dual(self.v * other, self.d * other)


def kernel() -> float:
    """Seconds one pass of the reference work took."""
    t0 = perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    for i in range(750):
        x = _Dual(0.5 + i * 1e-4, 1.0)
        x * x * x + x * 2.0 + x * x * 3.0 + 1.0
    for _ in range(150):
        _SMALL * _SMALL + 2.0 * _SMALL - np.sin(_SMALL)
    for _ in range(4):
        _LARGE * _LARGE + 2.0 * _LARGE - np.sin(_LARGE)
    return perf_counter() - t0


def slowdown(samples) -> float:
    """How much slower than nominal the host ran over ``samples`` kernel times."""
    return sum(samples) / len(samples) / NOMINAL_S
