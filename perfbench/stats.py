"""Order statistics and digests shared by the benchmark's workloads."""

from __future__ import annotations

import hashlib
import math

# a reported percentile must leave at least this many samples above it, or a
# single slow case would decide the figure
MIN_BEYOND = 10


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose nearest-rank ``q`` quantile has ``beyond`` samples above it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q!r}")
    n = beyond
    while n - math.ceil(q * n) < beyond:
        n += 1
    return n


def percentile(samples, q: float, beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q`` quantile of ``samples``.

    Raises ``ValueError`` when fewer than ``beyond`` samples lie above the
    reported rank, so that no percentile is read off its last few samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < min_samples(q, beyond):
        raise ValueError(
            f"{n} samples leave fewer than {beyond} beyond the {q:g} quantile; "
            f"need at least {min_samples(q, beyond)}"
        )
    return ordered[math.ceil(q * n) - 1]


def median(samples) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def digest(records) -> str:
    """SHA-256 over the ``repr`` of each record; floats keep every digit."""
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()
