"""Arithmetic the benchmark reports with: percentiles, span self time, failure tally."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered) / 100.0)
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n sorted samples come after the nearest-rank q-th percentile."""
    return n - math.ceil(q * n / 100.0)


def samples_needed(q: float) -> int:
    """Fewest samples for which the q-th percentile has MIN_BEYOND samples above it."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def reportable_percentile(samples, q: float) -> float:
    """The q-th percentile, refusing one with fewer than MIN_BEYOND samples above it."""
    if samples_beyond(len(samples), q) < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {len(samples)} samples has fewer than {MIN_BEYOND} beyond it")
    return percentile(samples, q)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    parent[i] is the index of span i's parent, or -1 for a root. Spans recorded
    on one thread nest, so the children of a span are disjoint and their
    coverage is the sum of their durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails if it raises or
    fails its correctness check."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
