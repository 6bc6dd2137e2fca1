"""Order statistics and failure accounting for the benchmark."""

from __future__ import annotations

import math
import traceback


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. Always returns one of the samples."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values) -> float:
    """Middle sample, or the mean of the two middle samples."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(math.ceil(p / 100.0 * n), 1)


class Tally:
    """Counts operations and output checks; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, fn, *args, **kwargs):
        """Run one operation. Returns (ok, result); an exception counts as a failure."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.failures.append("operation raised:\n" + traceback.format_exc())
            return False, None

    def check(self, name: str, fn) -> bool:
        """Run one output check; fn returns True when the output is right.
        A False result or an exception counts as a failed check."""
        self.attempted += 1
        try:
            ok = bool(fn())
            detail = ""
        except Exception:
            ok = False
            detail = ":\n" + traceback.format_exc()
        if not ok:
            self.failed += 1
            self.failures.append(name + detail)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
