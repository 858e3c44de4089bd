"""Summary statistics and the pass/fail ledger of one benchmark run.

Pure Python on purpose: the launcher imports this module before it has
measured the program's import time, so it must not import numpy.
"""

from __future__ import annotations

import math

# Percentiles a latency summary may report, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(n: int, p: float) -> int:
    # round() keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(len(ordered), p) - 1])


def beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """The highest reportable percentile for n samples: the highest one in
    PERCENTILES above the median with at least MIN_BEYOND samples beyond it,
    or None when even the lowest has fewer."""
    best = None
    for p in PERCENTILES[1:]:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class Reference:
    """Times a fixed reference loop around each timed sample.

    `measure` runs the loop and returns its seconds. Call `start` before a
    sequence of samples and `bracket` after each one: it runs the loop again
    and returns the mean of the two runs that enclose the sample. A sample
    divided by its bracket is in units of the reference loop, and a host
    that runs everything slower for a while slows both alike.
    """

    def __init__(self, measure):
        self.measure = measure
        self.times: list[float] = []
        self._last = 0.0

    def _run(self) -> float:
        self._last = self.measure()
        self.times.append(self._last)
        return self._last

    def start(self) -> None:
        self._run()

    def bracket(self) -> float:
        before = self._last
        return (before + self._run()) / 2.0


class Ledger:
    """Counts the operations and output checks a run attempted and how many
    failed; failed_ratio is their quotient."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self) -> None:
        """Count one operation that completed."""
        self.attempted += 1

    def fail(self, what: str) -> None:
        """Count one attempted operation or check that failed."""
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if ok:
            self.attempted += 1
        else:
            self.fail(what)
        return ok

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
