"""Approximate order statistics and moments (Sec. 7.4).

"The metrics themselves are summaries of device reports within the round
via approximate order statistics and moments like mean."  We implement the
P² algorithm (Jain & Chlamtac, 1985): a constant-memory streaming quantile
estimator with five markers, plus Welford moments.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass


class P2Quantile:
    """Single-quantile streaming estimator using the P² algorithm.  The
    five markers are lists of Python floats: an update is a handful of
    scalar operations, which numpy would mostly spend on dispatch.  (A
    closing round builds four sketches per metric to summarize it: slots.)"""

    __slots__ = ("quantile", "_initial", "_q", "_n", "_np", "_dn", "_count")

    def __init__(self, quantile: float):
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0,1), got {quantile}")
        self.quantile = quantile
        self._initial: list[float] = []
        # marker heights q, positions n, desired positions np, increments
        # dn: set when the fifth sample arrives
        self._q = self._n = self._np = self._dn = None
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def update(self, value: float) -> None:
        self._count += 1
        self._add(float(value))

    def _add(self, value: float) -> None:
        """Take the ``_count``-th value (the count is already advanced)."""
        if self._count > 5:
            return _insert(self._q, self._n, self._np, self._dn, value)
        self._initial.append(value)
        if self._count == 5:
            p = self.quantile
            # One list from here on: ``value`` reads ``_initial`` only until
            # the sixth sample, the first to move a marker.
            self._q = self._initial = sorted(self._initial)
            self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
            self._np = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
            self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]

    def value(self) -> float:
        if self._count == 0:
            raise ValueError("no samples observed")
        if self._count <= 5:
            data = sorted(self._initial)
            return data[min(int(self.quantile * len(data)), len(data) - 1)]
        return self._q[2]


def _insert(q: list, n: list, desired: list, dn: list, value: float) -> None:
    """One P² step past the fifth sample: heights ``q``, positions ``n``,
    desired positions ``desired`` moving by ``dn`` (first step 0, last 1)."""
    k = bisect_right(q, value, 1, 4)  # positions k..4 move up one
    if value < q[0]:
        q[0] = value
    elif value >= q[4]:
        q[4] = value
    for j in range(k, 5):
        n[j] += 1.0
    desired[1] += dn[1]
    desired[2] += dn[2]
    desired[3] += dn[3]
    desired[4] += 1.0
    # Adjust interior markers with parabolic (or linear) interpolation.
    for i in (1, 2, 3):
        d = desired[i] - n[i]
        if d >= 1 and n[i + 1] - n[i] > 1:
            sign = 1.0
        elif d <= -1 and n[i - 1] - n[i] < -1:
            sign = -1.0
        else:
            continue
        lo, mid, hi = q[i - 1], q[i], q[i + 1]
        n_lo, n_mid, n_hi = n[i - 1], n[i], n[i + 1]
        candidate = mid + sign / (n_hi - n_lo) * (
            (n_mid - n_lo + sign) * (hi - mid) / (n_hi - n_mid)
            + (n_hi - n_mid - sign) * (mid - lo) / (n_mid - n_lo)
        )
        if lo < candidate < hi:
            q[i] = candidate
        else:
            j = i + int(sign)
            q[i] = mid + sign * (q[j] - mid) / (n[j] - n_mid)
        n[i] = n_mid + sign


class StreamingMoments:
    """Welford mean/variance plus min/max."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def update(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no samples observed")
        return self._mean

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass
class MetricSummary:
    """The paper's per-round metric summary: moments + order statistics.
    A non-finite value is left out of every statistic and counted under
    ``non_finite`` (a key ``to_dict`` has only when some were seen)."""

    moments: StreamingMoments
    p25: P2Quantile
    p50: P2Quantile
    p75: P2Quantile
    p95: P2Quantile
    non_finite: int = 0

    @classmethod
    def empty(cls) -> "MetricSummary":
        return cls(StreamingMoments(), *map(P2Quantile, (0.25, 0.5, 0.75, 0.95)))

    def update(self, value: float) -> None:
        """Feed one value to the moments and the four sketches in one pass."""
        value = float(value)
        if not math.isfinite(value):
            self.non_finite += 1
            return
        self.moments.update(value)
        count = self.moments.count
        for sketch in (self.p25, self.p50, self.p75, self.p95):
            sketch._count = count
            sketch._add(value)

    def to_dict(self) -> dict[str, float]:
        moments = self.moments
        stats: dict[str, float] = {"count": moments.count}
        if moments.count:
            stats.update(mean=moments.mean, std=moments.std, min=moments.min, max=moments.max)
            stats.update(p25=self.p25.value(), p50=self.p50.value(), p75=self.p75.value())
            stats["p95"] = self.p95.value()
        if self.non_finite:
            stats["non_finite"] = self.non_finite
        return stats
