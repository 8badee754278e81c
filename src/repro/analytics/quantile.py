"""Approximate order statistics and moments (Sec. 7.4).

"The metrics themselves are summaries of device reports within the round
via approximate order statistics and moments like mean."  We implement the
P² algorithm (Jain & Chlamtac, 1985): a constant-memory streaming quantile
estimator with five markers, plus Welford moments.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


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
        value = float(value)
        self._count += 1
        if self._count <= 5:
            self._initial.append(value)
            if self._count == 5:
                self._bootstrap()
            return
        self._insert(value)

    def _bootstrap(self) -> None:
        p = self.quantile
        # One list from here on: ``value`` reads ``_initial`` only until
        # the sixth sample, the first to move a marker.
        self._q = self._initial = sorted(self._initial)
        self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._np = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
        self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]

    def _insert(self, value: float) -> None:
        q, n, desired = self._q, self._n, self._np
        if value < q[0]:
            q[0] = value
            k = 0
        elif value >= q[4]:
            q[4] = value
            k = 3
        else:
            k = min(max(bisect_right(q, value) - 1, 0), 3)
        for j in range(k + 1, 5):
            n[j] += 1.0
        for j, step in enumerate(self._dn):
            desired[j] += step
        # Adjust interior markers with parabolic (or linear) interpolation.
        for i in (1, 2, 3):
            d = desired[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                sign = 1.0 if d >= 1 else -1.0
                candidate = self._parabolic(i, sign)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, sign)
                n[i] += sign

    def _parabolic(self, i: int, sign: float) -> float:
        q, n = self._q, self._n
        return q[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, sign: float) -> float:
        q, n = self._q, self._n
        j = i + int(sign)
        return q[i] + sign * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> float:
        if self._count == 0:
            raise ValueError("no samples observed")
        if self._count <= 5:
            data = sorted(self._initial)
            idx = min(int(self.quantile * len(data)), len(data) - 1)
            return data[idx]
        return self._q[2]


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
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


@dataclass
class MetricSummary:
    """The paper's per-round metric summary: moments + order statistics."""

    moments: StreamingMoments
    p25: P2Quantile
    p50: P2Quantile
    p75: P2Quantile
    p95: P2Quantile

    @classmethod
    def empty(cls) -> "MetricSummary":
        return cls(
            moments=StreamingMoments(),
            p25=P2Quantile(0.25),
            p50=P2Quantile(0.50),
            p75=P2Quantile(0.75),
            p95=P2Quantile(0.95),
        )

    def update(self, value: float) -> None:
        self.moments.update(value)
        for sketch in (self.p25, self.p50, self.p75, self.p95):
            sketch.update(value)

    def to_dict(self) -> dict[str, float]:
        if self.moments.count == 0:
            return {"count": 0}
        return {
            "count": self.moments.count,
            "mean": self.moments.mean,
            "std": self.moments.std,
            "min": self.moments.min,
            "max": self.moments.max,
            "p25": self.p25.value(),
            "p50": self.p50.value(),
            "p75": self.p75.value(),
            "p95": self.p95.value(),
        }
