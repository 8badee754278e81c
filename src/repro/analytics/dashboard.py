"""Time-series dashboards (Sec. 5).

Log entries "are aggregated and presented in dashboards to be analyzed,
and fed into automatic time-series monitors that trigger alerts on
substantial deviations."  :class:`Dashboard` is the aggregation layer:
named, bucketed time series that the figure benchmarks read back (no
monitor is attached to a fleet yet).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TimeSeries:
    """A named sequence of (time, value) samples with bucketed reduction."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time_s: float, value: float) -> None:
        if self.times and time_s < self.times[-1]:
            raise ValueError(
                f"series {self.name!r}: non-monotonic sample at t={time_s}"
            )
        self.times.append(float(time_s))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.values)

    def bucketed(
        self, bucket_s: float, reducer: str = "mean"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reduce samples into fixed-width time buckets.

        ``reducer`` is one of mean / sum / max / count.
        """
        if not self.times:
            return np.zeros(0), np.zeros(0)
        times, values = self.as_arrays()
        buckets = np.floor(times / bucket_s).astype(np.int64)
        out_t, out_v = [], []
        for b in np.unique(buckets):
            sel = values[buckets == b]
            if reducer == "mean":
                v = sel.mean()
            elif reducer == "sum":
                v = sel.sum()
            elif reducer == "max":
                v = sel.max()
            elif reducer == "count":
                v = float(sel.size)
            else:
                raise ValueError(f"unknown reducer {reducer!r}")
            out_t.append((b + 0.5) * bucket_s)
            out_v.append(float(v))
        return np.asarray(out_t), np.asarray(out_v)


class Dashboard:
    """Registry of named time series and counters."""

    def __init__(self) -> None:
        self._series: dict[str, TimeSeries] = {}
        self._counters: dict[str, float] = defaultdict(float)

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def record(self, name: str, time_s: float, value: float) -> None:
        self.series(name).record(time_s, value)

    def increment(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] += amount

    def counter(self, name: str) -> float:
        return self._counters[name]

    def series_names(self) -> list[str]:
        return sorted(self._series)

    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    def scoped(self, prefix: str) -> "ScopedDashboard":
        """A recording view that namespaces every metric under ``prefix``.

        Multi-population fleets give each population its own scope
        (``pop/<name>/...``) over the one shared dashboard, so operators
        can monitor tenants independently (Sec. 5)."""
        return ScopedDashboard(self, prefix)


class ScopedDashboard:
    """Prefix-namespaced recorder over a shared :class:`Dashboard`."""

    def __init__(self, dashboard: Dashboard, prefix: str):
        self._dashboard = dashboard
        self.prefix = prefix.rstrip("/")

    def _name(self, name: str) -> str:
        return f"{self.prefix}/{name}"

    def record(self, name: str, time_s: float, value: float) -> None:
        self._dashboard.record(self._name(name), time_s, value)

    def increment(self, name: str, amount: float = 1.0) -> None:
        self._dashboard.increment(self._name(name), amount)

    def series(self, name: str) -> TimeSeries:
        return self._dashboard.series(self._name(name))

    def counter(self, name: str) -> float:
        return self._dashboard.counter(self._name(name))
