"""Federated Analytics — the Sec. 11 "Federated Computation" extension.

"We aim to generalize our system from Federated Learning to Federated
Computation ... One application area we are seeing is in Federated
Analytics, which would allow us to monitor aggregate device statistics
without logging raw device data to the cloud."

The observation that makes this nearly free: the entire infrastructure
only ever consumes *sums* of per-device vectors.  Any statistic that is a
function of sums — counts, histograms, means, quantile sketches over
bucketed values — can therefore ride the existing round protocol, and
(because they are sums) under Secure Aggregation too.

This module provides the device-side statistic encoders and the
server-side decoders, plus a one-call driver over in-memory clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.secagg.grouped import shamir_threshold
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import DropoutSchedule, run_secure_aggregation


@dataclass(frozen=True)
class HistogramSpec:
    """A fixed-bucket histogram over a scalar device statistic."""

    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 2:
            raise ValueError("need at least two bucket edges")
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be sorted")

    @property
    def num_buckets(self) -> int:
        return len(self.edges) - 1

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Device side: bucket local values into a count vector."""
        counts, _ = np.histogram(np.asarray(values, dtype=float), bins=self.edges)
        return counts.astype(np.float64)


@dataclass
class FederatedStatistic:
    """One analytics quantity: how devices encode it, length of the vector.

    ``encode(device_values) -> contribution vector``; the server only ever
    sees (and needs) the element-wise SUM of contributions.
    """

    name: str
    length: int
    encode: Callable[[np.ndarray], np.ndarray]


def count_statistic(name: str = "count") -> FederatedStatistic:
    """Number of contributing devices (always 1 per device)."""
    return FederatedStatistic(name, 1, lambda values: np.ones(1))


def sum_and_count_statistic(name: str = "mean") -> FederatedStatistic:
    """Encodes (Σ values, #values): the server recovers the fleet mean."""

    def encode(values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        return np.array([values.sum(), float(values.size)])

    return FederatedStatistic(name, 2, encode)


def histogram_statistic(
    spec: HistogramSpec, name: str = "histogram"
) -> FederatedStatistic:
    return FederatedStatistic(name, spec.num_buckets, spec.encode)


@dataclass
class AnalyticsResult:
    """Decoded fleet-level aggregates, never per-device values."""

    totals: dict[str, np.ndarray]
    num_reports: int

    def mean(self, name: str) -> float:
        """Decode a :func:`sum_and_count_statistic` total."""
        total = self.totals[name]
        if total.shape != (2,):
            raise ValueError(f"{name!r} is not a sum-and-count statistic")
        if total[1] == 0:
            raise ZeroDivisionError("no contributing values")
        return float(total[0] / total[1])


def run_federated_analytics(
    device_values: dict[int, np.ndarray],
    statistics: Sequence[FederatedStatistic],
    rng: np.random.Generator,
    secure: bool = False,
    secagg_threshold_fraction: float = 0.66,
    dropouts: DropoutSchedule | None = None,
) -> AnalyticsResult:
    """Aggregate the statistics across devices, optionally under SecAgg.

    ``device_values[uid]`` is the device's raw local values (which never
    leave it); only the encoded contribution vectors are summed.
    """
    if not device_values:
        raise ValueError("no devices")
    if not statistics:
        raise ValueError("no statistics requested")
    names = [s.name for s in statistics]
    if len(set(names)) != len(names):
        raise ValueError("statistic names must be unique")

    contributions = {
        uid: np.concatenate([s.encode(values) for s in statistics])
        for uid, values in device_values.items()
    }
    if secure:
        dim_max = max(float(np.abs(v).max()) for v in contributions.values())
        quantizer = VectorQuantizer(
            modulus_bits=32,
            clip_range=max(dim_max, 1.0),
            max_summands=len(contributions),
        )
        threshold = shamir_threshold(len(contributions), secagg_threshold_fraction)
        total, _ = run_secure_aggregation(
            contributions,
            threshold=threshold,
            quantizer=quantizer,
            rng=rng,
            dropouts=dropouts or DropoutSchedule.none(),
        )
        reports = len(contributions) - len(
            (dropouts.after_advertise | dropouts.after_share)
            if dropouts
            else set()
        )
    else:
        total = np.zeros(sum(s.length for s in statistics))
        for vec in contributions.values():
            total += vec
        reports = len(contributions)

    totals: dict[str, np.ndarray] = {}
    offset = 0
    for statistic in statistics:
        totals[statistic.name] = total[offset : offset + statistic.length].copy()
        offset += statistic.length
    return AnalyticsResult(totals=totals, num_reports=reports)
