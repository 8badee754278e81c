"""Network model: transfer times, failures, and traffic accounting.

Replaces the paper's gRPC-over-cellular/WiFi transport.  Devices have
heterogeneous log-normal bandwidths and a small per-transfer failure
probability; the server side records every byte moved so that Fig. 9
(download-dominated traffic) can be regenerated from first principles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.bounds import check, non_negative, positive, probability


class TransferDirection(enum.Enum):
    DOWNLOAD = "download"  # server -> device (plan + global model)
    UPLOAD = "upload"      # device -> server (model update + metrics)


@dataclass(slots=True)
class NetworkConditions:
    """Per-device link characteristics, sampled once per device.  A
    fleet keeps them as idle-plane columns; only a constructed device
    holds one of these."""

    downlink_bytes_per_s: float
    uplink_bytes_per_s: float
    rtt_s: float

    def transfer_time(self, num_bytes: int, direction: TransferDirection) -> float:
        rate = (
            self.downlink_bytes_per_s
            if direction is TransferDirection.DOWNLOAD
            else self.uplink_bytes_per_s
        )
        return self.rtt_s + num_bytes / rate


@dataclass
class TrafficMeter:
    """Aggregates transferred bytes, bucketed by direction."""

    downloaded_bytes: int = 0
    uploaded_bytes: int = 0
    download_count: int = 0
    upload_count: int = 0
    failed_transfers: int = 0
    #: Bytes re-sent by bounded-retry recovery (the upload-retry path):
    #: the payload volume whose transfer was attempted again after a
    #: transient failure.  Disjoint from the per-attempt metering above.
    retried_bytes: int = 0
    retry_count: int = 0

    def record(self, num_bytes: int, direction: TransferDirection) -> None:
        if direction is TransferDirection.DOWNLOAD:
            self.downloaded_bytes += int(num_bytes)
            self.download_count += 1
        else:
            self.uploaded_bytes += int(num_bytes)
            self.upload_count += 1

    def record_failure(self) -> None:
        self.failed_transfers += 1

    def record_retry(self, num_bytes: int) -> None:
        self.retried_bytes += int(num_bytes)
        self.retry_count += 1

    @property
    def download_upload_ratio(self) -> float:
        if self.uploaded_bytes == 0:
            return float("inf") if self.downloaded_bytes else 0.0
        return self.downloaded_bytes / self.uploaded_bytes


@dataclass
class NetworkModel:
    """Fleet-level network parameters and samplers.

    Bandwidths are log-normal: a long tail of slow links is what produces
    stragglers, which the protocol must discard (Sec. 2.2).
    """

    median_downlink_bytes_per_s: float = positive(default=2.5e6)  # ~20 Mbit/s WiFi
    median_uplink_bytes_per_s: float = positive(default=6.0e5)  # ~5 Mbit/s
    bandwidth_sigma: float = non_negative(default=0.7)  # log-normal shape
    median_rtt_s: float = positive(default=0.08)
    rtt_sigma: float = non_negative(default=0.4)
    transfer_failure_prob: float = probability(default=0.01)
    meter: TrafficMeter = field(default_factory=TrafficMeter)

    #: A transfer must take a finite, positive time.
    __post_init__ = check

    def sample_conditions_batch(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``n`` devices' link conditions in three vectorized draws:
        the ``(downlink, uplink, rtt)`` arrays, one value per device.

        Each log-normal field is one ``size=n`` draw, in that order, so
        :meth:`sample_conditions` (which builds its record from
        ``sample_conditions_batch(1, rng)``) consumes the stream exactly
        like a batch of one.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        down = self.median_downlink_bytes_per_s * np.exp(
            rng.normal(0.0, self.bandwidth_sigma, size=n)
        )
        up = self.median_uplink_bytes_per_s * np.exp(
            rng.normal(0.0, self.bandwidth_sigma, size=n)
        )
        rtt = self.median_rtt_s * np.exp(rng.normal(0.0, self.rtt_sigma, size=n))
        return down, up, rtt

    def sample_conditions(self, rng: np.random.Generator) -> NetworkConditions:
        """One device's link conditions (delegates to the batch sampler,
        so scalar and batch paths stay stream-compatible)."""
        down, up, rtt = self.sample_conditions_batch(1, rng)
        return NetworkConditions(float(down[0]), float(up[0]), float(rtt[0]))

    def transfer_fails(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.transfer_failure_prob)

    def transfer(
        self,
        conditions: NetworkConditions,
        num_bytes: int,
        direction: TransferDirection,
        rng: np.random.Generator,
    ) -> tuple[float, bool]:
        """Simulate one transfer: returns ``(duration_s, succeeded)``.

        Failed transfers still burn time (half the nominal duration on
        average) and are counted in the meter; successful ones are metered
        in full.
        """
        duration = conditions.transfer_time(num_bytes, direction)
        if self.transfer_fails(rng):
            self.meter.record_failure()
            return duration * float(rng.uniform(0.1, 0.9)), False
        self.meter.record(num_bytes, direction)
        return duration, True
