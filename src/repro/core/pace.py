"""Pace steering (Sec. 2.3): flow control over device check-in times.

Two regimes, both *stateless* on the server side (no per-device state, no
extra communication):

* **Small populations** — rejected devices are steered to reconnect inside
  a common window aligned to the next round boundary, so that "subsequent
  checkins are likely to arrive contemporaneously" and rounds (and Secure
  Aggregation cohorts) can actually form.
* **Large populations** — reconnect times are randomized over a horizon
  sized so the *aggregate* check-in rate matches what scheduled tasks
  need, avoiding the thundering herd while keeping devices connecting "as
  frequently as needed ... but not more".

Both regimes are damped by the diurnal model: during peak-availability
hours the suggested windows stretch, shaving excess load without starving
off-peak rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bounds import check, count, non_negative, positive
from repro.sim.diurnal import DiurnalModel


@dataclass(frozen=True)
class PaceConfig:
    """Knobs for :class:`PaceSteering`."""

    round_period_s: float = positive(default=300.0)  # target round cadence, small pops
    small_population_threshold: int = count(0, default=5000)
    #: spread inside a sync window
    sync_window_width_s: float = non_negative(default=30.0)
    min_reconnect_delay_s: float = positive(default=60.0)
    max_reconnect_delay_s: float = positive(default=6 * 3600.0)
    diurnal_damping: bool = True

    def __post_init__(self) -> None:
        check(self)
        if not self.max_reconnect_delay_s > self.min_reconnect_delay_s:
            raise ValueError("max_reconnect_delay_s must exceed the minimum")


@dataclass(frozen=True)
class ReconnectWindow:
    """The server's suggestion: reconnect within ``[earliest, latest]``."""

    earliest_s: float
    latest_s: float

    def __post_init__(self) -> None:
        if self.latest_s < self.earliest_s:
            raise ValueError("window end precedes start")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.earliest_s, self.latest_s))

    @property
    def width_s(self) -> float:
        return self.latest_s - self.earliest_s


class PaceSteering:
    """Stateless reconnect-window suggestion (Sec. 2.3)."""

    def __init__(
        self,
        config: PaceConfig | None = None,
        diurnal: DiurnalModel | None = None,
    ):
        self.config = config or PaceConfig()
        self.diurnal = diurnal or DiurnalModel()

    # -- internals -----------------------------------------------------------
    def _damping(self, now_s: float) -> float:
        """>1 during availability peaks (stretch windows), <1 off-peak."""
        if not self.config.diurnal_damping:
            return 1.0
        return self.diurnal.modulation(now_s)

    def _sync_window(self, now_s: float) -> ReconnectWindow:
        """Next round-boundary-aligned window (small-population regime)."""
        cfg = self.config
        not_before = now_s + cfg.min_reconnect_delay_s
        boundary = math.ceil(not_before / cfg.round_period_s) * cfg.round_period_s
        return ReconnectWindow(boundary, boundary + cfg.sync_window_width_s)

    def _spread_window(
        self, now_s: float, population_size: int, needed_per_round: int
    ) -> ReconnectWindow:
        """Randomized horizon sized to the demand ratio (large-population)."""
        cfg = self.config
        demand = max(1, needed_per_round)
        # If every device reconnected once per `horizon`, arrivals per round
        # period would be population * period / horizon; solve for horizon
        # that delivers ~4x the demand (headroom for ineligible devices).
        horizon = population_size * cfg.round_period_s / (4.0 * demand)
        horizon *= self._damping(now_s)
        horizon = min(max(horizon, cfg.min_reconnect_delay_s * 2), cfg.max_reconnect_delay_s)
        earliest = now_s + cfg.min_reconnect_delay_s
        return ReconnectWindow(earliest, earliest + horizon)

    # -- public API ------------------------------------------------------------
    def suggest_reconnect(
        self,
        now_s: float,
        population_size: int,
        needed_per_round: int,
    ) -> ReconnectWindow:
        """Suggest when a rejected (or completed) device should return.

        The device "attempts to respect this, modulo its eligibility".
        """
        if population_size <= self.config.small_population_threshold:
            return self._sync_window(now_s)
        return self._spread_window(now_s, population_size, needed_per_round)


def checkin_dispersion(checkin_times: np.ndarray, period_s: float) -> float:
    """Circular dispersion of check-in times within a round period.

    0 = all devices land at the same phase (perfect sync);
    1 = uniform spread.  Used by the pace-steering ablation benchmark to
    quantify both regimes: small populations want *low* dispersion
    (contemporaneous arrival), large ones want *high* (no herd).
    """
    times = np.asarray(checkin_times, dtype=np.float64)
    if times.size == 0:
        return 1.0
    phases = 2.0 * np.pi * (times % period_s) / period_s
    resultant = np.hypot(np.cos(phases).mean(), np.sin(phases).mean())
    return float(1.0 - resultant)
