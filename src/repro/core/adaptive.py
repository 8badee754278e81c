"""Dynamic protocol-window tuning (Sec. 11 "Convergence Time").

"the time windows to select devices for training and wait for their
reporting is currently configured statically per FL population.  It
should be dynamically adjusted to reduce the drop out rate and increase
round frequency."

:class:`AdaptiveWindowTuner` implements that future-work item: it watches
completed rounds and retargets the reporting window to a quantile of the
observed completer reporting times (plus headroom), bounded to a safe
band.  Shorter windows raise round frequency; the quantile target keeps
enough devices reporting in time that the drop-out/abort balance holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analytics.quantile import P2Quantile
from repro.bounds import check, count, interval, positive
from repro.core.config import RoundConfig
from repro.core.rounds import DeviceOutcome, RoundResult


@dataclass(frozen=True)
class AdaptiveWindowConfig:
    """Controller targets and safety bounds."""

    #: Quantile of completer participation times the window should cover.
    target_quantile: float = interval("(0.5, 1)", default=0.95)
    #: Multiplicative headroom over the quantile estimate.
    headroom: float = interval("[1, inf)", default=1.25)
    #: Bounds on the reporting window the controller may set.
    min_reporting_s: float = positive(default=60.0)
    max_reporting_s: float = positive(default=1800.0)
    #: Rounds observed before the controller starts adjusting.
    warmup_rounds: int = count(1, default=5)
    #: Exponential smoothing of successive window targets.
    smoothing: float = interval("(0, 1]", default=0.5)

    def __post_init__(self) -> None:
        check(self)
        if not self.max_reporting_s > self.min_reporting_s:
            raise ValueError("max_reporting_s must exceed min_reporting_s")


class AdaptiveWindowTuner:
    """Online controller over a task's :class:`RoundConfig`.

    Feed it every finished round via :meth:`observe`; read the current
    recommendation from :meth:`tuned_config`.
    """

    def __init__(
        self,
        base_config: RoundConfig,
        config: AdaptiveWindowConfig | None = None,
    ):
        self.base = base_config
        self.config = config or AdaptiveWindowConfig()
        self._sketch = P2Quantile(self.config.target_quantile)
        self._rounds_seen = 0
        self._current_reporting_s = base_config.reporting_timeout_s
        self.adjustments = 0

    @property
    def reporting_timeout_s(self) -> float:
        return self._current_reporting_s

    def observe(self, result: RoundResult) -> None:
        """Account one finished round's completer timings."""
        self._rounds_seen += 1
        for record in result.participant_records:
            if (
                record.outcome is DeviceOutcome.COMPLETED
                and record.participation_time_s is not None
            ):
                self._sketch.update(record.participation_time_s)
        if (
            self._rounds_seen >= self.config.warmup_rounds
            and self._sketch.count >= 5
        ):
            self._retarget()

    def _retarget(self) -> None:
        cfg = self.config
        target = self._sketch.value() * cfg.headroom
        target = min(max(target, cfg.min_reporting_s), cfg.max_reporting_s)
        smoothed = (
            (1.0 - cfg.smoothing) * self._current_reporting_s
            + cfg.smoothing * target
        )
        if abs(smoothed - self._current_reporting_s) > 1.0:
            self.adjustments += 1
        self._current_reporting_s = smoothed

    def tuned_config(self) -> RoundConfig:
        """The base round config with the adapted reporting window."""
        return replace(
            self.base, reporting_timeout_s=float(self._current_reporting_s)
        )
