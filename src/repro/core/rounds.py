"""The round state machine (Sec. 2.2) — Selection / Configuration / Reporting.

This is a *pure* state machine: actors (or tests) feed it timestamped
events (check-ins, reports, drop-outs, timeouts) and it returns decisions
(accept/reject, commit/abandon).  Keeping it free of I/O lets us unit-test
every transition and reuse it unchanged inside the Master Aggregator actor.

Round life cycle::

    SELECTION ──(goal reached | timeout & ≥min)──▶ CONFIGURATION/REPORTING
        │                                              │
        └──(timeout & <min)──▶ ABANDONED               ├─(K reports)──▶ COMPLETED
                                                       ├─(timeout & ≥min)─▶ COMPLETED
                                                       └─(timeout & <min)─▶ ABANDONED

On completion with in-flight devices remaining, those devices are *aborted
by the server* — the behaviour behind Fig. 7's "aborted" series.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.config import RoundConfig


class RoundPhase(enum.Enum):
    SELECTION = "selection"
    REPORTING = "reporting"       # configuration + reporting (devices train)
    COMPLETED = "completed"
    ABANDONED = "abandoned"


class DeviceOutcome(enum.Enum):
    """Terminal state of one device's participation in one round."""

    COMPLETED = "completed"            # update aggregated        (-v[]+^)
    REPORT_REJECTED = "report_rejected"  # reported after close    (-v[]+#)
    DROPPED = "dropped"                # device-side failure       (-v[!)
    ABORTED_BY_SERVER = "aborted"      # enough devices finished first
    IN_FLIGHT = "in_flight"            # not terminal yet


class CheckinDecision(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"          # "come back later" + pace-steering window


class RoundAbandonedError(RuntimeError):
    """Raised when results are requested from an abandoned round."""


@dataclass
class ParticipantRecord:
    """Timeline of one selected device within the round."""

    device_id: int
    selected_at_s: float
    configured_at_s: float | None = None
    finished_at_s: float | None = None
    outcome: DeviceOutcome = DeviceOutcome.IN_FLIGHT
    drop_reason: str | None = None

    @property
    def participation_time_s(self) -> float | None:
        if self.finished_at_s is None:
            return None
        return self.finished_at_s - self.selected_at_s


@dataclass
class RoundResult:
    """Aggregate accounting for a finished round (feeds Figs. 5–8)."""

    round_id: int
    task_id: str
    committed: bool
    started_at_s: float
    selection_ended_at_s: float | None
    ended_at_s: float
    selected_count: int
    completed_count: int
    rejected_report_count: int
    dropped_count: int
    aborted_count: int
    rejected_checkin_count: int
    participant_records: list[ParticipantRecord] = field(default_factory=list)

    @property
    def round_run_time_s(self) -> float:
        """Reporting-phase duration — what Fig. 8 plots as round time."""
        start = (
            self.selection_ended_at_s
            if self.selection_ended_at_s is not None
            else self.started_at_s
        )
        return self.ended_at_s - start

    @property
    def drop_rate(self) -> float:
        if self.selected_count == 0:
            return 0.0
        return self.dropped_count / self.selected_count


class RoundStateMachine:
    """Drives one round of one FL task through its phases."""

    def __init__(
        self,
        round_id: int,
        task_id: str,
        config: RoundConfig,
        started_at_s: float,
    ):
        self.round_id = round_id
        self.task_id = task_id
        self.config = config
        self.started_at_s = started_at_s
        self.phase = RoundPhase.SELECTION
        self.selection_ended_at_s: float | None = None
        self.ended_at_s: float | None = None
        self.participants: dict[int, ParticipantRecord] = {}
        self.rejected_checkin_count = 0
        self._counts = {outcome: 0 for outcome in DeviceOutcome}

    # -- derived state --------------------------------------------------------
    @property
    def selected_count(self) -> int:
        return len(self.participants)

    @property
    def completed_count(self) -> int:
        return self._counts[DeviceOutcome.COMPLETED]

    @property
    def in_flight_count(self) -> int:
        return sum(
            1
            for p in self.participants.values()
            if p.outcome is DeviceOutcome.IN_FLIGHT
        )

    @property
    def is_terminal(self) -> bool:
        return self.phase in (RoundPhase.COMPLETED, RoundPhase.ABANDONED)

    # -- selection phase --------------------------------------------------------
    def on_checkin(self, device_id: int, now_s: float) -> CheckinDecision:
        """A device announced readiness during the selection window."""
        if self.phase is not RoundPhase.SELECTION:
            self.rejected_checkin_count += 1
            return CheckinDecision.REJECT
        if device_id in self.participants:
            return CheckinDecision.ACCEPT  # idempotent re-checkin on a stream
        if self.selected_count >= self.config.selection_goal:
            self.rejected_checkin_count += 1
            return CheckinDecision.REJECT
        self.participants[device_id] = ParticipantRecord(
            device_id=device_id, selected_at_s=now_s
        )
        if self.selected_count >= self.config.selection_goal:
            self._begin_reporting(now_s)
        return CheckinDecision.ACCEPT

    def on_selection_timeout(self, now_s: float) -> RoundPhase:
        """Selection window expired: start if the minimal goal was reached."""
        if self.phase is not RoundPhase.SELECTION:
            return self.phase
        min_to_start = max(
            1,
            int(self.config.selection_goal * self.config.min_participant_fraction),
        )
        if self.selected_count >= min_to_start:
            self._begin_reporting(now_s)
        else:
            self._abandon(now_s)
        return self.phase

    def _begin_reporting(self, now_s: float) -> None:
        self.phase = RoundPhase.REPORTING
        self.selection_ended_at_s = now_s

    # -- reporting phase ------------------------------------------------------
    def on_configured(self, device_id: int, now_s: float) -> None:
        """Device acked the plan + checkpoint download."""
        record = self.participants.get(device_id)
        if record is not None and record.configured_at_s is None:
            record.configured_at_s = now_s

    def on_report(self, device_id: int, now_s: float) -> DeviceOutcome:
        """Device uploaded its update.  Returns how the server treats it."""
        record = self.participants.get(device_id)
        if record is None:
            raise KeyError(f"report from unselected device {device_id}")
        if record.outcome is not DeviceOutcome.IN_FLIGHT:
            return record.outcome
        if self.is_terminal or self.phase is RoundPhase.SELECTION:
            # Reporting window already closed (or never opened): reject.
            self._finish_device(record, DeviceOutcome.REPORT_REJECTED, now_s)
            return DeviceOutcome.REPORT_REJECTED
        self._finish_device(record, DeviceOutcome.COMPLETED, now_s)
        if self.completed_count >= self.config.target_participants:
            self._complete(now_s)
        return DeviceOutcome.COMPLETED

    def on_device_dropped(
        self, device_id: int, now_s: float, reason: str = "unknown"
    ) -> None:
        """Device-side failure: eligibility change, network or compute error."""
        record = self.participants.get(device_id)
        if record is None or record.outcome is not DeviceOutcome.IN_FLIGHT:
            return
        record.drop_reason = reason
        self._finish_device(record, DeviceOutcome.DROPPED, now_s)

    def on_reporting_timeout(self, now_s: float) -> RoundPhase:
        """Reporting window expired: commit if enough devices reported."""
        if self.phase is not RoundPhase.REPORTING:
            return self.phase
        if self.completed_count >= self.config.min_participants:
            self._complete(now_s)
        else:
            self._abandon(now_s)
        return self.phase

    # -- terminal transitions -----------------------------------------------
    def _finish_device(
        self, record: ParticipantRecord, outcome: DeviceOutcome, now_s: float
    ) -> None:
        record.outcome = outcome
        record.finished_at_s = now_s
        self._counts[outcome] += 1

    def _abort_in_flight(self, now_s: float) -> None:
        for record in self.participants.values():
            if record.outcome is DeviceOutcome.IN_FLIGHT:
                self._finish_device(record, DeviceOutcome.ABORTED_BY_SERVER, now_s)

    def _complete(self, now_s: float) -> None:
        self._abort_in_flight(now_s)
        self.phase = RoundPhase.COMPLETED
        self.ended_at_s = now_s

    def _abandon(self, now_s: float) -> None:
        self._abort_in_flight(now_s)
        self.phase = RoundPhase.ABANDONED
        self.ended_at_s = now_s

    def abandon(self, now_s: float, reason: str = "external") -> None:
        """Externally forced abandonment (e.g. Master Aggregator crash)."""
        if not self.is_terminal:
            self._abandon(now_s)

    # -- results ----------------------------------------------------------------
    def result(self) -> RoundResult:
        if not self.is_terminal or self.ended_at_s is None:
            raise RuntimeError(f"round {self.round_id} is still running")
        return RoundResult(
            round_id=self.round_id,
            task_id=self.task_id,
            committed=self.phase is RoundPhase.COMPLETED,
            started_at_s=self.started_at_s,
            selection_ended_at_s=self.selection_ended_at_s,
            ended_at_s=self.ended_at_s,
            selected_count=self.selected_count,
            completed_count=self._counts[DeviceOutcome.COMPLETED],
            rejected_report_count=self._counts[DeviceOutcome.REPORT_REJECTED],
            dropped_count=self._counts[DeviceOutcome.DROPPED],
            aborted_count=self._counts[DeviceOutcome.ABORTED_BY_SERVER],
            rejected_checkin_count=self.rejected_checkin_count,
            participant_records=list(self.participants.values()),
        )
