"""Typed run reports: the structured results API for fleet runs.

Replaces the ad-hoc ``operational_summary()`` / ``device_health_summary()``
dicts with frozen dataclasses.  A :class:`RunReport` covers the whole
fleet; :class:`RunReport.populations` carries one
:class:`PopulationReport` per hosted FL population, matching the
per-population dashboard namespace (``pop/<name>/rounds/...``).

Reports compare equal field-by-field, which is what the determinism tests
lean on: two identically seeded runs must produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.rounds import RoundResult


@dataclass(frozen=True)
class TaskReport:
    """Per-task round counters (Sec. 7.1's task-level bookkeeping)."""

    task_id: str
    kind: str
    rounds_started: int
    rounds_committed: int


@dataclass(frozen=True)
class PopulationReport:
    """One population's operational profile over a run (Sec. 9 headline
    numbers, restricted to this tenant's rounds)."""

    name: str
    rounds_total: int
    rounds_committed: int
    mean_drop_rate: float
    mean_completed_per_round: float
    mean_round_time_s: float
    device_sessions: int
    member_devices: int
    tasks: tuple[TaskReport, ...] = ()


@dataclass(frozen=True)
class PopulationLifecycleReport:
    """Outcome of draining one population from a live fleet.

    ``clean`` means the tenant wound down inside its deadline: the
    in-flight round finished (or none was running) and every device-side
    session ended on its own; otherwise the deadline forced
    ``forced_session_interrupts`` device aborts and — when a round was
    still open — ``forced_round_abort``.  The tenant's final commit (round
    ``final_round_number``) stays a record in the store's ``history`` and
    its model ``latest(name)`` until the name re-attaches.
    """

    population: str
    attached_at_s: float
    drain_started_at_s: float
    drained_at_s: float
    rounds_total: int
    rounds_committed: int
    final_round_number: int
    member_devices: int
    forced_session_interrupts: int
    forced_round_abort: bool
    clean: bool

    @property
    def drain_duration_s(self) -> float:
        return self.drained_at_s - self.drain_started_at_s


@dataclass(frozen=True)
class FleetHealthReport:
    """Fleet-wide device-health telemetry (Sec. 5): PII-free aggregates
    of per-device counters."""

    train_seconds: Mapping[str, float]
    sessions: Mapping[str, float]
    errors_by_reason: Mapping[str, int]
    sessions_by_os_version: Mapping[int, int]
    sessions_by_population: Mapping[str, int]


@dataclass(frozen=True)
class RecoveryReport:
    """The recovery ledger: what went wrong and how the fleet recovered.

    Sec. 4.4's claim — "in all failure cases the system will continue to
    make progress" — made auditable: every fault injected by the
    :mod:`repro.system.faults` plane, every respawn and retry the recovery
    machinery performed in response, and the simulated-time latency from
    each crash to the next committed round.  All zeros when the fault
    plane is disabled and nothing crashed.
    """

    #: Injected actor crashes per actor kind (only non-zero kinds appear,
    #: in sorted key order so reports compare deterministically).
    faults_by_kind: Mapping[str, int]
    selector_respawns: int
    coordinator_respawns: int
    messages_dropped: int
    messages_delayed: int
    device_interrupts: int
    upload_retries: int
    upload_retries_exhausted: int
    checkpoint_write_faults: int
    checkpoint_write_retries: int
    rounds_abandoned_on_commit: int
    rounds_failed: int
    rounds_committed: int
    #: Crash->next-commit recovery samples: every injected crash is
    #: "recovered" by the first round committed at or after it.
    recoveries: int
    mean_recovery_latency_s: float
    max_recovery_latency_s: float
    #: Aggregation-tree middle tier (every round has one): crashed shard
    #: aggregators replaced mid-round by their master, and folds where a
    #: shard node was still down so only that shard's partial was lost.
    shard_aggregator_respawns: int = 0
    shard_fold_aborts: int = 0

    @property
    def faults_total(self) -> int:
        return sum(self.faults_by_kind.values())


@dataclass(frozen=True)
class RunReport:
    """Structured results of one fleet run.

    Fleet-level aggregates plus one :class:`PopulationReport` per hosted
    population.
    """

    simulated_seconds: float
    rounds_total: int
    rounds_committed: int
    mean_drop_rate: float
    mean_completed_per_round: float
    mean_round_time_s: float
    download_bytes: int
    upload_bytes: int
    populations: tuple[PopulationReport, ...]
    health: FleetHealthReport
    #: The fault/recovery ledger (all-zero when nothing was injected).
    #: Defaults to ``None`` so hand-built reports stay constructible.
    recovery: RecoveryReport | None = None

    def population(self, name: str) -> PopulationReport:
        """The named population's report — the *latest* incarnation when a
        drained name was re-attached (entries are in attach order)."""
        for report in reversed(self.populations):
            if report.name == name:
                return report
        raise KeyError(f"no population {name!r} in this report")

    @property
    def population_names(self) -> tuple[str, ...]:
        return tuple(report.name for report in self.populations)


def summarize_rounds(
    results: Iterable[RoundResult],
) -> tuple[int, int, float, float, float]:
    """(total, committed, mean_drop, mean_completed, mean_round_time) over
    a round-result stream — shared by fleet- and population-level reports
    so the two always agree."""
    results = list(results)
    committed = [r for r in results if r.committed]
    drop_rates = [r.drop_rate for r in results if r.selected_count]
    return (
        len(results),
        len(committed),
        float(np.mean(drop_rates)) if drop_rates else 0.0,
        float(np.mean([r.completed_count for r in committed])) if committed else 0.0,
        float(np.mean([r.round_run_time_s for r in committed])) if committed else 0.0,
    )
