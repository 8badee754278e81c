"""The full system, assembled (the paper's Fig. 1 end to end) — as a
multi-tenant fleet.

* :class:`FLFleet` — N FL populations sharing one event loop, actor
  server, and simulated device fleet.  Build one declaratively with
  :meth:`FLFleet.builder`.
* :class:`FleetBuilder` / :class:`PopulationSpec` — validate the whole
  topology (populations, tasks, memberships) before spawning anything.
* :class:`RunReport` / :class:`PopulationReport` — typed, comparable run
  results.
* :class:`PopulationLifecycle` (:mod:`repro.system.lifecycle`) — the
  population lifecycle plane: tenants attach to and drain from a *live*
  fleet (``fleet.attach_population`` / ``fleet.drain_population``), and
  whole fleets checkpoint and resume byte-identically
  (``fleet.snapshot`` / ``FLFleet.restore``).
"""

from repro.system.builder import (
    FleetBuilder,
    FleetValidationError,
    PopulationSpec,
)
from repro.system.config import FleetConfig, TrainerFactory
from repro.system.faults import (
    ActorCrashSchedule,
    CheckpointFaultConfig,
    DeviceInterruptSchedule,
    FaultPlan,
    MessageFaultConfig,
    RetryPolicy,
)
from repro.system.fleet import FLFleet, SyntheticTrainerFactory
from repro.system.lifecycle import (
    FleetSnapshotManifest,
    PopulationLifecycle,
    PopulationRuntime,
    PopulationSnapshotEntry,
    PopulationState,
    SnapshotError,
    read_manifest,
)
from repro.system.reports import (
    FleetHealthReport,
    PopulationLifecycleReport,
    PopulationReport,
    RecoveryReport,
    RunReport,
    TaskReport,
)

__all__ = [
    "ActorCrashSchedule",
    "CheckpointFaultConfig",
    "DeviceInterruptSchedule",
    "FaultPlan",
    "FLFleet",
    "FleetBuilder",
    "FleetConfig",
    "FleetHealthReport",
    "FleetSnapshotManifest",
    "FleetValidationError",
    "MessageFaultConfig",
    "PopulationLifecycle",
    "PopulationLifecycleReport",
    "PopulationReport",
    "PopulationRuntime",
    "PopulationSnapshotEntry",
    "PopulationSpec",
    "PopulationState",
    "RecoveryReport",
    "RetryPolicy",
    "RunReport",
    "SnapshotError",
    "SyntheticTrainerFactory",
    "TaskReport",
    "TrainerFactory",
    "read_manifest",
]
