"""The paper's primary contribution: the Federated Learning protocol layer.

Two levels of API live here:

* **Algorithm level** — :class:`~repro.core.fedavg.FederatedAveraging`
  runs directly over in-memory
  :class:`~repro.core.datasets.ClientDataset` collections (Appendix B).
* **Protocol level** — :class:`~repro.core.rounds.RoundStateMachine`,
  :class:`~repro.core.pace.PaceSteering`, tasks / populations / plans /
  checkpoints (Secs. 2 and 7), consumed by the actor server in
  :mod:`repro.actors` and the device runtime in :mod:`repro.device`.
"""

from repro.core.config import (
    ClientTrainingConfig,
    RoundConfig,
    SecAggConfig,
    TaskConfig,
    TaskKind,
)
from repro.core.datasets import ClientDataset, train_holdout_split
from repro.core.checkpoint import FLCheckpoint, CheckpointStore
from repro.core.plan import DevicePlan, ServerPlan, FLPlan
from repro.core.fedavg import (
    ClientUpdateResult,
    CohortUpdateBuffers,
    CohortUpdateResult,
    FedAvgConfig,
    FederatedAveraging,
    LocalStepSchedule,
    client_update,
    client_update_cohort,
)
from repro.core.pace import PaceConfig, PaceSteering
from repro.core.rounds import (
    DeviceOutcome,
    ParticipantRecord,
    RoundAbandonedError,
    RoundPhase,
    RoundResult,
    RoundStateMachine,
)
from repro.core.task import FLPopulation, FLTask, TaskScheduler, SchedulingStrategy

__all__ = [
    "ClientTrainingConfig",
    "RoundConfig",
    "SecAggConfig",
    "TaskConfig",
    "TaskKind",
    "ClientDataset",
    "train_holdout_split",
    "FLCheckpoint",
    "CheckpointStore",
    "DevicePlan",
    "ServerPlan",
    "FLPlan",
    "ClientUpdateResult",
    "CohortUpdateBuffers",
    "CohortUpdateResult",
    "FedAvgConfig",
    "FederatedAveraging",
    "LocalStepSchedule",
    "client_update",
    "client_update_cohort",
    "PaceConfig",
    "PaceSteering",
    "DeviceOutcome",
    "ParticipantRecord",
    "RoundAbandonedError",
    "RoundPhase",
    "RoundResult",
    "RoundStateMachine",
    "FLPopulation",
    "FLTask",
    "TaskScheduler",
    "SchedulingStrategy",
]
