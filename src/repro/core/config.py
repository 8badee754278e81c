"""Configuration dataclasses for FL tasks and rounds (Secs. 2.2, 9).

The defaults encode the paper's operating points: rounds target a few
hundred devices, the server over-selects 130% of the goal to compensate for
the observed 6–10% drop-out and to allow straggler discard, and the
selection/reporting phases are bounded by configurable time windows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.bounds import check, count, interval, nested, positive
from repro.secagg.grouped import shamir_threshold


class TaskKind(enum.Enum):
    TRAINING = "training"
    EVALUATION = "evaluation"


@dataclass(frozen=True)
class RoundConfig:
    """Time-window and participant-count parameters for one round."""

    target_participants: int = count(1, default=100)  # K in Algorithm 1
    #: "selects 130% of the target"
    overselection_factor: float = interval("[1, inf)", default=1.3)
    #: min % of goal to start/commit
    min_participant_fraction: float = interval("(0, 1]", default=0.8)
    selection_timeout_s: float = positive(default=120.0)
    reporting_timeout_s: float = positive(default=300.0)  # round run-time cap (Fig. 8)

    __post_init__ = check

    @property
    def selection_goal(self) -> int:
        """Devices to select including over-selection (1.3 * K)."""
        return int(math.ceil(self.target_participants * self.overselection_factor))

    @property
    def min_participants(self) -> int:
        """Fewest reports that still allow the round to commit."""
        return max(
            1, int(math.ceil(self.target_participants * self.min_participant_fraction))
        )


@dataclass(frozen=True)
class ClientTrainingConfig:
    """On-device optimization hyperparameters carried in the plan."""

    epochs: int = count(1, default=1)
    batch_size: int = count(1, default=16)
    learning_rate: float = positive(default=0.1)
    #: plan-level bound on examples consumed
    max_examples: int = count(1, default=10_000)

    __post_init__ = check


@dataclass(frozen=True)
class SecAggConfig:
    """Secure Aggregation parameters (Sec. 6)."""

    enabled: bool = False
    group_size: int = count(2, default=100)  # k: minimum secure-sum group
    #: Shamir threshold as fraction of group
    threshold_fraction: float = interval("(0.5, 1]", default=0.66)
    modulus_bits: int = count(8, 48, default=32)  # masked-sum ring size per coordinate

    __post_init__ = check

    def threshold(self, group_size: int) -> int:
        return shamir_threshold(group_size, self.threshold_fraction)


@dataclass(frozen=True)
class TaskConfig:
    """A full FL-task specification (Sec. 2.1): what to run and how."""

    task_id: str
    population_name: str
    kind: TaskKind = TaskKind.TRAINING
    round_config: RoundConfig = nested(default_factory=RoundConfig)
    client_config: ClientTrainingConfig = nested(default_factory=ClientTrainingConfig)
    secagg: SecAggConfig = nested(default_factory=SecAggConfig)
    #: oldest runtime the task claims to support
    min_runtime_version: int = count(1, default=1)
    priority: float = positive(default=1.0)

    def __post_init__(self) -> None:
        check(self)
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not self.population_name:
            raise ValueError("population_name must be non-empty")
