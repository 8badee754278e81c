"""Configuration dataclasses for FL tasks and rounds (Secs. 2.2, 9).

The defaults encode the paper's operating points: rounds target a few
hundred devices, the server over-selects 130% of the goal to compensate for
the observed 6–10% drop-out and to allow straggler discard, and the
selection/reporting phases are bounded by configurable time windows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class TaskKind(enum.Enum):
    TRAINING = "training"
    EVALUATION = "evaluation"


@dataclass(frozen=True)
class RoundConfig:
    """Time-window and participant-count parameters for one round."""

    target_participants: int = 100          # K in Algorithm 1
    overselection_factor: float = 1.3       # "selects 130% of the target"
    min_participant_fraction: float = 0.8   # min % of goal to start/commit
    selection_timeout_s: float = 120.0
    reporting_timeout_s: float = 300.0      # round run-time cap (Fig. 8)

    def __post_init__(self) -> None:
        if self.target_participants <= 0:
            raise ValueError("target_participants must be positive")
        if not 1.0 <= self.overselection_factor < math.inf:
            raise ValueError("overselection_factor must be finite and >= 1.0")
        if not 0.0 < self.min_participant_fraction <= 1.0:
            raise ValueError("min_participant_fraction must be in (0, 1]")
        for name in ("selection_timeout_s", "reporting_timeout_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

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

    epochs: int = 1
    batch_size: int = 16
    learning_rate: float = 0.1
    max_examples: int = 10_000      # plan-level bound on examples consumed
    clip_update_norm: float | None = None

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.max_examples <= 0:
            raise ValueError("max_examples must be positive")
        if self.clip_update_norm is not None and not (
            0 < self.clip_update_norm < math.inf
        ):
            raise ValueError("clip_update_norm must be None or finite and positive")


@dataclass(frozen=True)
class SecAggConfig:
    """Secure Aggregation parameters (Sec. 6)."""

    enabled: bool = False
    group_size: int = 100            # k: minimum secure-sum group
    threshold_fraction: float = 0.66  # Shamir threshold as fraction of group
    modulus_bits: int = 32           # masked-sum ring size per coordinate

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not 0.5 < self.threshold_fraction <= 1.0:
            raise ValueError("threshold_fraction must be in (0.5, 1]")
        if self.modulus_bits < 8 or self.modulus_bits > 48:
            raise ValueError("modulus_bits must be in [8, 48]")

    def threshold(self, group_size: int | None = None) -> int:
        g = group_size if group_size is not None else self.group_size
        return max(2, int(math.ceil(g * self.threshold_fraction)))


@dataclass(frozen=True)
class TaskConfig:
    """A full FL-task specification (Sec. 2.1): what to run and how."""

    task_id: str
    population_name: str
    kind: TaskKind = TaskKind.TRAINING
    round_config: RoundConfig = field(default_factory=RoundConfig)
    client_config: ClientTrainingConfig = field(default_factory=ClientTrainingConfig)
    secagg: SecAggConfig = field(default_factory=SecAggConfig)
    min_runtime_version: int = 1     # oldest runtime the task claims to support
    priority: float = 1.0

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not self.population_name:
            raise ValueError("population_name must be non-empty")
        if not 0 < self.priority < math.inf:
            raise ValueError("priority must be finite and positive")
