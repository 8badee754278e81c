"""Message catalogue for the FL server actors and devices.

Every message crosses the device edge — Fig. 1's steps 3 and 4 map onto
the first four frozen dataclasses — and the last is what a flush hands up
the aggregation tree.  Server actors otherwise call each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.checkpoint import FLCheckpoint
from repro.core.plan import FLPlan

if TYPE_CHECKING:
    from repro.actors.kernel import ActorRef


# -- configuration / reporting (device <-> aggregator) -------------------------
@dataclass(frozen=True)
class ConfigureDevice:
    """Step 3 of Fig. 1: plan + checkpoint sent to a selected device."""

    round_id: int
    task_id: str
    plan: FLPlan
    checkpoint: FLCheckpoint
    aggregator: "ActorRef"


@dataclass(frozen=True)
class DeviceReport:
    """Step 4: the trained update (delta, weight) reported back.  A
    cohort-plane update is numbers only once accepted: its report carries
    the workload's handle in ``deferred`` (``delta_vector`` and the
    ``loss`` metric ``None``) and the round's fold executes it."""

    device_id: int
    round_id: int
    delta_vector: Any            # np.ndarray — flattened weighted delta
    weight: float
    num_examples: int
    train_metrics: dict[str, float]
    upload_nbytes: int
    deferred: Any = None         # device.cohort.PendingCohortResult


@dataclass(frozen=True)
class DeviceDropped:
    """Device-side failure notification (or detected timeout)."""

    device_id: int
    round_id: int
    reason: str


@dataclass(frozen=True)
class ReportAck:
    """Server's response to an uploaded report.

    ``accepted=False`` is the Table 1 ``#`` outcome: the device uploaded
    after the reporting window closed (typically because the server already
    had its target count — the "aborted" devices of Fig. 7)."""

    round_id: int
    accepted: bool


# -- aggregator -> master ---------------------------------------------------------
@dataclass(frozen=True)
class IntermediateAggregate:
    """An Aggregator's (securely) summed contribution for the round."""

    round_id: int
    delta_sum: Any               # np.ndarray
    weight_sum: float
    device_count: int
    secagg_metrics: Any = None
