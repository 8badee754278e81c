"""Fleet-level configuration shared by every hosted FL population.

Everything here describes the *fleet* — how many devices exist, their
diurnal availability, the network between them and the datacenter, the
on-device job schedule — as opposed to the per-population knobs carried by
:class:`repro.system.builder.PopulationSpec` (tasks, model, pace override,
scheduling strategy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.actors.coordinator import CoordinatorConfig
from repro.bounds import check, count, nested, positive
from repro.core.pace import PaceConfig
from repro.device.runtime import ComputeModel, LocalTrainer
from repro.device.scheduler import SCHEDULER_POLICIES, JobSchedule
from repro.sim.diurnal import DiurnalModel
from repro.sim.network import NetworkModel
from repro.sim.population import DeviceProfile, PopulationConfig
from repro.system.faults import FaultPlan

#: Builds the per-device local trainer for one population's model.
TrainerFactory = Callable[[DeviceProfile], LocalTrainer]

#: How long the cluster manager waits before respawning a crashed Selector
#: (Sec. 4.4's "restarted by the cluster manager"), or a crashed shard
#: aggregator after its master.
SELECTOR_RESTART_DELAY_S = 5.0


def _default_job_schedule() -> JobSchedule:
    """Module-level (not a lambda) so config dataclasses stay
    pickle-exact for ``fleet.snapshot()`` — the snapshot-unsafe-state
    contract."""
    return JobSchedule(3600.0, 0.5)


@dataclass
class FleetConfig:
    """Everything needed to stand up one shared device fleet.

    ``pace`` and ``coordinator`` are fleet-wide *defaults*; individual
    populations may override them in their spec.
    """

    seed: int = count(0, default=0)
    population: PopulationConfig = nested(default_factory=PopulationConfig)
    diurnal: DiurnalModel = nested(default_factory=DiurnalModel)
    network: NetworkModel = nested(default_factory=NetworkModel)
    pace: PaceConfig = nested(default_factory=PaceConfig)
    coordinator: CoordinatorConfig = nested(default_factory=CoordinatorConfig)
    job: JobSchedule = nested(default_factory=_default_job_schedule)
    compute: ComputeModel = nested(default_factory=ComputeModel)
    num_selectors: int = count(1, default=2)
    #: Consistent-hash control-plane sharding (:mod:`repro.system.
    #: sharding`): the Selector set is partitioned into this many disjoint
    #: shards and each population lives on exactly one — its routes,
    #: check-in traffic, and admission quotas never touch other shards,
    #: and its rounds fold through at most one shard aggregator per
    #: Selector of its shard.  ``1`` (default) is the unsharded topology,
    #: the one-shard case of the same code: every tenant on every
    #: Selector, and rounds fold leaf -> shard -> master like any other.
    selector_shards: int = count(1, default=1)
    sample_interval_s: float = positive(default=120.0)
    #: How long a checked-in device holds its selector stream open before
    #: hanging up and retrying on the job cadence (Sec. 2.3's bounded
    #: selection wait).
    waiting_timeout_s: float = positive(default=1800.0)
    #: On-device multi-tenant arbitration (Sec. 11 "Device Scheduling"):
    #: ``"fifo"`` (default) serves queued session requests in arrival
    #: order; ``"fair_share"`` round-robins across populations by
    #: least-recently-started, so a chatty tenant cannot lead every burst.
    device_scheduler: str = "fifo"
    #: Deterministic fault injection + retry/backoff recovery
    #: (:mod:`repro.system.faults`).  ``None`` (default) disables the
    #: plane entirely — no hooks, no ``faults/...`` streams, trajectories
    #: byte-identical to a build without the plane.
    faults: FaultPlan | None = nested(default=None)

    def validate(self) -> None:
        """Every declared range, nested configs included, then the
        cross-field rules.  Run at construction and again at ``.build()``:
        the builder's knobs assign fields after construction."""
        check(self)
        if self.selector_shards > self.num_selectors:
            raise ValueError(
                f"selector_shards ({self.selector_shards}) cannot exceed "
                f"num_selectors ({self.num_selectors}): every shard needs "
                f"at least one Selector"
            )
        if self.device_scheduler not in SCHEDULER_POLICIES:
            raise ValueError(
                f"device_scheduler must be one of {SCHEDULER_POLICIES}, "
                f"got {self.device_scheduler!r}"
            )

    __post_init__ = validate
