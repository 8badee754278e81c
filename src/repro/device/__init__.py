"""On-device architecture (Sec. 3).

The device's responsibilities: maintain an :class:`ExampleStore` of
locally collected, expiring training data; run the FL runtime only when
the device is idle, charging and on an unmetered network; execute plans
and report updates; coordinate multiple FL populations through a
multi-tenant scheduler; and prove genuineness via remote attestation.

:class:`~repro.device.actor.DeviceActor` ties these together as a
participant in the simulated fleet.
"""

from repro.device.example_store import ExampleStore, ExampleStoreRegistry
from repro.device.attestation import AttestationService
from repro.device.scheduler import JobSchedule
from repro.device.cohort import CohortExecutionPlane, PendingCohortResult
from repro.device.runtime import (
    ComputeModel,
    LocalTrainer,
    RealTrainer,
    SyntheticTrainer,
    TrainResult,
)
from repro.device.actor import DeviceActor, DeviceState

__all__ = [
    "ExampleStore",
    "ExampleStoreRegistry",
    "AttestationService",
    "JobSchedule",
    "CohortExecutionPlane",
    "PendingCohortResult",
    "ComputeModel",
    "LocalTrainer",
    "RealTrainer",
    "SyntheticTrainer",
    "TrainResult",
    "DeviceActor",
    "DeviceState",
]
