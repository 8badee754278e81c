"""Simulation substrate: deterministic discrete-event kernel and fleet models.

This package replaces the physical substrate of the paper's deployment (tens
of millions of Android phones, gRPC transport, wall-clock time) with a
deterministic discrete-event simulation.  Everything above this layer — the
protocol, the actor server, the device runtime — runs unmodified against
either simulated or real time, because all scheduling goes through
:class:`~repro.sim.event_loop.EventLoop`.
"""

# NOTE: repro.sim.idle_plane is intentionally not imported here — it
# depends on repro.device.actor, which transitively imports this package
# back; import it module-qualified (``from repro.sim.idle_plane import
# VectorizedIdlePlane``) instead.
from repro.sim.event_loop import Event, EventLoop, SimulationError, Sweeper
from repro.sim.rng import RngRegistry
from repro.sim.diurnal import DiurnalModel
from repro.sim.network import NetworkModel, TrafficMeter, TransferDirection
from repro.sim.population import DeviceProfile, PopulationConfig, build_population

__all__ = [
    "Event",
    "EventLoop",
    "SimulationError",
    "Sweeper",
    "RngRegistry",
    "DiurnalModel",
    "NetworkModel",
    "TrafficMeter",
    "TransferDirection",
    "DeviceProfile",
    "PopulationConfig",
    "build_population",
]
