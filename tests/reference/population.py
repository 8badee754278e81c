"""The per-row population build: one frozen ``DeviceProfile`` object per
device, kept as the oracle the fleet's profile columns are tested against
(``tests/sim/test_population.py``).  No fleet constructs it: a fleet's
profiles are idle-plane columns, and ``fleet.profiles`` builds one on read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.population import PopulationConfig
from repro.sim.rng import RngRegistry


@dataclass(frozen=True, slots=True)
class DeviceProfile:
    """Static characteristics of one simulated device (one per row of the
    fleet, so no instance dict)."""

    device_id: int
    tz_offset_hours: float
    speed_factor: float          # examples/second multiplier vs the median
    memory_mb: int
    os_version: int
    runtime_version: int         # TensorFlow-equivalent runtime version
    genuine: bool                # passes remote attestation

    @property
    def name(self) -> str:
        return f"device-{self.device_id}"


def build_population(
    config: PopulationConfig, rngs: RngRegistry
) -> list[DeviceProfile]:
    """Sample ``config.num_devices`` device profiles deterministically."""
    rng = rngs.stream("population")
    n = config.num_devices
    tz = rng.normal(config.tz_offset_hours, config.tz_spread_hours, size=n)
    speed = np.exp(rng.normal(0.0, config.speed_sigma, size=n))
    memory = rng.choice(config.memory_choices, size=n, p=config.memory_weights)
    os_v = rng.choice(config.os_versions, size=n, p=config.os_weights)
    rt_v = rng.choice(
        config.runtime_versions, size=n, p=config.runtime_weights
    )
    genuine = rng.random(n) >= config.compromised_fraction
    # One ``tolist`` per array converts every row's field in bulk (a
    # numpy-scalar conversion per field per row is the slow way).
    return [
        DeviceProfile(*fields)
        for fields in zip(
            range(n), tz.tolist(), speed.tolist(), memory.tolist(),
            os_v.tolist(), rt_v.tolist(), genuine.tolist(),
        )
    ]
