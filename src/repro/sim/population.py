"""Device population generator.

Produces the fleet of heterogeneous device profiles that the FL system
operates over: time zones (drives diurnal availability), compute speed
(drives stragglers), memory and runtime version (drive deployment gating,
Sec. 7.3), and genuineness (drives attestation, Sec. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.bounds import check, count, finite, non_negative, probability
from repro.sim.rng import RngRegistry


class DeviceProfile(NamedTuple):
    """Static characteristics of one simulated device.

    A fleet keeps its profiles as idle-plane columns and builds one on
    read (``plane.profile(row)``): only a constructed device, or a trainer
    factory's argument, is a profile object.  A tuple, not a frozen
    dataclass, because a tenant's attach builds one per member: ~0.3 µs
    each on a 2-vCPU Xeon, against ~1.5 µs for a frozen slotted
    dataclass's ``__init__``.
    """

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


@dataclass
class PopulationConfig:
    """Knobs for sampling a device population.

    Defaults follow the paper's deployment constraints: recent OS versions,
    >= 2GB memory (Sec. 11 "Bias"), a spread of runtime versions many months
    old (Sec. 7.3), and a single dominant time zone (Appendix A studies a
    population "primarily from the same time zone").
    """

    num_devices: int = count(1, default=1000)
    tz_offset_hours: float = finite(default=-8.0)  # US Pacific-centric population
    tz_spread_hours: float = non_negative(default=1.5)  # small spread around the center
    speed_sigma: float = non_negative(default=0.4)  # log-normal compute speed
    memory_choices: tuple[int, ...] = (2048, 3072, 4096, 6144, 8192)
    memory_weights: tuple[float, ...] = (0.30, 0.25, 0.25, 0.12, 0.08)
    os_versions: tuple[int, ...] = (26, 27, 28, 29)
    os_weights: tuple[float, ...] = (0.15, 0.25, 0.35, 0.25)
    runtime_versions: tuple[int, ...] = (7, 8, 9, 10)
    runtime_weights: tuple[float, ...] = (0.10, 0.20, 0.30, 0.40)
    compromised_fraction: float = probability(default=0.002)  # fail attestation

    def __post_init__(self) -> None:
        check(self)
        for name, weights_name in (
            ("memory_choices", "memory_weights"),
            ("os_versions", "os_weights"),
            ("runtime_versions", "runtime_weights"),
        ):
            choices, w = getattr(self, name), getattr(self, weights_name)
            if not choices:
                raise ValueError(f"{name} must be non-empty")
            if len(w) != len(choices):
                raise ValueError(
                    f"{weights_name} must hold one weight per entry of {name}"
                )
            if not all(0.0 <= x < math.inf for x in w):
                raise ValueError(f"{weights_name} must be finite and >= 0")
            if abs(sum(w) - 1.0) > 1e-9:
                raise ValueError(f"{weights_name} must sum to 1, got {sum(w)}")


def build_population(
    config: PopulationConfig, rngs: RngRegistry
) -> dict[str, np.ndarray]:
    """Sample ``config.num_devices`` device profiles deterministically, as
    columns: one array per :class:`DeviceProfile` field, keyed by its name
    (a fleet's idle plane adopts them as its profile columns)."""
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
    return {
        "device_id": np.arange(n),
        "tz_offset_hours": tz,
        "speed_factor": speed,
        "memory_mb": memory,
        "os_version": os_v,
        "runtime_version": rt_v,
        "genuine": genuine,
    }
