"""Diurnal device-availability model.

Sec. 9 of the paper reports a ~4x swing between the low and high number of
simultaneously participating devices over 24 hours for a US-centric
population: phones are idle, charging and on WiFi mostly at night.

We model each device's *eligibility* (idle + charging + unmetered network,
Sec. 3) as a two-state continuous-time process whose transition hazards are
modulated by local time of day:

* ``rate_on(h)``  — hazard of becoming eligible, peaks at night;
* ``rate_off(h)`` — hazard of losing eligibility (user picks the phone up),
  peaks during the day.  This is what makes daytime drop-out higher (Fig. 7).

The stationary availability follows ``rate_on / (rate_on + rate_off)`` which
we calibrate to the paper's 4x night/day swing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.bounds import check, finite, interval, positive
from repro.sim.event_loop import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Resolution of the cached hazard lookup tables: one bucket per minute
#: of local time.  The hazards are 24h-period sinusoids, so a 60s grid
#: reproduces them to ~1e-5 relative — far below the sampling noise.
_RATE_TABLE_BUCKETS = 1440


@dataclass(frozen=True)
class DiurnalModel:
    """Sinusoidal day/night modulation of device availability.

    Parameters
    ----------
    peak_hour:
        Local hour at which availability peaks (default 2am — phones
        charging on night stands).
    amplitude:
        Relative swing of the availability sinusoid.  ``amplitude=0.6``
        yields a ``(1+a)/(1-a) = 4x`` ratio between peak and trough,
        matching Sec. 9.
    base_eligible_fraction:
        Time-averaged fraction of devices that are eligible.
    mean_eligible_minutes:
        Average length of one eligible stretch (a charging session).
    """

    peak_hour: float = finite(default=2.0)
    amplitude: float = interval("[0, 1)", default=0.6)
    base_eligible_fraction: float = interval("(0, 1]", default=0.25)
    mean_eligible_minutes: float = positive(default=45.0)

    #: Both hazards must be finite and positive at every hour, or the
    #: sampled delays are negative (time travel) or never come due.
    __post_init__ = check

    def modulation(self, local_time_s: float) -> float:
        """Multiplicative availability factor in ``[1-a, 1+a]``."""
        hours = (local_time_s / SECONDS_PER_HOUR) % 24.0
        phase = 2.0 * math.pi * (hours - self.peak_hour) / 24.0
        return 1.0 + self.amplitude * math.cos(phase)

    def modulation_batch(self, local_times_s: np.ndarray) -> np.ndarray:
        """:meth:`modulation` over an array of times, one numpy pass (the
        hazards below are built on it)."""
        hours = (local_times_s / SECONDS_PER_HOUR) % 24.0
        phase = (2.0 * math.pi / 24.0) * (hours - self.peak_hour)
        return 1.0 + self.amplitude * np.cos(phase)

    # The laws below take a time or an array of times (one numpy pass).
    def eligible_fraction(self, local_times_s):
        """Instantaneous expected fraction of eligible devices."""
        return np.minimum(
            1.0, self.base_eligible_fraction * self.modulation_batch(local_times_s)
        )

    def rate_off(self, local_times_s):
        """Hazard (per second) of an eligible device losing eligibility:
        the inverted modulation — users interact with phones during the
        day, so eligibility is lost faster then (when availability is at
        its 1+a peak the off-hazard is at its 1-a trough)."""
        base = 1.0 / (self.mean_eligible_minutes * 60.0)
        return base * (2.0 - self.modulation_batch(local_times_s))

    def rate_on(self, local_times_s):
        """Hazard (per second) of an ineligible device becoming eligible,
        derived so the stationary eligible fraction tracks
        :meth:`eligible_fraction` at every hour of the day."""
        f = np.minimum(self.eligible_fraction(local_times_s), 0.97)
        off = self.rate_off(local_times_s)
        # stationary: f = on / (on + off)  =>  on = off * f / (1 - f)
        return off * f / (1.0 - f)


class _HazardTables:
    """Piecewise-constant view of a model's two diurnal hazards over a day.

    Per hazard, ``rates[k]`` is the hazard on minute-bucket ``k``,
    ``cum[k]`` the integrated hazard from local midnight to the bucket's
    left edge, ``total`` the integral over a full day.  With these the
    next-transition time can be drawn by *exact inversion* — one Exp(1)
    draw, one binary search — instead of a thinning loop (see
    :func:`sample_transitions`).  Both hazards live in the same flat
    arrays, ``stride`` entries each (``rates`` padded by one so it indexes
    like ``cum``): row 0 is ``rate_off`` (leaving eligibility), row 1
    ``rate_on``, so ``to_eligible * stride + bucket`` addresses either
    with one take.

    Both ``cum`` rows, merged, are ``bounds``: a remainder's one binary
    search there counts the entries of either row at or below it, and
    ``below[row * (bounds.size + 1) + position]`` is that count for the
    row, less one — the bucket a search of the row's own ``cum`` finds.
    """

    __slots__ = ("rates", "cum", "total", "stride", "bucket_s", "bounds", "below")

    def __init__(self, rate_off: np.ndarray, rate_on: np.ndarray):
        self.bucket_s = SECONDS_PER_DAY / rate_off.size
        self.stride = rate_off.size + 1
        cum_off, cum_on = (
            np.concatenate(([0.0], np.cumsum(rates * self.bucket_s)))
            for rates in (rate_off, rate_on)
        )
        self.cum = np.concatenate((cum_off, cum_on))
        self.rates = np.concatenate((rate_off, rate_off[-1:], rate_on, rate_on[-1:]))
        self.total = np.array([cum_off[-1], cum_on[-1]])
        order = self.cum.argsort(kind="stable")
        self.bounds = self.cum[order]
        on = order >= self.stride
        self.below = np.concatenate(
            [np.concatenate(([0], np.cumsum(counted))) - 1 for counted in (~on, on)]
        )


@lru_cache(maxsize=32)
def _rate_tables(model: DiurnalModel) -> _HazardTables:
    """Per-minute hazard tables for ``model``.

    The hazards are pure functions of local time of day, so one table
    set serves every device (and every time zone) simulated under the
    same :class:`DiurnalModel`.
    """
    edges = np.arange(_RATE_TABLE_BUCKETS) * (SECONDS_PER_DAY / _RATE_TABLE_BUCKETS)
    return _HazardTables(model.rate_off(edges), model.rate_on(edges))


def sample_transitions(
    model: DiurnalModel,
    wall_time_s: float,
    tz_offset_s: np.ndarray,
    to_eligible: np.ndarray,
    exp1: np.ndarray,
) -> np.ndarray:
    """Next-transition delays for a batch of devices by exact inversion of
    the tabulated hazard (the vectorized idle plane's sampler).

    Row ``j`` sits at local time ``wall_time_s + tz_offset_s[j]`` and
    waits to *become* eligible (``to_eligible[j]``, hazard ``rate_on``)
    or to stop being so (``rate_off``); ``exp1[j]`` is its Exp(1) draw.
    The piecewise-constant hazard's cumulative integral is invertible in
    closed form, so one draw and one binary search per row replace the
    thinning loop's 2-7 proposals.  Against
    :meth:`AvailabilityProcess._sample_transition` the sampled law differs
    only by the per-minute discretisation of the smooth hazard (~1e-5
    relative).
    """
    tables = _rate_tables(model)
    bucket_s = tables.bucket_s
    phase = (wall_time_s + tz_offset_s) % SECONDS_PER_DAY
    k0 = (phase / bucket_s).astype(np.intp)
    row = to_eligible.astype(np.intp)
    base = row * tables.stride
    at = base + k0
    target = tables.cum[at] + tables.rates[at] * (phase - k0 * bucket_s) + exp1
    whole_days, remainder = np.divmod(target, tables.total[row])
    bounds = tables.bounds
    k = tables.below[row * (bounds.size + 1) + bounds.searchsorted(remainder, "right")]
    at = base + k
    hit_phase = k * bucket_s + (remainder - tables.cum[at]) / tables.rates[at]
    return whole_days * SECONDS_PER_DAY + hit_phase - phase


class AvailabilityProcess:
    """Samples eligibility transitions for one device.

    Uses thinning (Lewis & Shedler) so the time-varying hazards are honoured
    exactly without discretising time.  No fleet runs it: it is the
    reference :func:`sample_transitions` is compared against in
    distribution (``tests/sim/test_diurnal.py``).
    """

    def __init__(
        self,
        model: DiurnalModel,
        tz_offset_hours: float,
        rng: np.random.Generator,
    ):
        self.model = model
        self.tz_offset_s = tz_offset_hours * SECONDS_PER_HOUR
        self.rng = rng
        # Thinning majorant: rate_off <= base*(1+a); rate_on <= rate_off_max
        # * f_max/(1-f_max).  A 1.5x safety factor keeps acceptance high
        # (few rejected proposals) while remaining a strict upper bound.
        base = 1.0 / (model.mean_eligible_minutes * 60.0)
        f_max = min(0.97, model.base_eligible_fraction * (1.0 + model.amplitude))
        on_bound = (1.0 + model.amplitude) * f_max / (1.0 - f_max)
        self._majorant = 1.5 * base * max(1.0 + model.amplitude, on_bound)

    def local_time(self, wall_time_s: float) -> float:
        return wall_time_s + self.tz_offset_s

    def is_initially_eligible(self, wall_time_s: float) -> bool:
        f = self.model.eligible_fraction(self.local_time(wall_time_s))
        return bool(self.rng.random() < f)

    def _sample_transition(
        self, wall_time_s: float, rate_fn
    ) -> float:
        """Time from ``wall_time_s`` until the next transition under
        time-varying hazard ``rate_fn(local_time)`` via thinning."""
        majorant = self._majorant
        t = wall_time_s
        # Bounded loop: expected iterations is majorant/rate which is small;
        # the hard cap guards against pathological configs.
        for _ in range(100_000):
            t += self.rng.exponential(1.0 / majorant)
            rate = rate_fn(self.local_time(t))
            if self.rng.random() < rate / majorant:
                return t - wall_time_s
        return t - wall_time_s

    def time_until_ineligible(self, wall_time_s: float) -> float:
        """Sample remaining eligible time starting at ``wall_time_s``."""
        return self._sample_transition(wall_time_s, self.model.rate_off)

    def time_until_eligible(self, wall_time_s: float) -> float:
        """Sample waiting time until next eligibility window."""
        return self._sample_transition(wall_time_s, self.model.rate_on)
