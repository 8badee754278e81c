"""The one injectable wall clock."""

from __future__ import annotations

import time


def wall_timer() -> float:
    """Injectable wall clock for observability timings.

    Simulation and protocol code never reads wall time directly (the
    ``no-wall-clock`` lint contract); components that *report* real
    elapsed cost — e.g. ``SecAggMetrics.server_seconds`` — take a timer
    callable from their caller instead, and this is the one callers
    inject.  Timings it produces feed metrics only, never event ordering.
    """
    return time.perf_counter()
