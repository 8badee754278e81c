"""Adaptive window tuning (the Sec. 11 future-work controller)."""

import numpy as np
import pytest

from repro.core.config import RoundConfig
from repro.core.rounds import RoundStateMachine
from window_tuner import AdaptiveWindowConfig, AdaptiveWindowTuner


def run_round_with_times(report_times, target=10, factor=1.3):
    sm = RoundStateMachine(
        1,
        "t",
        RoundConfig(
            target_participants=target,
            overselection_factor=factor,
            selection_timeout_s=60,
            reporting_timeout_s=600,
        ),
        0.0,
    )
    for d in range(sm.config.selection_goal):
        sm.on_checkin(d, 0.0)
    for d, t in enumerate(report_times):
        if sm.is_terminal:
            break
        sm.on_report(d, t)
    if not sm.is_terminal:
        sm.on_reporting_timeout(600.0)
    return sm.result()


def test_tuner_shrinks_oversized_window(rng):
    """Devices report within ~60s but the static window is 600s: the
    controller should pull the window down toward the p95 + headroom."""
    base = RoundConfig(target_participants=10, reporting_timeout_s=600.0)
    tuner = AdaptiveWindowTuner(base)
    for _ in range(20):
        times = np.sort(rng.uniform(20.0, 60.0, size=13))
        tuner.observe(run_round_with_times(times))
    tuned = tuner.tuned_config()
    assert tuned.reporting_timeout_s < 150.0
    assert tuned.reporting_timeout_s >= 60.0  # floor respected
    assert tuner.adjustments > 0


def test_tuner_grows_window_for_slow_fleets(rng):
    base = RoundConfig(target_participants=10, reporting_timeout_s=100.0)
    config = AdaptiveWindowConfig(max_reporting_s=2000.0)
    tuner = AdaptiveWindowTuner(base, config)
    for _ in range(20):
        times = np.sort(rng.uniform(200.0, 500.0, size=13))
        tuner.observe(run_round_with_times(times))
    assert tuner.tuned_config().reporting_timeout_s > 300.0


def test_tuner_waits_for_warmup(rng):
    base = RoundConfig(target_participants=10, reporting_timeout_s=600.0)
    tuner = AdaptiveWindowTuner(base, AdaptiveWindowConfig(warmup_rounds=10))
    for _ in range(3):
        tuner.observe(run_round_with_times(np.full(13, 30.0)))
    assert tuner.tuned_config().reporting_timeout_s == 600.0


def test_tuner_respects_bounds(rng):
    base = RoundConfig(target_participants=10, reporting_timeout_s=600.0)
    config = AdaptiveWindowConfig(min_reporting_s=90.0, max_reporting_s=120.0)
    tuner = AdaptiveWindowTuner(base, config)
    for _ in range(30):
        tuner.observe(run_round_with_times(np.full(13, 1.0)))
    assert tuner.tuned_config().reporting_timeout_s >= 90.0
    for _ in range(30):
        tuner.observe(run_round_with_times(np.full(13, 599.0)))
    assert tuner.tuned_config().reporting_timeout_s <= 120.0


def test_only_completers_count(rng):
    """Aborted/dropped devices must not poison the timing estimate."""
    base = RoundConfig(target_participants=5, reporting_timeout_s=600.0)
    tuner = AdaptiveWindowTuner(base)
    for _ in range(10):
        # 5 fast completers; the remaining selected devices never report
        # (their synthetic times are past the target count).
        times = [10.0, 11.0, 12.0, 13.0, 14.0]
        tuner.observe(run_round_with_times(times, target=5, factor=1.6))
    assert tuner.tuned_config().reporting_timeout_s < 100.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"target_quantile": 0.4},
        {"headroom": 0.9},
        {"min_reporting_s": 0.0},
        {"min_reporting_s": 100.0, "max_reporting_s": 50.0},
        {"smoothing": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        AdaptiveWindowConfig(**kwargs)
