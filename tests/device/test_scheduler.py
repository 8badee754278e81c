"""Multi-tenant worker queue and job schedule."""

import numpy as np
import pytest

from reference.scheduler import MultiTenantScheduler
from repro.device.scheduler import JobSchedule


def test_fifo_order():
    scheduler = MultiTenantScheduler()
    scheduler.enqueue("a")
    scheduler.enqueue("b")
    assert scheduler.try_start() == "a"
    scheduler.finish("a")
    assert scheduler.try_start() == "b"


def test_one_session_at_a_time():
    """Sec. 11: 'we avoid running training sessions on-device in parallel'."""
    scheduler = MultiTenantScheduler()
    scheduler.enqueue("a")
    scheduler.enqueue("b")
    assert scheduler.try_start() == "a"
    assert scheduler.try_start() is None
    scheduler.finish("a")
    assert scheduler.try_start() == "b"


def test_enqueue_coalesces_duplicates():
    scheduler = MultiTenantScheduler()
    assert scheduler.enqueue("a")
    assert not scheduler.enqueue("a")
    assert scheduler.try_start() == "a"
    assert not scheduler.enqueue("a")  # running -> coalesced
    scheduler.finish("a")
    assert scheduler.enqueue("a")


def test_finish_wrong_population_raises():
    scheduler = MultiTenantScheduler()
    scheduler.enqueue("a")
    scheduler.try_start()
    with pytest.raises(RuntimeError):
        scheduler.finish("b")


def test_abort_clears_running():
    scheduler = MultiTenantScheduler()
    scheduler.enqueue("a")
    scheduler.try_start()
    assert scheduler.abort() == "a"
    assert scheduler.running is None
    assert scheduler.sessions_completed == 0


def test_policy_validation():
    with pytest.raises(ValueError, match="policy"):
        MultiTenantScheduler(policy="priority")
    assert MultiTenantScheduler().policy == "fifo"
    assert MultiTenantScheduler(policy="fair_share").policy == "fair_share"


def test_remove_drops_queued_request():
    scheduler = MultiTenantScheduler()
    scheduler.enqueue("a")
    scheduler.enqueue("b")
    assert scheduler.remove("b")
    assert not scheduler.remove("b")  # idempotent
    assert not scheduler.is_queued("b")
    assert scheduler.try_start() == "a"
    scheduler.finish("a")
    assert scheduler.try_start() is None


def _burst_pattern(policy: str, cycles: int = 6) -> list[str]:
    """One device's runtime re-files both tenants' session requests each
    eligibility window — the chatty tenant always first — and each window
    fits exactly one session, after which the window closes and the
    unserved request expires (constraint-based job cancellation)."""
    scheduler = MultiTenantScheduler(policy=policy)
    started = []
    for _ in range(cycles):
        scheduler.enqueue("chatty")
        scheduler.enqueue("quiet")
        population = scheduler.try_start()
        assert population is not None
        started.append(population)
        scheduler.finish(population)
        scheduler.remove("chatty")
        scheduler.remove("quiet")
    return started


def test_fifo_burst_leader_starves_quiet_tenant():
    """The regression fair_share exists for: under FIFO, whichever tenant
    files first leads every burst, and with per-window request expiry the
    second tenant never runs at all."""
    assert _burst_pattern("fifo") == ["chatty"] * 6


def test_fair_share_round_robins_across_bursts():
    started = _burst_pattern("fair_share")
    assert started.count("chatty") == 3
    assert started.count("quiet") == 3
    # Strict alternation after the first pick: least-recently-started wins.
    assert started[:4] == ["chatty", "quiet", "chatty", "quiet"]


def test_fair_share_never_started_wins_in_enqueue_order():
    scheduler = MultiTenantScheduler(policy="fair_share")
    scheduler.enqueue("a")
    scheduler.enqueue("b")
    assert scheduler.try_start() == "a"
    scheduler.finish("a")
    scheduler.enqueue("a")
    scheduler.enqueue("c")  # never started -> beats a's recency
    assert scheduler.try_start() == "b"
    scheduler.finish("b")
    assert scheduler.try_start() == "c"
    scheduler.finish("c")
    assert scheduler.try_start() == "a"


def test_fair_share_expiry_does_not_reset_recency():
    scheduler = MultiTenantScheduler(policy="fair_share")
    scheduler.enqueue("chatty")
    assert scheduler.try_start() == "chatty"
    scheduler.finish("chatty")
    # The chatty tenant's unserved re-file expires with the window...
    scheduler.enqueue("chatty")
    scheduler.remove("chatty")
    # ...but it does not regain never-started priority over a first-timer.
    scheduler.enqueue("chatty")
    scheduler.enqueue("quiet")
    assert scheduler.try_start() == "quiet"


def test_job_schedule_jitter_bounds(rng):
    schedule = JobSchedule(base_interval_s=100.0, jitter_fraction=0.2)
    delays = [schedule.next_delay(rng) for _ in range(200)]
    assert all(80.0 <= d <= 120.0 for d in delays)
    assert np.std(delays) > 0


def test_job_schedule_next_delay_is_the_law_at_the_streams_next_uniform():
    """One jitter law, two callers: `next_delay` draws the uniform that
    `delay_at` (the idle drivers' busy-queue retry) takes — and the
    draw is bit-for-bit the `rng.uniform(lo, hi)` it used to be."""
    schedule = JobSchedule(base_interval_s=777.7, jitter_fraction=0.7)
    lo, hi = 777.7 * (1.0 - 0.7), 777.7 * (1.0 + 0.7)
    drawn, law, legacy = (np.random.default_rng(11) for _ in range(3))
    for _ in range(1000):
        delay = schedule.next_delay(drawn)
        assert delay == schedule.delay_at(float(law.random()))
        assert delay == float(legacy.uniform(lo, hi))
    assert schedule.delay_at(0.0) == lo
    assert schedule.delay_at(0.5) == pytest.approx(777.7)


def test_job_schedule_validation():
    with pytest.raises(ValueError):
        JobSchedule(base_interval_s=0)
    with pytest.raises(ValueError):
        JobSchedule(jitter_fraction=1.0)
