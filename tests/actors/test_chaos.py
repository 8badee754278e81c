"""Chaos tests: the deterministic fault-injection plane under sustained load.

Sec. 4.4's summary claim — "In all failure cases the system will continue
to make progress, either by completing the current round or restarting
from the results of the previously committed round" — driven through
``FLFleet.builder().faults(FaultPlan(...))``: randomized crashes across
every server actor kind, device-edge message drop/delay, checkpoint write
failures, and mid-session device interrupts, all drawn from pinned
``faults/...`` streams.  Because the plane is deterministic, chaos runs
are *reproducible*: same seed + same plan => byte-identical RunReport,
and a snapshot taken mid-chaos restores to a byte-identical tail.  The
chaos fleets run under ``fleet_laws``: Selector pool conservation,
waiting rows that are only rows, and the durable-write law after every
ten simulated minutes — with check-ins being dropped.
"""

import pickle
from collections import Counter
from functools import partial

import numpy as np
import pytest

from fleet_laws import run_checked
from repro import FLFleet, FaultPlan, RoundConfig, TaskConfig
from repro.actors import messages as msg
from repro.actors.aggregator import Aggregator
from repro.actors.master_aggregator import MasterAggregator
from repro.actors.selector import Selector
from repro.core.config import SecAggConfig
from repro.device.actor import DeviceActor
from repro.device.runtime import ComputeModel
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.network import NetworkModel
from repro.sim.population import PopulationConfig
from repro.system.config import SELECTOR_RESTART_DELAY_S
from repro.system.faults import CRASH_KINDS
from repro.system import (
    ActorCrashSchedule,
    CheckpointFaultConfig,
    DeviceInterruptSchedule,
    MessageFaultConfig,
)

CHAOS_PLAN = FaultPlan(
    crashes=(
        ActorCrashSchedule("selector", mean_interval_s=3600.0),
        ActorCrashSchedule("coordinator", mean_interval_s=5400.0),
        ActorCrashSchedule("master_aggregator", mean_interval_s=2700.0),
        ActorCrashSchedule("aggregator", mean_interval_s=2700.0),
    ),
    messages=MessageFaultConfig(drop_prob=0.01, delay_prob=0.02, delay_mean_s=2.0),
    checkpoint=CheckpointFaultConfig(write_failure_prob=0.25),
    device_interrupts=DeviceInterruptSchedule(mean_interval_s=1800.0),
)

CHAOS_HOURS = 8.0


def build_chaotic_fleet(seed=41, faults=CHAOS_PLAN, num_devices=300):
    task = TaskConfig(
        task_id="chaos/train",
        population_name="chaos",
        round_config=RoundConfig(
            target_participants=12, selection_timeout_s=60,
            reporting_timeout_s=120,
        ),
    )
    model = LogisticRegression(input_dim=4, n_classes=2)
    builder = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=num_devices))
        .selectors(3)
        .job(JobSchedule(900.0, 0.5))
        .population("chaos", tasks=[task], model=model.init(np.random.default_rng(0)))
    )
    if faults is not None:
        builder.faults(faults)
    return builder.build()


@pytest.fixture(scope="module")
def chaotic_fleet():
    fleet = build_chaotic_fleet()
    run_checked(fleet, CHAOS_HOURS * 3600.0)
    return fleet


@pytest.fixture(scope="module")
def chaos_report(chaotic_fleet):
    return chaotic_fleet.report()


def test_progress_despite_chaos(chaotic_fleet):
    assert chaotic_fleet.actors.crashes_injected >= 10
    assert len(chaotic_fleet.committed_rounds) >= 5


def test_recovery_ledger_populated(chaotic_fleet, chaos_report):
    rec = chaos_report.recovery
    # Every injected crash is attributed to an actor kind...
    assert rec.faults_total == chaotic_fleet.actors.crashes_injected
    assert rec.faults_by_kind["selector"] >= 1
    # ...and every crashed Selector came back (the cluster manager path).
    assert rec.selector_respawns == rec.faults_by_kind["selector"]
    assert rec.messages_dropped >= 1
    assert rec.messages_delayed >= 1
    assert rec.device_interrupts >= 1
    # Checkpoint ledger agrees with the store's own accounting.
    assert rec.checkpoint_write_faults == chaotic_fleet.store.failed_write_count
    assert rec.checkpoint_write_faults >= 1
    assert rec.rounds_committed == len(chaotic_fleet.committed_rounds)
    # Sec. 4.4 quantified: every crash was recovered from by a later
    # commit, in finite simulated time.
    assert rec.recoveries >= 1
    assert 0.0 < rec.mean_recovery_latency_s <= rec.max_recovery_latency_s


def test_dashboard_mirrors_ledger(chaotic_fleet, chaos_report):
    rec = chaos_report.recovery
    counters = chaotic_fleet.dashboard.counters()
    assert counters.get("recovery/selector_respawns", 0) == rec.selector_respawns
    assert counters.get("faults/messages_dropped", 0) == rec.messages_dropped
    assert counters.get("faults/checkpoint_writes", 0) == rec.checkpoint_write_faults


def test_checkpoint_history_stays_monotonic(chaotic_fleet):
    rounds = [c.round_number for c in chaotic_fleet.store.history("chaos")]
    assert rounds == sorted(rounds)
    assert len(set(rounds)) == len(rounds)


def test_single_coordinator_ownership_survives(chaotic_fleet):
    """The lock service guarantees one live owner per population."""
    owner = chaotic_fleet.locks.owner_of("coordinator/chaos")
    assert owner is not None
    assert owner.alive


def test_commit_count_matches_round_results(chaotic_fleet):
    """The Sec. 4.2 invariant under write faults + retries: exactly one
    *durable* write per committed round (plus the round-0 initialize);
    failed attempts land in ``failed_write_count`` only."""
    store = chaotic_fleet.store
    assert store.write_count == len(chaotic_fleet.committed_rounds) + 1
    assert store.failed_write_count >= 1


def test_device_fleet_unharmed(chaotic_fleet):
    """Server chaos never kills devices (they live at the edge): the
    device actors alive are exactly the devices in a session, and every
    device — in a session or only a row — answers when asked for."""
    spawned = {
        ref.actor_id
        for ref in chaotic_fleet.actors.living_actors()
        if isinstance(chaotic_fleet.actors.actor_of(ref), DeviceActor)
    }
    live = [device for device in chaotic_fleet.devices.rows() if device is not None]
    assert spawned == {device.ref.actor_id for device in live}
    assert chaotic_fleet.devices.constructions > len(live)
    assert len(chaotic_fleet.devices) == 300
    assert all(
        device.ref.alive == (device in live) and device.device_id == i
        for i, device in enumerate(chaotic_fleet.devices)
    )


def test_all_selectors_alive_after_chaos(chaotic_fleet):
    """The cluster manager restores the full Selector tier — no
    spare-the-last-selector special casing needed anymore."""
    assert len(chaotic_fleet.selectors) == 3
    assert all(ref.alive for ref in chaotic_fleet.selectors)


def test_chaos_is_deterministic(chaos_report):
    """Same seed + same FaultPlan => byte-identical RunReport."""
    rerun = build_chaotic_fleet()
    rerun.run_for(CHAOS_HOURS * 3600.0)
    report = rerun.report()
    assert report == chaos_report
    assert pickle.dumps(report) == pickle.dumps(chaos_report)


def test_snapshot_mid_chaos_restores_byte_identically(tmp_path):
    """Freezing a fleet mid-chaos freezes the *remaining* fault schedule:
    the restored fleet replays the tail byte-identically, and both match
    the uninterrupted run."""
    path = tmp_path / "chaos.snap"
    interrupted = build_chaotic_fleet(num_devices=150)
    interrupted.run_for(2 * 3600.0)
    interrupted.snapshot(path)
    interrupted.run_for(2 * 3600.0)
    report_a = interrupted.report()

    restored = FLFleet.restore(path)
    restored.run_for(2 * 3600.0)
    report_b = restored.report()
    assert report_a == report_b
    assert pickle.dumps(report_a) == pickle.dumps(report_b)

    uninterrupted = build_chaotic_fleet(num_devices=150)
    uninterrupted.run_for(4 * 3600.0)
    assert uninterrupted.report() == report_a


def test_disabled_plane_is_inert():
    """No plan => no plane: no hooks installed, no ``faults/...`` stream
    ever touched, and the recovery ledger reports all zeros."""
    fleet = build_chaotic_fleet(faults=None)
    fleet.run_for(3600.0)
    assert fleet.fault_plane is None
    assert fleet.actors.message_faults is None
    assert fleet.store.write_fault is None
    assert not any(name.startswith("faults/") for name in fleet.rngs._cache)
    rec = fleet.report().recovery
    assert rec.faults_total == 0
    assert rec.selector_respawns == 0
    assert rec.messages_dropped == rec.messages_delayed == 0
    assert rec.upload_retries == 0
    assert rec.checkpoint_write_faults == 0


def test_device_edge_faults_meet_only_device_edge_messages(monkeypatch):
    """A leaf hands each report and drop to its master in a call, not a
    message, so the fault plane's device-edge faults never hit that
    server-internal hop: every ``DeviceReport`` / ``DeviceDropped`` the
    plane consults targets a leaf Aggregator, and it consults one
    ``DeviceReport`` per report a device sent."""
    plan = FaultPlan(
        messages=MessageFaultConfig(drop_prob=0.05, delay_prob=0.05, delay_mean_s=2.0),
        device_interrupts=DeviceInterruptSchedule(mean_interval_s=600.0),
    )
    fleet = build_chaotic_fleet(faults=plan)
    system = fleet.actors
    kinds = {}
    spawn, tell, verdict = system.spawn, system.tell, system.message_faults

    def recording_spawn(actor, *args, **kwargs):
        ref = spawn(actor, *args, **kwargs)
        kinds[ref.actor_id] = type(actor)
        return ref

    sent = []

    def recording_tell(target, message, sender=None, extra_delay=0.0):
        if isinstance(message, msg.DeviceReport) and sender is not None:
            sent.append(kinds.get(sender.actor_id))
        tell(target, message, sender=sender, extra_delay=extra_delay)

    consulted = []

    def recording_verdict(target, message):
        consulted.append((type(message), kinds.get(target.actor_id)))
        return verdict(target, message)

    monkeypatch.setattr(system, "spawn", recording_spawn)
    monkeypatch.setattr(system, "tell", recording_tell)
    system.message_faults = recording_verdict
    fleet.run_for(3 * 3600.0)

    edge = [kind for message, kind in consulted
            if message in (msg.DeviceReport, msg.DeviceDropped)]
    reports = [kind for message, kind in consulted if message is msg.DeviceReport]
    assert len(reports) >= 50 and len(edge) > len(reports)
    assert MasterAggregator not in edge
    assert set(edge) == {Aggregator}
    assert set(sent) == {DeviceActor}
    assert len(reports) == len(sent)


def test_every_message_told_crosses_the_device_edge(monkeypatch):
    """Server actors call each other: with all five server actor kinds
    crashing, every message handed to ``ActorSystem.tell`` is one of the
    four device-edge types."""
    plan = FaultPlan(
        # A round-level victim exists only while a round runs: those
        # clocks tick often enough to find one.
        crashes=tuple(
            ActorCrashSchedule(kind, mean_interval_s=60.0 if "aggregator" in kind else 1200.0)
            for kind in CRASH_KINDS
        ),
        messages=MessageFaultConfig(drop_prob=0.01, delay_prob=0.02, delay_mean_s=2.0),
    )
    fleet = build_chaotic_fleet(faults=plan)
    system = fleet.actors
    told = Counter()
    tell = system.tell

    def recording_tell(target, message, sender=None, extra_delay=0.0):
        told[type(message)] += 1
        tell(target, message, sender=sender, extra_delay=extra_delay)

    monkeypatch.setattr(system, "tell", recording_tell)
    fleet.run_for(6 * 3600.0)

    assert set(fleet.report().recovery.faults_by_kind) == set(CRASH_KINDS)
    edge = {msg.ConfigureDevice, msg.DeviceReport, msg.DeviceDropped, msg.ReportAck}
    assert set(told) <= edge
    assert told[msg.ConfigureDevice] >= 50 and told[msg.ReportAck] >= 50


# -- control-plane sharding under chaos (ISSUE 10) --------------------------------

SHARDED_CHAOS_PLAN = FaultPlan(
    crashes=(
        ActorCrashSchedule("shard_aggregator", mean_interval_s=600.0),
        ActorCrashSchedule("selector", mean_interval_s=5400.0),
    ),
)


def build_sharded_chaotic_fleet(
    seed=43,
    faults=SHARDED_CHAOS_PLAN,
    shards=2,
    min_fraction=0.8,
    secagg_group=None,
):
    round_config = RoundConfig(
        target_participants=12,
        min_participant_fraction=min_fraction,
        selection_timeout_s=60,
        reporting_timeout_s=300,
    )
    secagg = (
        SecAggConfig(enabled=True, group_size=secagg_group)
        if secagg_group is not None
        else SecAggConfig()
    )
    task = TaskConfig(
        task_id="shardchaos/train",
        population_name="shardchaos",
        round_config=round_config,
        secagg=secagg,
    )
    model = LogisticRegression(input_dim=4, n_classes=2)
    builder = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=300))
        .selectors(4)
        .selector_shards(shards)
        .job(JobSchedule(900.0, 0.5))
        # A realistically slow compute model keeps rounds (and their
        # shard-aggregator trees) in flight for minutes of simulated
        # time, so the fixed-cadence crash stream actually lands on live
        # victims; with the default near-instant trainer the tree exists
        # for only a few seconds per round.
        .compute(ComputeModel(examples_per_second=5.0))
        .population(
            "shardchaos", tasks=[task], model=model.init(np.random.default_rng(0))
        )
    )
    if faults is not None:
        builder.faults(faults)
    return builder.build()


def test_shard_aggregator_crashes_are_injected_and_healed():
    fleet = build_sharded_chaotic_fleet()
    run_checked(fleet, CHAOS_HOURS * 3600.0)
    rec = fleet.report().recovery
    crashed = rec.faults_by_kind.get("shard_aggregator", 0)
    assert crashed >= 1
    # Every crash either healed (delayed respawn adopting the same
    # leaves) or cost exactly its own shard's fold — never more.
    assert rec.shard_aggregator_respawns >= 1
    assert rec.shard_aggregator_respawns + rec.shard_fold_aborts <= crashed
    # Sec. 4.4's bar: progress despite the chaos.
    assert len(fleet.committed_rounds) >= 3
    counters = fleet.dashboard.counters()
    assert (
        counters.get("recovery/shard_aggregator_respawns", 0)
        == rec.shard_aggregator_respawns
    )
    assert counters.get("recovery/shard_fold_aborts", 0) == rec.shard_fold_aborts


def test_sharded_chaos_is_deterministic():
    def run():
        fleet = build_sharded_chaotic_fleet()
        fleet.run_for(4 * 3600.0)
        return fleet.report()

    report_a, report_b = run(), run()
    assert report_a == report_b
    assert pickle.dumps(report_a) == pickle.dumps(report_b)


def _run_until_sharded_round(fleet, name="shardchaos", cap_hours=6.0):
    """Step simulated time until a round is in flight with live shard
    aggregators and at least one accepted report; returns the master."""
    runtime = fleet.lifecycle.active[name]
    for _ in range(int(cap_hours * 3600 / 15)):
        fleet.run_for(15.0)
        coordinator = fleet.lifecycle._coordinator_actor(runtime)
        if coordinator is None or coordinator.active_master is None:
            continue
        master = fleet.actors.actor_of(coordinator.active_master)
        if (
            master is not None
            and master.shard_aggregators
            and master.state.completed_count >= 1
        ):
            return master
    raise AssertionError("no sharded round reached reporting in time")


def test_crashed_shard_aggregator_aborts_only_its_shard_fold():
    """The failure-isolation bar: a shard aggregator still down when its
    round folds costs that shard's partial and nothing else — the other
    shards' reports commit the round."""
    # SecAgg with small groups gives the round several leaves, so the
    # tree gets multiple shard nodes and "the other shards" is nonempty;
    # a low min-participant fraction lets the round commit without the
    # crashed shard's devices.
    fleet = build_sharded_chaotic_fleet(
        faults=None, min_fraction=0.25, secagg_group=6
    )
    # Pin the heal far past the fold: the crash must still be open when
    # the round closes.  A master registers its shards' restarts when it
    # spawns them, so the delay is bound before any round starts.
    coordinator = fleet.actors.actor_of(fleet.coordinators["shardchaos"])
    coordinator.make_master = partial(
        coordinator.make_master, shard_restart_delay_s=1e9
    )
    master = _run_until_sharded_round(fleet)
    assert len(master.shard_aggregators) >= 2
    round_id = master.round_id
    fleet.actors.crash(master.shard_aggregators[0])
    fleet.run_for(2 * 3600.0)
    rec = fleet.report().recovery
    assert rec.shard_fold_aborts == 1  # exactly the crashed shard
    assert rec.shard_aggregator_respawns == 0
    result = next(r for r in fleet.round_results if r.round_id == round_id)
    # The round closed with the surviving shards' contributions.
    assert result.completed_count >= 1
    # Later rounds are untouched: fresh trees, full folds.
    later = [r for r in fleet.round_results if r.round_id > round_id]
    assert any(r.committed for r in later)


def test_respawned_shard_aggregator_recovers_the_fold():
    """The healing path: with the default restart delay the replacement
    node adopts the same leaves before the round folds, so the crash
    costs nothing — no fold abort, same commit."""
    fleet = build_sharded_chaotic_fleet(
        faults=None, min_fraction=0.25, secagg_group=6
    )
    master = _run_until_sharded_round(fleet)
    round_id = master.round_id
    fleet.actors.crash(master.shard_aggregators[-1])
    fleet.run_for(2 * 3600.0)
    rec = fleet.report().recovery
    assert rec.shard_aggregator_respawns == 1
    assert rec.shard_fold_aborts == 0
    result = next(r for r in fleet.round_results if r.round_id == round_id)
    assert result.committed


def test_respawned_selectors_are_addressed_by_every_coordinator(monkeypatch):
    """A Selector respawn swaps one entry of the fleet's live Selector
    list and patches nothing else: every live Coordinator's Selectors are
    its shard's entries of that list — one respawned by the Sec. 4.4 lock
    race while the Selector was down included — and the next round's
    forwarding call reaches the replacement."""
    tenants = ("t0", "t1", "t2")
    builder = (
        FLFleet.builder()
        .seed(45)
        .devices(PopulationConfig(num_devices=300))
        .selectors(4)
        .selector_shards(2)
        .job(JobSchedule(900.0, 0.5))
    )
    model = LogisticRegression(input_dim=4, n_classes=2)
    for name in tenants:
        task = TaskConfig(
            task_id=f"{name}/train",
            population_name=name,
            round_config=RoundConfig(
                target_participants=8, selection_timeout_s=60,
                reporting_timeout_s=150,
            ),
        )
        builder.population(name, tasks=[task], model=model.init(np.random.default_rng(0)))
    fleet = builder.build()
    lifecycle = fleet.lifecycle

    forwards = []  # (tenant, round, called Selector, alive when called)
    receive = Selector.receive

    def spy(selector, sender, start):
        # One call per round start: the shard's live Selectors, all at once.
        for target in start.selectors:
            forwards.append((
                start.instruction.population_name, start.instruction.round_id, target.ref,
                fleet.actors.is_alive(target.ref),
            ))
        receive(selector, sender, start)

    monkeypatch.setattr(Selector, "receive", spy)

    def coordinator_of(name):
        return lifecycle._coordinator_actor(lifecycle.active[name])

    def assert_addressed():
        for name in tenants:
            assert coordinator_of(name).selectors == fleet.shard_selectors(name)

    def next_round_reaches(name, replacement):
        """Run until a round of ``name`` starts after now; its
        Coordinator called the shard's live Selectors only."""
        seen = len(forwards)
        for _ in range(int(6 * 3600 / 60)):
            fleet.run_for(60.0)
            started = [f for f in forwards[seen:] if f[0] == name]
            if started:
                round_id = started[0][1]
                targets = [(t, alive) for n, r, t, alive in started if r == round_id]
                assert sorted(t.actor_id for t, _ in targets) == sorted(
                    ref.actor_id for ref in fleet.shard_selectors(name)
                )
                assert all(alive for _, alive in targets)
                assert replacement in [t for t, _ in targets]
                return
        raise AssertionError(f"no round of {name!r} started in time")

    fleet.run_for(2 * 3600.0)
    delay = SELECTOR_RESTART_DELAY_S
    # Selectors crash, one per shard: each respawn swaps one list entry.
    for index in (0, 1):
        dead = fleet.selectors[index]
        fleet.actors.crash(dead)
        fleet.run_for(delay + 1.0)
        assert fleet.selectors[index] != dead and fleet.selectors[index].alive
        assert_addressed()
        owner = next(n for n in tenants if index in fleet.shard_selector_indices(n))
        next_round_reaches(owner, fleet.selectors[index])
        assert_addressed()

    # A Coordinator crashes while one of its Selectors is down: the
    # lifecycle plane respawns it at once, from the list as it is then —
    # the dead entry still in it.
    name = "t0"
    index = fleet.shard_selector_indices(name)[0]
    dead = fleet.selectors[index]
    fleet.actors.crash(dead)
    crashed = fleet.coordinators[name]
    fleet.actors.crash(crashed)
    fleet.run_for(1.0)
    assert fleet.selectors[index] == dead
    respawned = fleet.coordinators[name]
    assert respawned.alive and respawned != crashed
    assert fleet.report().recovery.coordinator_respawns == 1
    fleet.run_for(delay)
    replacement = fleet.selectors[index]
    assert replacement != dead and replacement.alive
    assert fleet.coordinators[name] == respawned
    assert_addressed()
    assert replacement in coordinator_of(name).selectors
    next_round_reaches(name, replacement)
    assert fleet.report().recovery.selector_respawns == 3


def test_upload_retry_recovers_transient_failures():
    """A zero-rate FaultPlan still turns on bounded-retry recovery: with a
    lossy network, devices retry uploads with backoff, the meter counts
    the re-sent bytes, and the ledger surfaces the totals."""
    task = TaskConfig(
        task_id="retry/train",
        population_name="retry",
        round_config=RoundConfig(
            target_participants=12, selection_timeout_s=60,
            reporting_timeout_s=240,
        ),
    )
    model = LogisticRegression(input_dim=4, n_classes=2)
    network = NetworkModel(transfer_failure_prob=0.2)
    fleet = (
        FLFleet.builder()
        .seed(7)
        .devices(PopulationConfig(num_devices=200))
        .selectors(2)
        .job(JobSchedule(900.0, 0.5))
        .network(network)
        .faults(FaultPlan())  # no injection; retry policies only
        .population("retry", tasks=[task], model=model.init(np.random.default_rng(0)))
        .build()
    )
    fleet.run_for(4 * 3600.0)
    rec = fleet.report().recovery
    assert rec.upload_retries >= 1
    assert rec.upload_retries == sum(
        d.health.upload_retries for d in fleet.devices
    )
    assert rec.upload_retries_exhausted == sum(
        d.health.upload_retries_exhausted for d in fleet.devices
    )
    meter = network.meter
    assert meter.retry_count == rec.upload_retries
    assert meter.retried_bytes > 0
    # Retried-then-delivered sessions end in an ERROR-but-recovered shape,
    # not a drop: transient errors outnumber exhausted ones.
    assert rec.upload_retries > rec.upload_retries_exhausted
