"""Population lifecycle plane: attach/drain tenants on a live fleet plus
checkpointed fleet restarts.

The correctness bars (ISSUE 5):

* ``attach_population`` on a *running* fleet commits rounds for the new
  tenant;
* ``drain_population`` ends with zero device-side sessions/memberships
  for the tenant and Selectors reporting no route;
* ``FLFleet.restore(snapshot)`` then ``run_days(d)`` reports exactly what
  the uninterrupted fleet reports over the same horizon;
* same seed + same attach/drain script => byte-identical ``RunReport``,
  whatever the training-plane lever says.
"""

import pickle

import numpy as np
import pytest

from repro import (
    FaultPlan,
    FLFleet,
    FleetValidationError,
    PopulationSpec,
    PopulationState,
    RoundConfig,
    TaskConfig,
)
from repro.actors.coordinator import CoordinatorConfig
from repro.core.config import ClientTrainingConfig
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression, MLPClassifier
from repro.sim.diurnal import DiurnalModel
from repro.sim.idle_plane import VectorizedIdlePlane
from repro.sim.population import PopulationConfig
from repro.system import lifecycle
from repro.system import (
    ActorCrashSchedule,
    DeviceInterruptSchedule,
    MessageFaultConfig,
    SnapshotError,
    read_manifest,
)
from repro.system.fleet import SyntheticTrainerFactory
from repro.system.lifecycle import SNAPSHOT_FORMAT_VERSION

HOUR = 3600.0

KBD_MODEL = LogisticRegression(input_dim=4, n_classes=3)
KBD_INIT = KBD_MODEL.init(np.random.default_rng(0))
STATS_MODEL = LogisticRegression(input_dim=2, n_classes=2)
STATS_INIT = STATS_MODEL.init(np.random.default_rng(1))


def round_config(target=8):
    return RoundConfig(
        target_participants=target,
        selection_timeout_s=60,
        reporting_timeout_s=150,
    )


def task_for(name, task="train"):
    return TaskConfig(
        task_id=f"{name}/{task}",
        population_name=name,
        round_config=round_config(),
    )


def stats_spec(membership=0.5):
    return PopulationSpec(
        name="stats",
        tasks=[task_for("stats")],
        initial_params=STATS_INIT,
        membership_fraction=membership,
    )


def build_fleet(seed=5, devices=150, **levers):
    builder = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(2)
        .job(JobSchedule(900.0, 0.5))
        .population("kbd", tasks=[task_for("kbd")], model=KBD_INIT)
    )
    for lever, value in levers.items():
        getattr(builder, lever)(value)
    return builder.build()


# -- attach on a live fleet -------------------------------------------------------


def test_attach_population_mid_run_commits_rounds():
    fleet = build_fleet()
    fleet.run_for(2 * HOUR)
    before = fleet.report()
    assert before.population_names == ("kbd",)

    runtime = fleet.attach_population(stats_spec())
    assert runtime.state is PopulationState.ATTACHED
    assert runtime.attached_at_s == 2 * HOUR
    assert runtime.members.size
    for selector in fleet.selector_actors():
        assert "stats" in selector.routes
    assert fleet.population_names == ("kbd", "stats")

    fleet.run_for(3 * HOUR)
    report = fleet.report()
    stats = report.population("stats")
    assert stats.rounds_committed > 0
    assert stats.device_sessions > 0
    # The incumbent keeps training, and round ids never collide.
    assert report.population("kbd").rounds_committed > before.rounds_committed
    kbd_ids = {r.round_id for r in fleet.results_for("kbd")}
    stats_ids = {r.round_id for r in fleet.results_for("stats")}
    assert kbd_ids and stats_ids and kbd_ids.isdisjoint(stats_ids)
    # Only member devices ever ran a stats session.
    members = fleet.members_of("stats")
    for device in fleet.devices:
        if device.health.sessions_by_population.get("stats", 0):
            assert device.device_id in members


def test_attach_with_pinned_member_ids():
    fleet = build_fleet()
    fleet.run_for(HOUR)
    runtime = fleet.attach_population(
        stats_spec(), member_ids=[3, 14, 15, 92, 65, 35]
    )
    assert runtime.members.tolist() == [3, 14, 15, 35, 65, 92]
    for device_id in runtime.members.tolist():
        assert "stats" in fleet.devices[device_id].memberships


@pytest.mark.parametrize(
    "member_ids", [[3.9, True, 7.2], [3, 4.0], [float("nan")], [np.float64(5.0)]]
)
def test_attach_refuses_non_integral_member_ids(member_ids):
    """A pinned member id is an integer or refused, by name, before the
    attach writes anything — ``[3.9, True, 7.2]`` is not devices 3, 1, 7."""
    fleet = build_fleet()
    with pytest.raises(FleetValidationError, match="is not an integer") as refused:
        fleet.attach_population(stats_spec(), member_ids=member_ids)
    offender = next(
        i for i in member_ids
        if isinstance(i, bool) or not float(i).is_integer()
        or not isinstance(i, int)
    )
    assert repr(offender) in str(refused.value)
    assert "stats" not in fleet.population_names
    assert not fleet.store.has_checkpoint("stats")
    # Integers of any integral type are ids.
    runtime = fleet.attach_population(stats_spec(), member_ids=np.array([7, 3, 7]))
    assert runtime.members.tolist() == [3, 7]


def test_trainer_of_is_a_position_lookup_that_keeps_nothing():
    """A tenant holds its members as one sorted row array and its
    trainers as one list in that order — no per-member set or dict — and
    resolving a trainer allocates nothing that outlives the call."""
    import tracemalloc

    fleet = build_fleet()
    runtime = fleet.attach_population(stats_spec(), member_ids=[92, 3, 14, 65])
    lifecycle = fleet.lifecycle
    assert runtime.members.tolist() == [3, 14, 65, 92]
    assert len(runtime.trainers) == runtime.members.size
    assert not any(isinstance(v, (set, dict)) for v in vars(runtime).values())
    for position, device_id in enumerate(runtime.members.tolist()):
        assert lifecycle.trainer_of(device_id, "stats") is runtime.trainers[position]
    for outsider in (0, 4, 93, 149):
        with pytest.raises(KeyError):
            lifecycle.trainer_of(outsider, "stats")
    calls = [65] * 1000
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for device_id in calls:
            lifecycle.trainer_of(device_id, "stats")
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after == before and peak - before < 1024


def test_attach_validation():
    # Before the fleet exists, attach has nowhere to go.
    with pytest.raises(RuntimeError, match="build the fleet"):
        FLFleet().attach_population(stats_spec())
    fleet = build_fleet()
    with pytest.raises(FleetValidationError, match="already attached"):
        fleet.attach_population(
            PopulationSpec(
                name="kbd", tasks=[task_for("kbd")], initial_params=KBD_INIT
            )
        )
    with pytest.raises(FleetValidationError, match="unknown member device"):
        fleet.attach_population(stats_spec(), member_ids=[10_000])
    with pytest.raises(FleetValidationError, match="no member devices"):
        fleet.attach_population(stats_spec(membership=1e-9))


@pytest.mark.parametrize("membership", [1.5, 0.0, -0.5, float("nan")])
def test_attach_membership_override_obeys_the_fields_bounds(membership):
    """``membership=`` overrides the spec's fraction through the field's
    own rule: out of (0, 1] it is refused by name, before anything is
    written — not clamped to every device, not reported as an empty
    membership."""
    fleet = build_fleet()
    with pytest.raises(FleetValidationError, match=r"membership_fraction must be in \(0, 1\]"):
        fleet.attach_population(stats_spec(), membership=membership)
    assert fleet.lifecycle.find("stats") is None
    assert not fleet.store.has_checkpoint("stats")


def test_builder_populations_go_through_attach():
    """Builder-time populations are 'attach before start' — same runtime
    records, same code path, no second wiring."""
    fleet = build_fleet()
    runtime = fleet.lifecycle.runtime("kbd")
    assert runtime.state is PopulationState.ATTACHED
    assert runtime.attached_at_s == 0.0
    assert runtime.index == 0


# -- drain -----------------------------------------------------------------------


def drained_postconditions(fleet, name):
    for selector in fleet.selector_actors():
        assert name not in selector.routes
    for device in fleet.devices:
        assert name not in device.memberships
        with pytest.raises(KeyError):
            device.trainer_of(name)
        assert device._active_population != name
        assert device.scheduler.running != name
        assert not device.scheduler.is_queued(name)
    assert name not in fleet.population_names
    assert name not in fleet.coordinators
    assert name not in fleet.cohort_planes


def test_drain_population_retires_cleanly():
    fleet = build_fleet()
    fleet.run_for(HOUR)
    fleet.attach_population(stats_spec())
    fleet.run_for(2 * HOUR)
    committed_before = fleet.report().population("stats").rounds_committed
    assert committed_before > 0

    report = fleet.drain_population("stats", deadline_s=2 * HOUR)
    assert report.clean
    assert report.forced_session_interrupts == 0
    assert not report.forced_round_abort
    assert report.rounds_committed >= committed_before
    assert report.drained_at_s <= report.drain_started_at_s + 2 * HOUR
    drained_postconditions(fleet, "stats")
    # The final committed checkpoint survives the tenant.
    final = fleet.store.latest("stats")
    assert final.round_number == report.final_round_number
    assert fleet.global_model("stats").num_parameters == STATS_INIT.num_parameters

    # With one hosted tenant left, implicit global_model() resolves to it
    # (the retired tenant stays reachable by name only).
    assert (
        fleet.global_model().num_parameters
        == fleet.global_model("kbd").num_parameters
    )

    # The fleet keeps running for the remaining tenant, and the drained
    # tenant's history stays in the run report.
    kbd_before = fleet.report().population("kbd").rounds_committed
    fleet.run_for(2 * HOUR)
    after = fleet.report()
    assert after.population("kbd").rounds_committed > kbd_before
    assert after.population("stats").rounds_committed == report.rounds_committed
    assert fleet.lifecycle.find("stats").state is PopulationState.DRAINED


def test_drain_zero_deadline_forces_stragglers():
    """deadline_s=0 skips the quiesce phase entirely: whatever is in
    flight is forcibly terminated, and the postconditions still hold."""
    fleet = build_fleet()
    fleet.attach_population(stats_spec(membership=1.0))
    # Run until some device is mid-session for the tenant so the force
    # path has something to interrupt.
    for _ in range(2000):
        fleet.run_for(60.0)
        if any(d._active_population == "stats" for d in fleet.devices):
            break
    else:
        pytest.fail("no stats session ever started")
    report = fleet.drain_population("stats", deadline_s=0.0)
    assert not report.clean
    assert report.forced_session_interrupts > 0 or report.forced_round_abort
    assert report.drained_at_s == report.drain_started_at_s
    drained_postconditions(fleet, "stats")
    # Forced interrupts surface in device health as interrupted rounds.
    fleet.run_for(HOUR)  # the fleet keeps running fine afterwards
    assert fleet.report().population("kbd").rounds_committed > 0


def test_drain_validation():
    fleet = build_fleet()
    with pytest.raises(FleetValidationError, match="not attached"):
        fleet.drain_population("nope")
    # A deadline that is no bound at all voids the forced-termination
    # guarantee: refused before the tenant leaves ATTACHED.
    for no_bound in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="deadline_s"):
            fleet.drain_population("kbd", deadline_s=no_bound)
    assert fleet.lifecycle.runtime("kbd").state is PopulationState.ATTACHED
    fleet.drain_population("kbd")
    with pytest.raises(FleetValidationError, match="not attached"):
        fleet.drain_population("kbd")


def test_failed_attach_leaves_no_server_state(monkeypatch):
    """Attach is atomic: if plan generation blows up mid-attach, no
    checkpoint, index, or registry entry survives."""
    fleet = build_fleet()
    fleet.run_for(HOUR)
    index_before = fleet.lifecycle._next_index
    writes_before = fleet.store.write_count

    def explode(**kwargs):
        raise RuntimeError("plan compiler fell over")

    monkeypatch.setattr("repro.system.lifecycle.generate_plan", explode)
    with pytest.raises(RuntimeError, match="plan compiler"):
        fleet.attach_population(stats_spec())
    assert not fleet.store.has_checkpoint("stats")
    assert fleet.store.write_count == writes_before
    assert fleet.lifecycle._next_index == index_before
    assert "stats" not in fleet.population_names
    monkeypatch.undo()
    # The fleet is undamaged: the same attach succeeds afterwards.
    fleet.attach_population(stats_spec())
    fleet.run_for(2 * HOUR)
    assert fleet.report().population("stats").rounds_committed > 0


class RecordingFactory:
    """The default factory, recording every profile it is called with."""

    def __init__(self, params):
        self.profiles = []
        self.default = SyntheticTrainerFactory(params.num_parameters)

    def __call__(self, profile):
        self.profiles.append(profile)
        return self.default(profile)


@pytest.mark.parametrize("tenants", [1, 3])
def test_factories_see_each_member_once_in_device_id_order(monkeypatch, tenants):
    """Each factory is called once per member, in device-id order, with the
    member's profile.  One builder tenant and a live attach stream their
    members' profiles a chunk at a time; several builder tenants share one
    build of every row's."""
    monkeypatch.setattr(lifecycle, "PROFILE_CHUNK_ROWS", 7)
    built = []  # rows of each bulk profile build
    profiles = VectorizedIdlePlane.profiles

    def recording(plane, rows):
        built.append(len(plane._device_id[rows]))
        return profiles(plane, rows)

    monkeypatch.setattr(VectorizedIdlePlane, "profiles", recording)

    def assert_called_per_member(factory, runtime):
        members = runtime.members.tolist()
        assert [profile.device_id for profile in factory.profiles] == members
        assert factory.profiles == [fleet.profiles[row] for row in members]
        assert len(runtime.trainers) == len(members)

    builder = (
        FLFleet.builder()
        .seed(5)
        .devices(PopulationConfig(num_devices=150))
        .job(JobSchedule(900.0, 0.5))
    )
    factories = {f"t{i}": RecordingFactory(KBD_INIT) for i in range(tenants)}
    for name, factory in factories.items():
        builder.population(name, tasks=[task_for(name)], model=KBD_INIT,
                           trainer_factory=factory, membership=0.6)
    fleet = builder.build()
    if tenants == 1:
        assert max(built) == 7
        assert sum(built) == fleet.lifecycle.runtime("t0").members.size
    else:
        assert built == [150]
    for name, factory in factories.items():
        assert_called_per_member(factory, fleet.lifecycle.runtime(name))

    fleet.run_for(HOUR)
    built.clear()
    spec = stats_spec()
    spec.trainer_factory = live = RecordingFactory(STATS_INIT)
    runtime = fleet.attach_population(spec)
    assert max(built) == 7 and sum(built) == runtime.members.size
    assert_called_per_member(live, runtime)


class ExplodingFactory:
    def __call__(self, profile):
        raise RuntimeError("no trainer for you")


def test_failed_trainer_factory_leaves_fleet_untouched():
    """User trainer factories run before any server state is written, so
    a raising factory cannot leave a half-enrolled tenant behind."""
    fleet = build_fleet()
    fleet.run_for(HOUR)
    spec = stats_spec()
    spec.trainer_factory = ExplodingFactory()
    with pytest.raises(RuntimeError, match="no trainer"):
        fleet.attach_population(spec)
    assert "stats" not in fleet.population_names
    assert not fleet.store.has_checkpoint("stats")
    for selector in fleet.selector_actors():
        assert "stats" not in selector.routes
    for device in fleet.devices:
        assert "stats" not in device.memberships
    # The same name attaches cleanly afterwards — and samples the exact
    # member set an untroubled attach would have (the failed attempt
    # consumed nothing from the tenant's membership stream).
    reference = build_fleet()
    reference.run_for(HOUR)
    expected_members = reference.attach_population(stats_spec()).members
    runtime = fleet.attach_population(stats_spec())
    assert np.array_equal(runtime.members, expected_members)
    fleet.run_for(2 * HOUR)
    assert fleet.report().population("stats").rounds_committed > 0


def test_refused_spec_leaves_no_half_attached_tenant():
    """An out-of-range round config never reaches attach's writes.  A NaN
    ``target_participants`` used to get as far as ``PopulationSpec.
    pool_cap`` — after the round-0 checkpoint, with the tenant already in
    ``lifecycle.active`` — and die there untyped.  Now it is refused by
    name when the config is constructed, and one slipped into a frozen
    config afterwards is refused by attach's re-check of the spec."""
    fleet = build_fleet()
    fleet.run_for(HOUR)

    def state():
        return (
            list(fleet.lifecycle.active),
            fleet.store.write_count,
            fleet.store.has_checkpoint("stats"),
            [sorted(selector.routes) for selector in fleet.selector_actors()],
        )

    before = state()
    with pytest.raises(ValueError, match="target_participants must"):
        fleet.attach_population(
            PopulationSpec(
                name="stats",
                tasks=[TaskConfig(
                    task_id="stats/train", population_name="stats",
                    round_config=RoundConfig(target_participants=float("nan")),
                )],
                initial_params=STATS_INIT,
            )
        )
    assert state() == before
    spec = stats_spec()
    object.__setattr__(
        spec.tasks[0].round_config, "target_participants", float("nan")
    )
    with pytest.raises(FleetValidationError, match="target_participants must"):
        fleet.attach_population(spec)
    assert state() == before
    # The fleet is undamaged: the same name attaches cleanly afterwards.
    fleet.attach_population(stats_spec())
    assert fleet.population_names == ("kbd", "stats")


def test_failed_snapshot_preserves_existing_file(tmp_path):
    """Snapshots write-then-rename: a pickling failure must not clobber a
    good snapshot already at the path (nor leave a truncated one)."""
    path = tmp_path / "fleet.snap"
    fleet = build_fleet(seed=3, devices=60)
    fleet.run_for(HOUR)
    good = fleet.snapshot(path)

    broken = build_fleet(seed=4, devices=40)
    broken.run_for(HOUR)
    spec = stats_spec()
    spec.trainer_factory = lambda profile: None  # closure: unpicklable
    broken.attach_population(spec)
    with pytest.raises(SnapshotError, match="not picklable"):
        broken.snapshot(path)
    # The original snapshot survives intact.
    assert read_manifest(path) == good
    assert FLFleet.restore(path).loop.now == HOUR
    assert not list(tmp_path.glob("*.tmp-*"))


def test_drain_handles_respawned_coordinator():
    """A Sec. 4.4 respawn replaces the coordinator behind the lifecycle
    plane's back; drain must gate and retire the *live* incarnation, not
    the stale recorded ref."""
    fleet = build_fleet()
    fleet.run_for(HOUR)
    original_ref = fleet.coordinators["kbd"]
    fleet.actors.crash(original_ref)
    fleet.run_for(HOUR)  # selectors respawn the coordinator via the lock
    live = fleet.locks.owner_of("coordinator/kbd")
    assert live is not None and live != original_ref and live.alive

    report = fleet.drain_population("kbd", deadline_s=2 * HOUR)
    drained_postconditions(fleet, "kbd")
    # The live incarnation was actually stopped and its lock released.
    assert not live.alive
    assert fleet.locks.owner_of("coordinator/kbd") is None
    rounds_at_drain = fleet.report().rounds_total
    fleet.run_for(2 * HOUR)
    assert fleet.report().rounds_total == rounds_at_drain  # no zombie rounds
    assert report.rounds_committed > 0


def test_late_message_for_drained_population_is_not_misrouted():
    """A forwarding call naming a removed population reaches no route —
    not the single surviving one: every caller names its tenant, and a
    Selector routes by that name alone."""
    from repro.actors.selector import Forwarding

    fleet = build_fleet()
    fleet.attach_population(stats_spec())
    fleet.run_for(2 * HOUR)
    fleet.drain_population("stats")
    selector = fleet.selector_actors()[0]
    (survivor,) = selector.routes.values()
    forwarding = survivor.forwarding
    pool = selector.connected_count_for(survivor.population_name)
    late = Forwarding(
        round_id=-1, task_id="stats/t", count=5, master=selector.ref,
        population_name="stats",
    )
    selector.receive(None, late)
    selector.clear_forwarding("stats", -1)
    selector.admitted("stats", np.arange(3))
    assert "stats" not in selector.routes
    assert selector.connected_count_for("stats") == 0
    assert survivor.forwarding is forwarding
    assert selector.connected_count_for(survivor.population_name) == pool


def test_reattach_same_name_after_drain():
    # 300 devices, not the 100 this test used to build: with ~50 members
    # at the afternoon availability trough, whether "stats" commits at
    # all inside two hours is trajectory luck.  Seeds 1-12, rounds the
    # first incarnation committed: at 100 devices 0 at 7 seeds and 1 at
    # two (seed 5 among them) before the idle draws moved to row streams,
    # 0 at 10 seeds after; at 300 devices 42-81 at every seed (and 68-98
    # for the re-attached incarnation).
    fleet = build_fleet(devices=300)
    fleet.run_for(HOUR)
    fleet.attach_population(stats_spec())
    fleet.run_for(2 * HOUR)
    first = fleet.drain_population("stats")
    assert first.rounds_committed > 0

    first_final = fleet.store.latest("stats").round_number

    second_runtime = fleet.attach_population(stats_spec())
    assert second_runtime.index == 2  # indices are never reused
    # The new incarnation's initial checkpoint lands at its round-id
    # base: monotonic past the drained incarnation's final commit, whose
    # record stays in the store's log.
    assert fleet.store.latest("stats").round_number == 2_000_000
    history_rounds = [c.round_number for c in fleet.store.history("stats")]
    assert history_rounds == sorted(history_rounds)
    assert first_final in history_rounds
    fleet.run_for(2 * HOUR)
    report = fleet.report()
    stats_reports = [p for p in report.populations if p.name == "stats"]
    assert len(stats_reports) == 2
    assert stats_reports[1].rounds_committed > 0
    # The name-keyed accessor resolves to the *live* incarnation.
    assert report.population("stats") == stats_reports[1]
    # Round ids of the two incarnations live in disjoint ranges.
    second_ids = {r.round_id for r in second_runtime.results}
    assert all(r > 2_000_000 for r in second_ids)
    # A snapshot manifest keeps the incarnations' headline rounds apart:
    # the drained entry reports its own last commit, not the re-attached
    # incarnation's store-latest.
    from repro.system.lifecycle import build_manifest

    entries = [
        e for e in build_manifest(fleet).populations if e.name == "stats"
    ]
    assert entries[0].state == "drained"
    assert entries[0].round_number == first_final
    assert entries[1].state == "attached"
    assert entries[1].round_number > 2_000_000


# -- determinism across attach/drain scripts -------------------------------------


def scripted_run(seed):
    fleet = build_fleet(seed=seed)
    fleet.run_for(2 * HOUR)
    fleet.attach_population(stats_spec())
    fleet.run_for(3 * HOUR)
    drain = fleet.drain_population("stats", deadline_s=HOUR)
    fleet.run_for(2 * HOUR)
    return fleet, drain


def test_attach_drain_script_is_deterministic():
    fleet_a, drain_a = scripted_run(29)
    fleet_b, drain_b = scripted_run(29)
    assert drain_a == drain_b
    assert fleet_a.report() == fleet_b.report()
    assert fleet_a.loop.events_processed == fleet_b.loop.events_processed


def test_differently_seeded_scripts_differ():
    fleet_a, _ = scripted_run(29)
    fleet_b, _ = scripted_run(31)
    assert fleet_a.report() != fleet_b.report()


# -- training-plane byte-identity across the lifecycle ---------------------------

REAL_MODEL = MLPClassifier(input_dim=8, hidden_dims=(6,), n_classes=3)
REAL_INIT = REAL_MODEL.init(np.random.default_rng(2))


class InlineTrainer(RealTrainer):
    """The per-device oracle: without ``attach_cohort_plane`` the fleet
    cannot enroll it in a cohort plane, so its sessions train inline."""

    attach_cohort_plane = None


class RealTrainerFactory:
    """Module-level (hence picklable) factory: per-device data pinned by
    device id, full minibatches (row-exact cohort kernels)."""

    def __init__(self, trainer_cls=RealTrainer):
        self.trainer_cls = trainer_cls

    def __call__(self, profile):
        data_rng = np.random.default_rng(7_000 + profile.device_id)
        store = ExampleStore(ttl_s=None)
        store.add_batch(
            data_rng.normal(size=(48, 8)),
            data_rng.integers(0, 3, size=48),
            timestamp_s=0.0,
        )
        return self.trainer_cls(model=REAL_MODEL, store=store)


def real_spec(trainer_cls=RealTrainer):
    return PopulationSpec(
        name="ranker",
        tasks=[
            TaskConfig(
                task_id="ranker/train",
                population_name="ranker",
                round_config=round_config(),
                client_config=ClientTrainingConfig(
                    epochs=2, batch_size=8, learning_rate=0.1
                ),
            )
        ],
        initial_params=REAL_INIT,
        trainer_factory=RealTrainerFactory(trainer_cls),
        membership_fraction=0.8,
    )


def real_scripted_run(trainer_cls):
    fleet = build_fleet(
        seed=11,
        devices=60,
        diurnal=DiurnalModel(
            amplitude=0.0,
            base_eligible_fraction=0.7,
            mean_eligible_minutes=240.0,
        ),
    )
    fleet.run_for(HOUR)
    fleet.attach_population(real_spec(trainer_cls))
    assert set(fleet.cohort_planes) == (
        set() if trainer_cls is InlineTrainer else {"ranker"}
    )
    fleet.run_for(3 * HOUR)
    drain = fleet.drain_population("ranker", deadline_s=HOUR)
    fleet.run_for(HOUR)
    return fleet, drain


def test_lifecycle_is_byte_identical_across_training_planes():
    cohort, drain_cohort = real_scripted_run(RealTrainer)
    per_device, drain_per_device = real_scripted_run(InlineTrainer)
    assert drain_cohort.rounds_committed > 0
    assert drain_cohort == drain_per_device
    assert cohort.report() == per_device.report()
    assert np.array_equal(
        cohort.global_model("ranker").to_vector(),
        per_device.global_model("ranker").to_vector(),
    )


# -- fleet snapshot / restore ----------------------------------------------------


def test_snapshot_restore_equals_uninterrupted_run(tmp_path):
    path = tmp_path / "fleet.snap"
    fleet = build_fleet(seed=19)
    fleet.run_for(2 * HOUR)
    fleet.attach_population(stats_spec())
    # Snapshot at an odd instant, rounds and sessions in flight.
    fleet.run_for(1.25 * HOUR)
    manifest = fleet.snapshot(path)
    assert manifest.seed == 19
    assert manifest.simulated_seconds == 3.25 * HOUR
    assert [p.name for p in manifest.populations] == ["kbd", "stats"]

    # The uninterrupted fleet continues; snapshotting was a pure read.
    fleet.run_for(3 * HOUR)
    uninterrupted = fleet.report()

    restored = FLFleet.restore(path)
    assert restored.loop.now == 3.25 * HOUR
    restored.run_for(3 * HOUR)
    assert restored.report() == uninterrupted
    assert restored.loop.events_processed == fleet.loop.events_processed
    for name in ("kbd", "stats"):
        assert np.array_equal(
            restored.global_model(name).to_vector(),
            fleet.global_model(name).to_vector(),
        )


SNAPSHOT_CHAOS = FaultPlan(
    crashes=(
        ActorCrashSchedule("selector", mean_interval_s=1800.0),
        ActorCrashSchedule("master_aggregator", mean_interval_s=2700.0),
    ),
    messages=MessageFaultConfig(drop_prob=0.01, delay_prob=0.02, delay_mean_s=2.0),
    device_interrupts=DeviceInterruptSchedule(mean_interval_s=1800.0),
)


@pytest.mark.parametrize("faults", [None, SNAPSHOT_CHAOS], ids=["clean", "mid-chaos"])
def test_row_draw_counters_ride_the_snapshot(tmp_path, faults):
    """The idle plane's counter-keyed row streams are two array columns
    (stream key, draws made): they freeze with the rest of the plane, and
    the restored fleet's tail — draw for draw — is the original's."""
    path = tmp_path / "fleet.snap"
    fleet = build_fleet(seed=23, **({"faults": faults} if faults else {}))
    fleet.run_for(2.2 * HOUR)
    assert (fleet.report().recovery.faults_total > 0) == (faults is not None)
    fleet.snapshot(path)
    plane = fleet.idle_plane
    frozen = plane._draw_count.copy()
    assert frozen.min() >= 2  # every row drew at fleet start ...
    assert frozen.max() > 10  # ... and at each transition since
    # The device streams serve sessions only: no generator of a device's
    # own is cached, and a row's saved stream is born at its first session.
    assert not [name for name in fleet.rngs._cache if name.startswith("device/")]
    born = set(fleet.device_streams._saved)
    sessions = set(np.flatnonzero(fleet.idle_plane.scheduler.session_counts(
        len(fleet.devices)).sum(axis=1)).tolist())
    assert born <= sessions and 0 < len(born) < len(fleet.devices)

    restored = FLFleet.restore(path)
    assert restored.idle_plane._draw_count.tolist() == frozen.tolist()
    assert restored.idle_plane._row_key.tolist() == plane._row_key.tolist()

    fleet.run_for(2 * HOUR)
    restored.run_for(2 * HOUR)
    assert (plane._draw_count > frozen).any()
    assert restored.idle_plane._draw_count.tolist() == plane._draw_count.tolist()
    assert restored.idle_plane.next_flip_t.tolist() == plane.next_flip_t.tolist()
    assert restored.idle_plane.next_checkin_t.tolist() == plane.next_checkin_t.tolist()
    assert restored.report() == fleet.report()
    assert pickle.dumps(restored.report()) == pickle.dumps(fleet.report())
    assert restored.loop.events_processed == fleet.loop.events_processed


GAPPED = CoordinatorConfig(
    tick_interval_s=1.0, pipelining=False, inter_round_gap_s=600.0
)


def pending_ticks(fleet, coordinator):
    """The live heap events holding ``coordinator``'s tick (it schedules
    only ticks)."""
    return [
        event
        for _, _, event in fleet.loop._heap
        if not event.cancelled
        and event.fn == coordinator._run_if_alive
        and event.args == (coordinator._tick,)
    ]


def coordinator_and_ticks(fleet, name="kbd"):
    coordinator = fleet.actors.actor_of(fleet.locks.owner_of(f"coordinator/{name}"))
    return coordinator, pending_ticks(fleet, coordinator)


@pytest.mark.parametrize("faults", [None, SNAPSHOT_CHAOS], ids=["clean", "mid-chaos"])
@pytest.mark.parametrize("phase", ["mid-gap", "mid-round"])
def test_snapshot_mid_gap_and_mid_round_restores_exactly(tmp_path, faults, phase):
    """A deadline-driven Coordinator's whole scheduling state is at most
    one heap event and its ``_tick_pending`` flag — mid-gap, one tick once
    the pool has reached the threshold; mid-round, none (the round's end
    or a Selector's wake arms the next): either way it freezes with the
    fleet, and the tail, wakes included, replays exactly."""
    path = tmp_path / "fleet.snap"
    levers = {"coordinator": GAPPED} | ({"faults": faults} if faults else {})
    fleet = build_fleet(seed=29, **levers)
    gap, grid = GAPPED.inter_round_gap_s, GAPPED.tick_interval_s
    fleet.run_for(1.5 * HOUR)
    sufficed = False  # the pool has reached the threshold since the round
    while fleet.loop.now < 4 * HOUR:
        coordinator, ticks = coordinator_and_ticks(fleet)
        ended = coordinator.last_round_ended_at_s
        if coordinator.active_master is not None:
            assert ticks == []
            sufficed = False
            if phase == "mid-round":
                break
        else:
            sufficed |= coordinator._connected_total() >= coordinator._start_threshold()
            if ended is not None and fleet.loop.now < ended + gap - 30.0:
                assert len(ticks) == coordinator._tick_pending == sufficed
                if ticks:
                    (tick,) = ticks
                    assert ended + gap <= tick.time < ended + gap + grid
                    if phase == "mid-gap":
                        break
        fleet.loop.step()
    else:
        raise AssertionError(f"never reached {phase}")
    assert (fleet.report().recovery.faults_total > 0) == (faults is not None)
    fleet.snapshot(path)

    restored = FLFleet.restore(path)
    twin, twin_ticks = coordinator_and_ticks(restored)
    assert [t.time for t in twin_ticks] == [t.time for t in ticks]
    assert twin._tick_origin_s == coordinator._tick_origin_s
    assert twin._tick_pending == coordinator._tick_pending == (phase == "mid-gap")
    assert len(twin_ticks) == (phase == "mid-gap")

    fleet.run_for(2 * HOUR)
    restored.run_for(2 * HOUR)
    assert len(fleet.results_for("kbd")) >= 8
    assert restored.report() == fleet.report()
    assert pickle.dumps(restored.report()) == pickle.dumps(fleet.report())
    assert restored.loop.events_processed == fleet.loop.events_processed


def test_drained_tenant_leaves_no_tick_behind():
    """Drain shuts the gate by flag: the one tick that may be on the heap
    fires into it (or into a retired actor) and nothing re-arms."""
    fleet = build_fleet(seed=29, coordinator=GAPPED)
    fleet.attach_population(stats_spec())
    fleet.run_for(2 * HOUR)
    retired, _ = coordinator_and_ticks(fleet, "stats")
    assert fleet.drain_population("stats", deadline_s=HOUR).clean
    assert retired.draining and len(pending_ticks(fleet, retired)) <= 1
    fleet.run_for(GAPPED.inter_round_gap_s + GAPPED.tick_interval_s)
    assert pending_ticks(fleet, retired) == []
    # The other tenant keeps its own: a tick only while no round is
    # active, and one whenever its pool suffices then.
    kbd, kbd_ticks = coordinator_and_ticks(fleet, "kbd")
    assert len(kbd_ticks) == kbd._tick_pending <= (kbd.active_master is None)
    if kbd.active_master is None and kbd._connected_total() >= kbd._start_threshold():
        assert kbd_ticks


def test_snapshot_restore_with_real_trainers_and_lifecycle(tmp_path):
    """The full stack at once: real models on the cohort plane, a tenant
    attached mid-run, a snapshot taken, then an identical drain + run on
    both sides of the restore."""
    path = tmp_path / "fleet.snap"
    fleet = build_fleet(
        seed=11,
        devices=60,
        diurnal=DiurnalModel(
            amplitude=0.0,
            base_eligible_fraction=0.7,
            mean_eligible_minutes=240.0,
        ),
    )
    fleet.run_for(HOUR)
    fleet.attach_population(real_spec())
    fleet.run_for(1.5 * HOUR)
    fleet.snapshot(path)

    drain_original = fleet.drain_population("ranker", deadline_s=HOUR)
    fleet.run_for(HOUR)

    restored = FLFleet.restore(path)
    drain_restored = restored.drain_population("ranker", deadline_s=HOUR)
    restored.run_for(HOUR)

    assert drain_restored == drain_original
    assert restored.report() == fleet.report()


def test_restore_rejects_non_snapshots(tmp_path):
    bogus = tmp_path / "bogus.snap"
    bogus.write_bytes(b"definitely not a snapshot")
    with pytest.raises(SnapshotError):
        FLFleet.restore(bogus)
    import pickle

    wrong_shape = tmp_path / "wrong.snap"
    wrong_shape.write_bytes(pickle.dumps({"hello": "world"}))
    with pytest.raises(SnapshotError):
        FLFleet.restore(wrong_shape)


def test_restore_refuses_an_older_format_by_its_header(tmp_path):
    """The payload of an older format would unpickle into objects this
    build's classes no longer describe; the header's version is what
    refuses it, before the payload is read."""
    import dataclasses
    import pickle

    path = tmp_path / "fleet.snap"
    manifest = build_fleet(seed=3, devices=60).snapshot(path)
    assert manifest.format_version == SNAPSHOT_FORMAT_VERSION == 20
    # Format 4's devices still carried their own eligibility process and
    # shard router, and its config an ``idle_plane`` field; format 5's a
    # copy of their memberships and trainers; format 6's their tallies,
    # an ``eligible`` / ``state`` copy and three row handles; format 7's
    # an attestation service, for a second token round at every check-in;
    # format 8's fleet a ``NetworkConditions`` per row, and its profiles,
    # link records and synthetic trainers pickled an instance dict;
    # format 9's Coordinators a copy of their Selector refs and eight
    # master arguments, but no ``make_master``; format 10's fleet a
    # ``DeviceProfile`` per row, and each tenant a member-id set and a
    # trainer dict; format 11's Selector routes a pool of connected
    # devices, and its devices a WAITING state; format 12's fleet a
    # Selector cluster manager, and its routes a Coordinator link; format
    # 13's routes no ``wake``, and its Coordinators polled for devices;
    # format 14's leaves staged reports in ``_pending`` for a relay to
    # their master; format 15's kernel kept death watchers, and its routes
    # held a ``ForwardDevices`` message as their instruction; format 16's
    # checkpoint store kept every committed model in ``_history``; format
    # 17's devices lived on after their first session, each with a
    # stale-event generation and a generator cached in the registry;
    # format 18's idle plane pickled its swept fields as separate columns;
    # format 19's configs and synthetic trainers held fields now constants.
    for older in (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19):
        header = {
            "magic": "repro-fleet-snapshot",
            "manifest": dataclasses.replace(manifest, format_version=older),
        }
        old = tmp_path / f"format{older}.snap"
        old.write_bytes(pickle.dumps(header) + b"a payload no reader may touch")
        for read in (FLFleet.restore, read_manifest):
            with pytest.raises(
                SnapshotError,
                match=f"format {older} unsupported .*reads format 20",
            ):
                read(old)


def _snapshot_parts(path):
    """A snapshot file's two pickles, as bytes: header, payload."""
    import pickle

    with open(path, "rb") as f:
        pickle.load(f)
        split = f.tell()
    data = path.read_bytes()
    return data[:split], data[split:]


def test_restore_cross_checks_the_payload_against_its_header(tmp_path):
    """A payload that unpickles but is not the fleet its manifest
    describes — another seed, another tenant set, another clock, another
    fleet size — is refused, whichever field disagrees."""
    import pickle

    base = tmp_path / "base.snap"
    fleet = build_fleet(seed=3, devices=60)
    fleet.run_for(HOUR)
    fleet.snapshot(base)
    header, payload = _snapshot_parts(base)
    others = {
        "seed": build_fleet(seed=4, devices=60),
        "devices": build_fleet(seed=3, devices=61),
        "clock": build_fleet(seed=3, devices=60),
        "tenants": build_fleet(seed=3, devices=60),
    }
    for other in others.values():
        other.run_for(HOUR)
    others["clock"].run_for(60.0)
    others["tenants"].attach_population(stats_spec())
    for field, other in others.items():
        other_path = tmp_path / f"{field}.snap"
        other.snapshot(other_path)
        spliced = tmp_path / f"spliced-{field}.snap"
        spliced.write_bytes(header + _snapshot_parts(other_path)[1])
        assert read_manifest(spliced) == read_manifest(base)  # the header is fine
        with pytest.raises(SnapshotError, match="does not hold the fleet"):
            FLFleet.restore(spliced)
    # A well-formed header over something that is no fleet at all.
    not_a_fleet = tmp_path / "not-a-fleet.snap"
    not_a_fleet.write_bytes(header + pickle.dumps({"hello": "world"}))
    with pytest.raises(SnapshotError, match="not a fleet"):
        FLFleet.restore(not_a_fleet)
    # The parts put back together are the snapshot again.
    whole = tmp_path / "whole.snap"
    whole.write_bytes(header + payload)
    assert FLFleet.restore(whole).report() == fleet.report()


def test_read_manifest_roundtrip(tmp_path):
    path = tmp_path / "fleet.snap"
    fleet = build_fleet(seed=3, devices=60)
    fleet.run_for(HOUR)
    written = fleet.snapshot(path)
    assert read_manifest(path) == written
    (entry,) = written.populations
    assert entry.name == "kbd"
    assert entry.state == "attached"
    assert entry.rounds_committed <= entry.rounds_total


# -- device-scheduler lever plumbing ---------------------------------------------


def test_device_scheduler_lever_reaches_devices():
    fleet = build_fleet(device_scheduler="fair_share", devices=40)
    assert all(d.scheduler.policy == "fair_share" for d in fleet.devices)
    default = build_fleet(devices=40)
    assert all(d.scheduler.policy == "fifo" for d in default.devices)


def test_fair_share_fleet_serves_both_tenants_deterministically():
    def run(seed):
        fleet = build_fleet(
            seed=seed, devices=120, device_scheduler="fair_share"
        )
        fleet.run_for(HOUR)
        fleet.attach_population(stats_spec())
        fleet.run_for(3 * HOUR)
        return fleet.report()

    report = run(13)
    assert report.population("kbd").device_sessions > 0
    assert report.population("stats").device_sessions > 0
    assert report == run(13)
