"""Control-plane sharding (ISSUE 10): the consistent-hash ShardRouter,
shard-scoped routes and admission, the per-shard aggregation tree, and
the equivalence bars:

* ``selector_shards=1`` (and the knob left at its default) is
  byte-identical to the pre-sharding control plane;
* every shard count is same-seed deterministic AND snapshot/restore
  exact;
* consistent hashing is *stable*: re-attaching a drained population
  lands on the same shard, and adding a shard moves only the minimal
  set of tenants (unrelated tenants never reshuffle).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FLFleet,
    FleetValidationError,
    PopulationSpec,
    RoundConfig,
    TaskConfig,
)
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig
from repro.system.sharding import ShardRouter

HOUR = 3600.0

MODEL = LogisticRegression(input_dim=4, n_classes=3)
INIT = MODEL.init(np.random.default_rng(0))


def task_for(name):
    return TaskConfig(
        task_id=f"{name}/train",
        population_name=name,
        round_config=RoundConfig(
            target_participants=8,
            selection_timeout_s=60,
            reporting_timeout_s=150,
        ),
    )


def build_fleet(shards=None, seed=5, devices=200, selectors=4, tenants=3):
    builder = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(selectors)
        .job(JobSchedule(900.0, 0.5))
    )
    if shards is not None:
        builder = builder.selector_shards(shards)
    for t in range(tenants):
        name = f"pop{t}"
        builder = builder.population(name, tasks=[task_for(name)], model=INIT)
    return builder.build()


# -- ShardRouter ------------------------------------------------------------------


def test_router_is_deterministic():
    a = ShardRouter(num_selectors=8, num_shards=4)
    b = ShardRouter(num_selectors=8, num_shards=4)
    names = [f"tenant{i}" for i in range(50)]
    assert a.assignments(names) == b.assignments(names)


@settings(max_examples=200, deadline=None)
@given(name=st.text(), num_selectors=st.integers(1, 64))
def test_router_single_shard_owns_everything(name, num_selectors):
    """One shard is the general case, not a special one: its ring sends
    every name to shard 0, and shard 0 is every Selector."""
    router = ShardRouter(num_selectors=num_selectors, num_shards=1)
    everyone = tuple(range(num_selectors))
    assert router.shard_of(name) == 0
    assert router.selector_indices(0) == everyone
    assert router.selector_indices_for(name) == everyone


def test_router_memoizes_placement_per_name():
    """Every device check-in asks for its tenant's indices: the lookup is
    hashed once per name, answers what the ring answers, and the memo is
    plain data that rides a pickle."""
    import pickle

    router = ShardRouter(num_selectors=8, num_shards=4)
    names = [f"tenant{i}" for i in range(20)]
    expected = {n: router.selector_indices(router.shard_of(n)) for n in names}
    first = {n: router.selector_indices_for(n) for n in names}
    assert first == expected
    assert all(router.selector_indices_for(n) is first[n] for n in names)
    clone = pickle.loads(pickle.dumps(router))
    assert {n: clone.selector_indices_for(n) for n in names} == expected


def test_router_partitions_selectors():
    router = ShardRouter(num_selectors=8, num_shards=3)
    seen = []
    for shard in range(3):
        indices = router.selector_indices(shard)
        assert indices, "every shard needs at least one selector"
        seen.extend(indices)
    assert sorted(seen) == list(range(8))  # disjoint and complete


def test_router_spreads_tenants_across_shards():
    router = ShardRouter(num_selectors=8, num_shards=4)
    shards = {router.shard_of(f"tenant{i:03d}") for i in range(200)}
    assert shards == {0, 1, 2, 3}


def test_router_validates_shape():
    with pytest.raises(ValueError):
        ShardRouter(num_selectors=4, num_shards=0)
    with pytest.raises(ValueError):
        ShardRouter(num_selectors=4, num_shards=5)


def test_adding_a_shard_moves_only_a_minority():
    """Consistent hashing's point: growing the shard count must not
    reshuffle unrelated tenants.  Every population either stays put or
    moves to the *new* shard-count's owner — and only a minority move
    (vs. modulo hashing, which would move ~all of them)."""
    names = [f"tenant{i:04d}" for i in range(400)]
    before = ShardRouter(num_selectors=16, num_shards=4).assignments(names)
    after = ShardRouter(num_selectors=16, num_shards=5).assignments(names)
    moved = [n for n in names if before[n] != after[n]]
    # Expected movement is ~1/5 of tenants; assert well under half.
    assert 0 < len(moved) < len(names) // 2


def test_reattach_lands_on_the_same_shard():
    router = ShardRouter(num_selectors=8, num_shards=4)
    home = router.shard_of("stats")
    # Unrelated attach/drain activity cannot move it: the ring is a pure
    # function of (name, topology).
    for other in ("kbd", "asr", "ocr"):
        assert router.shard_of("stats") == home
        router.shard_of(other)
    assert ShardRouter(num_selectors=8, num_shards=4).shard_of("stats") == home


# -- builder/config validation ----------------------------------------------------


def test_builder_rejects_more_shards_than_selectors():
    with pytest.raises(FleetValidationError, match="selector_shards"):
        build_fleet(shards=8, selectors=4)


def test_builder_rejects_nonpositive_shards():
    with pytest.raises(FleetValidationError, match="selector_shards"):
        build_fleet(shards=0)


# -- shard-scoped routes and admission --------------------------------------------


def test_routes_live_only_on_owning_shard():
    fleet = build_fleet(shards=2, selectors=4)
    for t in range(3):
        name = f"pop{t}"
        owning = set(fleet.shard_selector_indices(name))
        assert owning  # never empty
        for i, selector in enumerate(fleet.selector_actors()):
            if i in owning:
                assert name in selector.routes
            else:
                assert name not in selector.routes


def test_unsharded_routes_live_everywhere():
    fleet = build_fleet(shards=None)
    for selector in fleet.selector_actors():
        for t in range(3):
            assert f"pop{t}" in selector.routes


def test_checkins_confined_to_owning_shard():
    fleet = build_fleet(shards=2, selectors=4, devices=300)
    fleet.run_for(6 * HOUR)
    for t in range(3):
        name = f"pop{t}"
        owning = set(fleet.shard_selector_indices(name))
        for i, selector in enumerate(fleet.selector_actors()):
            if i not in owning:
                assert name not in selector.routes
    # And the fleet still commits rounds for every tenant.
    report = fleet.report()
    for t in range(3):
        assert report.population(f"pop{t}").rounds_committed > 0


def test_attach_registers_only_on_owning_shard_and_drain_removes():
    fleet = build_fleet(shards=2, selectors=4)
    fleet.run_for(1 * HOUR)
    spec = PopulationSpec(
        name="stats",
        tasks=[task_for("stats")],
        initial_params=INIT,
        membership_fraction=0.5,
    )
    fleet.attach_population(spec)
    owning = set(fleet.shard_selector_indices("stats"))
    for i, selector in enumerate(fleet.selector_actors()):
        assert ("stats" in selector.routes) == (i in owning)
    fleet.run_for(2 * HOUR)
    fleet.drain_population("stats", deadline_s=2 * HOUR)
    for selector in fleet.selector_actors():
        assert "stats" not in selector.routes


def test_reattached_population_returns_to_its_shard():
    fleet = build_fleet(shards=2, selectors=4)
    spec = PopulationSpec(
        name="stats",
        tasks=[task_for("stats")],
        initial_params=INIT,
        membership_fraction=0.5,
    )
    fleet.run_for(1 * HOUR)
    fleet.attach_population(spec)
    home = set(fleet.shard_selector_indices("stats"))
    fleet.run_for(2 * HOUR)
    fleet.drain_population("stats", deadline_s=2 * HOUR)
    respec = PopulationSpec(
        name="stats",
        tasks=[
            TaskConfig(
                task_id="stats/train2",
                population_name="stats",
                round_config=RoundConfig(
                    target_participants=8,
                    selection_timeout_s=60,
                    reporting_timeout_s=150,
                ),
            )
        ],
        initial_params=INIT,
        membership_fraction=0.5,
    )
    fleet.attach_population(respec)
    assert set(fleet.shard_selector_indices("stats")) == home
    for i, selector in enumerate(fleet.selector_actors()):
        assert ("stats" in selector.routes) == (i in home)


# -- aggregation tree -------------------------------------------------------------


def test_sharded_round_folds_through_shard_aggregators():
    fleet = build_fleet(shards=4, selectors=4, devices=300)
    fleet.run_for(6 * HOUR)
    report = fleet.report()
    committed = sum(p.rounds_committed for p in report.populations)
    assert committed > 0
    folds = sum(
        count
        for name, count in fleet.dashboard.counters().items()
        if name.startswith("shards/") and name.endswith("/folds")
    )
    assert folds > 0  # rounds folded through the tree, not the flat funnel


def test_unsharded_fleet_folds_through_shard_zero():
    """One shard is the general case here too: an unsharded fleet's
    rounds fold leaf -> shard -> master, recorded as shard 0's folds."""
    fleet = build_fleet(shards=1, selectors=4)
    fleet.run_for(4 * HOUR)
    counters = fleet.dashboard.counters()
    shard_counters = [name for name in counters if name.startswith("shards/")]
    assert shard_counters == ["shards/0/folds"]
    assert counters["shards/0/folds"] >= fleet.report().rounds_committed > 0


# -- equivalence bars -------------------------------------------------------------


def run_report(shards, seed=5, hours=6):
    fleet = build_fleet(shards=shards, seed=seed)
    fleet.run_for(hours * HOUR)
    return fleet.report(), fleet


def test_one_shard_is_byte_identical_to_unsharded():
    sharded, fleet_s = run_report(1)
    flat, fleet_f = run_report(None)
    assert sharded == flat
    assert fleet_s.loop.events_processed == fleet_f.loop.events_processed


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_same_seed_same_report_at_every_shard_count(shards):
    report_a, fleet_a = run_report(shards)
    report_b, fleet_b = run_report(shards)
    assert report_a == report_b
    assert fleet_a.loop.events_processed == fleet_b.loop.events_processed


def test_different_shard_counts_may_differ_but_all_commit():
    """Sharding legitimately changes trajectories (selector draws come
    from the shard pool); the invariant is progress, not identity."""
    for shards in (1, 2, 4):
        report, _ = run_report(shards)
        assert sum(p.rounds_committed for p in report.populations) > 0


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_snapshot_restore_exact_at_every_shard_count(shards, tmp_path):
    path = tmp_path / f"fleet{shards}.snapshot"
    fleet = build_fleet(shards=shards)
    fleet.run_for(3 * HOUR)
    fleet.snapshot(path)
    fleet.run_for(3 * HOUR)
    uninterrupted = fleet.report()

    restored = FLFleet.restore(path)
    restored.run_for(3 * HOUR)
    assert restored.report() == uninterrupted
    assert restored.loop.events_processed == fleet.loop.events_processed
