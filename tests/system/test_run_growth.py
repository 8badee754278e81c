"""What a run accumulates is columns — held by count and by byte.

The analytics layer logs "an event for every state in a training round"
(Sec. 5) and materializes a metric summary per closed round (Sec. 7.4),
so both stores grow with the length of the run, and an example store
holds one row per collected example.  None of the three may keep a
Python object graph per record.  On a small four-tenant sharded fleet,
past its warm-up:

* the objects the collector has to walk grow with rounds closed, not
  with events logged, and none of them is an ``EventRecord`` or a
  quantile sketch;
* what ``analytics/events.py`` allocates per logged event stays near the
  25 B the four columns take;
* the checkpoint store holds one model per tenant and a payload-free
  record per commit, not every committed model;
* a ``RealTrainer`` fleet's build spends bytes per store, not per stored
  example;
* a fleet restored from a mid-run snapshot reads the same log, the same
  materialized rows and the same report as the run that never stopped.

Counts and traced bytes, so it cannot flake.
"""

import gc
import tracemalloc

import numpy as np

from repro import FLFleet, RoundConfig, TaskConfig
from repro.analytics.events import EventRecord
from repro.analytics.quantile import MetricSummary, P2Quantile, StreamingMoments
from repro.analytics.session_shapes import shape_distribution
from repro.core.rounds import ParticipantRecord
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig

HOUR = 3600.0
TENANTS = ("a", "b", "c", "d")
#: Past the warm-up nearly every device that will ever be admitted has
#: been constructed, so the window's growth is what the run accumulates.
WARM_UP_S, WINDOW_S = 8 * HOUR, 6 * HOUR
MODEL = LogisticRegression(input_dim=4, n_classes=3)
PARAMS = MODEL.init(np.random.default_rng(0))

#: GC-tracked objects a logged event may leave behind, the round's
#: ``ParticipantRecord``s aside (measured 0.065; one ``EventRecord`` and a
#: share of a session list per event, plus live sketches, was 1.7).
OBJECTS_PER_EVENT = 0.1
#: ... and a closed round: its ``RoundResult``, materialized record, that
#: record's dicts and one ``FinalSummary`` per metric (measured 6.2; the
#: store's commit log is untracked tuples, and a retained checkpoint made
#: it 7.2; with four live sketches per metric and ~95 events to the round
#: it was 160).
OBJECTS_PER_ROUND = 10
#: Traced bytes ``analytics/events.py`` may hold per logged event: 25 B of
#: columns, ``array``'s over-allocation, and an index entry for each of the
#: ~4 % of records that carry attributes (measured 27.6; a record object
#: and a session-list slot were 155).
LOG_BYTES_PER_EVENT = 40
#: Traced bytes ``device/example_store.py`` may allocate per example a
#: build stores, beyond the arrays the factory hands over (measured 10:
#: one deque and one block tuple per store; an ``Example``, a row view and
#: a numpy scalar per example were 250).
STORE_BYTES_PER_EXAMPLE = 64
#: Traced bytes ``core/checkpoint.py`` and ``nn/serialization.py`` may
#: hold per durable write, beyond one serialized model per tenant: the
#: write's log tuple, its round number and a list slot (measured 86, the
#: latest checkpoints and numpy's first-call buffers spread in; keeping
#: every committed checkpoint was 509).
CHECKPOINT_BYTES_PER_COMMIT = 128


def build_fleet():
    builder = (
        FLFleet.builder()
        .seed(11)
        .devices(PopulationConfig(num_devices=400))
        .selectors(4)
        .selector_shards(2)
        .job(JobSchedule(900.0, 0.5))
    )
    for name in TENANTS:
        task = TaskConfig(
            task_id=f"{name}/train",
            population_name=name,
            round_config=RoundConfig(
                target_participants=12, selection_timeout_s=60, reporting_timeout_s=150
            ),
        )
        builder.population(name, tasks=[task], model=PARAMS, membership=0.6)
    return builder.build()


def rounds_materialized(fleet) -> int:
    return sum(len(fleet.metrics.history(task)) for task in fleet.metrics.tasks())


def traced_bytes(before, after, module: str) -> int:
    """Bytes allocated between two snapshots and still held, by the
    ``repro`` module they were allocated in."""
    return sum(
        stat.size_diff
        for stat in after.compare_to(before, "filename")
        if stat.traceback[0].filename.endswith(module)
    )


def test_the_collector_walks_rounds_not_events():
    fleet = build_fleet()
    fleet.run_for(WARM_UP_S)
    events, rounds = len(fleet.event_log), rounds_materialized(fleet)
    participants = sum(len(r.participant_records) for r in fleet.round_results)
    gc.collect()
    objects = len(gc.get_objects())
    fleet.run_for(WINDOW_S)
    gc.collect()
    alive = gc.get_objects()
    events = len(fleet.event_log) - events
    rounds = rounds_materialized(fleet) - rounds
    assert events > 100_000 and rounds > 1000

    # ``RoundResult.participant_records`` keeps one record per session
    # (adaptive windows and Fig. 8 read them): not one of the three
    # stores, so counted and set aside.
    participants = sum(len(r.participant_records) for r in fleet.round_results) - participants
    assert sum(isinstance(o, ParticipantRecord) for o in alive) >= participants > 0
    grown = len(alive) - objects - participants
    assert 0 < grown / events <= OBJECTS_PER_EVENT
    assert grown / rounds <= OBJECTS_PER_ROUND
    assert not any(
        isinstance(o, (EventRecord, MetricSummary, StreamingMoments, P2Quantile))
        for o in alive
    )


def test_the_log_costs_its_columns():
    # Traced from before the build: a column that was allocated untraced
    # would be charged whole to the window at its first reallocation.
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        fleet = build_fleet()
        fleet.run_for(4 * HOUR)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    events = len(fleet.event_log)
    assert events > 30_000
    log_bytes = traced_bytes(before, after, "analytics/events.py")
    assert 25 <= log_bytes / events <= LOG_BYTES_PER_EVENT

    # Sec. 4.2's store keeps the latest model of each tenant; every
    # earlier commit is a record without its payload.
    commits = fleet.store.write_count
    assert commits > 300
    models = sum(fleet.store.latest(name).nbytes for name in TENANTS)
    held = sum(
        traced_bytes(before, after, module)
        for module in ("core/checkpoint.py", "nn/serialization.py")
    )
    assert models <= held <= models + commits * CHECKPOINT_BYTES_PER_COMMIT


def test_a_trainer_fleet_builds_bytes_per_store_not_per_example():
    data_rng = np.random.default_rng(4242)
    stored = []

    def trainer_factory(profile):
        n = int(data_rng.integers(40, 120))
        stored.append(n)
        store = ExampleStore(ttl_s=None)
        store.add_batch(
            data_rng.normal(size=(n, 4)), data_rng.integers(0, 3, size=n), timestamp_s=0.0
        )
        return RealTrainer(model=MODEL, store=store)

    task = TaskConfig(
        task_id="pop/train",
        population_name="pop",
        round_config=RoundConfig(target_participants=8),
    )
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        fleet = (
            FLFleet.builder()
            .seed(11)
            .devices(PopulationConfig(num_devices=300))
            .population("pop", tasks=[task], model=PARAMS, trainer_factory=trainer_factory)
            .build()
        )
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(stored) == len(fleet.devices) == 300
    store_bytes = traced_bytes(before, after, "device/example_store.py")
    assert 0 < store_bytes / sum(stored) <= STORE_BYTES_PER_EXAMPLE


def test_a_restored_fleet_reads_the_same_stores(tmp_path):
    fleet = build_fleet()
    fleet.run_for(2 * HOUR)
    fleet.snapshot(tmp_path / "fleet.snap")
    restored = FLFleet.restore(tmp_path / "fleet.snap")
    for each in (fleet, restored):
        each.run_for(2 * HOUR)
    assert len(restored.event_log) == len(fleet.event_log) > 10_000
    assert restored.event_log.records() == fleet.event_log.records()
    assert shape_distribution(restored.event_log) == shape_distribution(fleet.event_log)
    assert restored.metrics.tasks() == fleet.metrics.tasks() == [f"{t}/train" for t in TENANTS]
    for task in fleet.metrics.tasks():
        assert len(fleet.metrics.history(task)) > 100
        assert restored.metrics.to_rows(task) == fleet.metrics.to_rows(task)
    assert restored.report() == fleet.report()
