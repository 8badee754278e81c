"""Update budget: a local update is computed only if its report is accepted.

A count, so it cannot flake: the same seed accepts the same reports.
The paper over-selects on purpose (130 % of the goal, Sec. 2.2) and the
server aborts whatever is still in flight once the goal count has
reported (Fig. 7), so a simulator that trains every configured device
computes deltas and losses nothing ever reads.  On a small two-tenant
``RealTrainer`` fleet the cohort planes train exactly the rows the
rounds accepted, once per round, at the round's fold — never from a
device callback — and hold no workload in between; a snapshot taken
*between an acceptance and its round's fold*, and a master that crashes
there, both leave the run equal to the per-device oracle's.
"""

import gc
import sys
from dataclasses import dataclass

import numpy as np

from repro import FLFleet
from repro.actors.master_aggregator import MasterAggregator
from repro.core.config import ClientTrainingConfig, RoundConfig, TaskConfig
from repro.device.cohort import CohortExecutionPlane, PendingCohortResult
from repro.device.example_store import ExampleStore
from repro.device.runtime import RealTrainer
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression, MLPClassifier, Model
from repro.sim.diurnal import DiurnalModel
from repro.sim.population import PopulationConfig

RANKER = MLPClassifier(input_dim=12, hidden_dims=(10,), n_classes=4)
KEYBOARD = LogisticRegression(input_dim=20, n_classes=6)


class InlineTrainer(RealTrainer):
    """The per-device oracle: the fleet cannot enroll it in a cohort
    plane, so its sessions train inline."""

    attach_cohort_plane = None


@dataclass(frozen=True)
class Factory:
    """Module-level, hence picklable; full minibatches (row-exact cohort
    kernels), per-device data pinned by device id."""

    model: Model
    examples: int
    trainer_cls: type = RealTrainer

    def __call__(self, profile):
        rng = np.random.default_rng([77, self.examples, profile.device_id])
        store = ExampleStore(ttl_s=None)
        store.add_batch(
            rng.normal(size=(self.examples, self.model.input_dim)),
            rng.integers(0, self.model.n_classes, size=self.examples),
            timestamp_s=0.0,
        )
        return self.trainer_cls(model=self.model, store=store)


def build_fleet(trainer_cls=RealTrainer, seed=23):
    def task(name, target, batch_size):
        return TaskConfig(
            task_id=f"train/{name}",
            population_name=name,
            round_config=RoundConfig(target_participants=target),
            client_config=ClientTrainingConfig(
                epochs=2, batch_size=batch_size, learning_rate=0.1
            ),
        )

    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=160))
        .job(JobSchedule(600.0, 0.5))
        .diurnal(DiurnalModel(amplitude=0.0, base_eligible_fraction=0.7,
                              mean_eligible_minutes=240.0))
        .population("ranker", tasks=[task("ranker", 10, 8)],
                    model=RANKER.init(np.random.default_rng(1)),
                    trainer_factory=Factory(RANKER, 48, trainer_cls))
        .population("keyboard", tasks=[task("keyboard", 6, 4)],
                    model=KEYBOARD.init(np.random.default_rng(2)),
                    trainer_factory=Factory(KEYBOARD, 16, trainer_cls),
                    membership=0.5)
        .build()
    )


def live_masters(fleet):
    """Each tenant's in-flight round master, where there is one."""
    masters = []
    for ref in fleet.coordinators.values():
        coordinator = fleet.actors.actor_of(ref)
        if coordinator is not None and coordinator.active_master is not None:
            masters.append(fleet.actors.actor_of(coordinator.active_master))
    return [m for m in masters if m is not None]


def run_until_mid_round(fleet, horizon_s=3600.0):
    """Advance in quarter-second steps (a round's reports arrive within
    seconds of each other) to an instant where a round has accepted
    reports but has not folded; returns that round's master.  The cohort
    fleet and its oracle share every simulated instant, so both stop at
    the same one."""
    fleet.run_for(1800.0)
    while fleet.loop.now < horizon_s:
        fleet.run_for(0.25)
        for master in live_masters(fleet):
            if master.state.completed_count >= 2 and not master._finished:
                return master
    raise AssertionError("no round was ever caught between accept and fold")


def reachable_handles(root):
    """Cohort handles reachable from ``root`` through plain data."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, np.ndarray, str, bytes)):
            continue
        seen.add(id(obj))
        if isinstance(obj, PendingCohortResult):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_planes_train_exactly_the_accepted_rows_once_per_round(monkeypatch):
    callers = []
    execute = CohortExecutionPlane.execute_pending

    def watched(plane, handles):
        frame, stack = sys._getframe(1), []
        while frame is not None:
            stack.append((frame.f_code.co_filename, frame.f_code.co_name))
            frame = frame.f_back
        callers.append(stack)
        return execute(plane, handles)

    monkeypatch.setattr(CohortExecutionPlane, "execute_pending", watched)
    fleet = build_fleet()
    fleet.run_days(0.25)
    assert fleet.report().rounds_committed >= 20
    for name, plane in fleet.cohort_planes.items():
        results = fleet.lifecycle.runtime(name).results
        accepted = [r.completed_count for r in results]
        # The regime: over-selection configures more devices than report.
        assert sum(r.selected_count for r in results) > sum(accepted) > 0
        assert plane.workloads_executed == sum(accepted)
        assert plane.executions == sum(1 for n in accepted if n >= 1)
        assert plane.failed_workloads == 0
        # Between rounds the plane holds no workload: no list, no handle.
        assert reachable_handles(plane) == []
    assert len(callers) == sum(p.executions for p in fleet.cohort_planes.values())
    for stack in callers:
        assert stack[0][1] == "_execute_accepted"
        assert stack[1][1] == "_finish"
        assert not any(filename.endswith("device/actor.py") for filename, _ in stack)


def test_snapshot_between_acceptance_and_fold_restores_byte_exact(tmp_path):
    fleet = build_fleet()
    master = run_until_mid_round(fleet)
    taken_at = fleet.loop.now
    # The snapshot holds accepted-but-unexecuted handles where the issue
    # says they live: the master's record, a leaf's recipe, and a pending
    # upload of a session still in flight.
    assert master._deferred and not any(
        h.executed for h in master._deferred.values()
    )
    leaves = [fleet.actors.actor_of(ref) for ref in master.aggregators]
    assert sum(len(leaf._recipe) for leaf in leaves) == len(master._deferred)
    in_flight = [
        arg.deferred
        for _, _, event in fleet.loop._heap if not event.cancelled
        for arg in event.args if getattr(arg, "deferred", None) is not None
    ]
    assert in_flight
    path = tmp_path / "mid-round.snap"
    fleet.snapshot(path)
    executed_before = {
        name: plane.workloads_executed
        for name, plane in fleet.cohort_planes.items()
    }

    fleet.run_for(2 * 3600.0)
    restored = FLFleet.restore(path)
    assert restored.loop.now == taken_at
    assert {
        name: plane.workloads_executed
        for name, plane in restored.cohort_planes.items()
    } == executed_before
    restored.run_for(2 * 3600.0)
    oracle = build_fleet(InlineTrainer)
    oracle.run_for(taken_at + 2 * 3600.0)

    assert restored.report() == fleet.report() == oracle.report()
    for name in ("ranker", "keyboard"):
        model = oracle.global_model(name).to_vector()
        assert np.array_equal(fleet.global_model(name).to_vector(), model)
        assert np.array_equal(restored.global_model(name).to_vector(), model)
        assert (
            restored.cohort_planes[name].workloads_executed
            == fleet.cohort_planes[name].workloads_executed
        )


def test_a_round_whose_master_crashed_is_never_executed():
    def crashed_run(trainer_cls):
        fleet = build_fleet(trainer_cls)
        master = run_until_mid_round(fleet)
        accepted = master.state.completed_count
        assert isinstance(master, MasterAggregator)
        fleet.actors.crash(master.ref)
        fleet.run_for(2 * 3600.0)
        return fleet, master, accepted

    fleet, master, accepted = crashed_run(RealTrainer)
    oracle, _, oracle_accepted = crashed_run(InlineTrainer)
    assert accepted == oracle_accepted == len(master._deferred)
    # Nobody reads a crashed round: its accepted rows never became numbers.
    assert not any(h.executed or h.failed for h in master._deferred.values())
    for name, plane in fleet.cohort_planes.items():
        results = fleet.lifecycle.runtime(name).results
        assert plane.workloads_executed == sum(r.completed_count for r in results)
    assert fleet.report() == oracle.report()
    assert fleet.report().rounds_committed > 0
    for name in ("ranker", "keyboard"):
        assert np.array_equal(
            fleet.global_model(name).to_vector(),
            oracle.global_model(name).to_vector(),
        )
