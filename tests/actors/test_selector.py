"""Selector unit tests: the pace window it hands out, and the rows a
round takes from its pool."""

import numpy as np

from reference.selection import ReservoirSampler
from repro.actors.kernel import Actor, ActorSystem
from repro.actors.selector import Forwarding, PopulationRoute, Selector
from repro.core.checkpoint import CheckpointStore
from repro.core.pace import PaceConfig, PaceSteering
from repro.device.actor import DeviceState
from repro.device.attestation import AttestationService
from repro.sim.diurnal import DiurnalModel
from repro.sim.event_loop import EventLoop
from repro.sim.idle_plane import VectorizedIdlePlane
from repro.sim.network import NetworkModel
from repro.sim.population import PopulationConfig, build_population
from repro.sim.rng import RngRegistry


def spawn_selector() -> Selector:
    loop = EventLoop()
    system = ActorSystem(loop, np.random.default_rng(0))
    selector = Selector(
        CheckpointStore(), np.random.default_rng(1), plane=None, index=0
    )
    system.spawn(selector, "selector/0")
    return selector


def test_idle_route_sizes_a_large_populations_window_for_its_selection_goal():
    """With no round forwarding, a population above the small-population
    threshold is spread over a window sized for what its rounds select —
    not for a made-up demand."""
    config = PaceConfig(
        round_period_s=600.0,
        small_population_threshold=500,
        max_reconnect_delay_s=24 * 3600.0,
        diurnal_damping=False,
    )
    pace = PaceSteering(config, DiurnalModel())
    selector = spawn_selector()
    route = PopulationRoute(
        population_name="pop", pace=pace, plans=None,
        population_size=2_000, selection_goal=13, wake=lambda: None,
    )
    selector.add_route(route)
    assert route.forwarding is None
    window = selector._suggest_window(route)
    assert window == pace.suggest_reconnect(
        now_s=selector.now, population_size=2_000, needed_per_round=13
    )
    # The horizon is population * period / (4 * demand): a goal of 13,
    # not 100, and nowhere near the clip.
    assert window.width_s == 2_000 * 600.0 / (4 * 13)
    assert window != pace.suggest_reconnect(
        now_s=selector.now, population_size=2_000, needed_per_round=100
    )


# -- the round's draw ---------------------------------------------------------------


class StubPlans:
    """Every runtime is served, by one plan."""

    def plan_for_task(self, task_id, runtime_version):
        return "plan"

    def plan_for_runtime(self, runtime_version):
        return "plan"


class StubStore:
    def latest(self, population_name):
        return None


class StubMaster(Actor):
    """A selecting round that wants ``demand`` more devices."""

    demand = 0

    def receive(self, sender, message):
        pass


def pooled_selector(rows: int):
    """A Selector over a plane of ``rows`` rows, members of ``pop``, and a
    round's master; ``plane.forwarded`` records what the Selector takes,
    and ``plane.wakes`` the pool its route's Coordinator is woken to."""
    loop = EventLoop()
    rngs = RngRegistry(0)
    system = ActorSystem(loop, rngs.stream("lat"))
    selectors: list = []
    plane = VectorizedIdlePlane(
        loop, rngs.row_draws("rows"), DiurnalModel(), selectors=selectors,
        actor_of=system.actor_of, attestation=AttestationService(), capacity=rows,
    )
    plane.adopt_rows(
        build_population(PopulationConfig(num_devices=rows), rngs),
        3600.0,
        NetworkModel().sample_conditions_batch(rows, rngs.stream("links")),
    )
    everyone = np.arange(rows)
    plane.scheduler.enroll(everyone, "pop")
    plane.memberships_changed(everyone)
    selector = Selector(StubStore(), rngs.stream("selector/0"), plane, 0)
    selectors.append(system.spawn(selector, "selector/0"))
    pace = PaceSteering(PaceConfig(), DiurnalModel())
    plane.wakes = []
    route = PopulationRoute(
        "pop", pace, StubPlans(), rows, selection_goal=4,
        wake=lambda: plane.wakes.append(selector.connected_count_for("pop")),
    )
    selector.add_route(route)
    master = StubMaster()
    master_ref = system.spawn(master, "master")
    plane.forwarded = []

    def forward(taken):
        # The Selector's take, minus the devices a round would configure.
        plane.forwarded.append(taken.copy())
        plane._move(taken, len(selectors))
        return []

    plane.forward = forward
    return selector, plane, master, master_ref


def run_rounds(rows: int, demand: int, rounds: int) -> np.ndarray:
    """How often each row of a full pool — row 0 connected first — is taken
    by a round wanting ``demand``, over ``rounds`` rounds."""
    selector, plane, master, master_ref = pooled_selector(rows)
    everyone = np.arange(rows)
    taken = np.zeros(rows, dtype=int)
    for round_id in range(rounds):
        plane.scheduler.checkin(everyone)
        plane._resolve_pools()
        plane._wait_rows(everyone, np.zeros(rows, np.intp), np.zeros(rows, np.intp), 0.0)
        plane.connected_at_s[everyone] = np.arange(rows, dtype=float)
        assert selector.connected_count_for("pop") == rows
        master.demand = demand
        selector.receive(None, Forwarding(round_id, "t", demand, master_ref, "pop"))
        took = plane.forwarded[-1]
        assert took.size == demand and np.all(np.diff(took) > 0)  # row order
        taken[took] += 1
        # The rest were turned away at once; the taken ones hang up here,
        # and the round ends.
        assert selector.connected_count_for("pop") == 0
        plane.release(took, np.zeros(demand))
        selector.clear_forwarding("pop", round_id)
    return taken


def chi_square(counts: np.ndarray, expected: float) -> float:
    return float(((counts - expected) ** 2 / expected).sum())


def test_a_round_draws_its_rows_uniformly_not_oldest_first():
    """Over many rounds on one full pool, each row is taken as often as any
    other — the oldest connections get no precedence — just as Algorithm
    R's reservoir (the oracle, ``tests/reference/selection.py``) takes
    them."""
    rows, demand, rounds = 12, 4, 3000
    taken = run_rounds(rows, demand, rounds)
    oracle = np.zeros(rows, dtype=int)
    rng = np.random.default_rng(11)
    for _ in range(rounds):
        sampler = ReservoirSampler(demand, rng)
        for row in range(rows):
            sampler.offer(row)
        oracle[sampler.sample()] += 1
    expected = rounds * demand / rows
    # chi-square, 11 degrees of freedom: 31.26 at p = 0.001.
    assert chi_square(taken, expected) < 31.26
    assert chi_square(oracle, expected) < 31.26
    # The two draws agree with each other (a 2 x 12 contingency table).
    both = (taken + oracle) / 2
    assert chi_square(taken, both) + chi_square(oracle, both) < 31.26
    # Not oldest-first: the four first-connected rows are taken a third of
    # the time, not every time.
    assert taken[:demand].sum() < 0.5 * rounds * demand


def test_a_round_takes_at_most_what_its_master_still_wants():
    selector, plane, master, master_ref = pooled_selector(10)
    everyone = np.arange(10)
    plane.scheduler.checkin(everyone)
    plane._resolve_pools()
    plane._wait_rows(everyone, np.zeros(10, np.intp), np.zeros(10, np.intp), 0.0)
    master.demand = 0  # a round that is reporting takes nobody
    selector.receive(None, Forwarding(1, "t", 4, master_ref, "pop"))
    assert plane.forwarded == [] and selector.connected_count_for("pop") == 0
    assert selector.routes["pop"].stats.rejected_quota == 10
    assert not plane.active[everyone].any()
    assert (plane.pending_window_t[everyone] > 0).all()  # told to come back later
    assert plane.wakes == [10]  # the admission, no round forwarding


def test_rows_pooled_while_a_round_forwards_are_drawn_at_once():
    """The drain's second caller: a forwarding round takes what it still
    wants of the rows the screen just admitted, and turns the rest away."""
    selector, plane, master, master_ref = pooled_selector(10)
    master.demand = 3
    selector.receive(None, Forwarding(1, "t", 3, master_ref, "pop"))
    assert plane.forwarded == []  # an empty pool: nothing to take yet
    rows = np.arange(2, 7)
    plane.scheduler.checkin(rows)
    plane._resolve_pools()
    plane._wait_rows(rows, np.zeros(5, np.intp), np.zeros(5, np.intp), 0.0)
    (took,) = plane.forwarded
    assert took.size == 3 and set(took.tolist()) <= set(rows.tolist())
    assert selector.connected_count_for("pop") == 0
    assert plane.state_counts()[DeviceState.WAITING] == 3  # nowhere, configuring
    assert selector.routes["pop"].stats.rejected_quota == 2
    # The Coordinator is running this round: it hears of no admission
    # until the round is over and its instruction cleared.
    assert plane.wakes == []
    selector.clear_forwarding("pop", 0)  # another round's end: it stands
    assert selector.routes["pop"].forwarding.round_id == 1
    selector.clear_forwarding("pop", 1)
    more = np.arange(7, 9)
    plane.scheduler.checkin(more)
    plane._resolve_pools()
    plane._wait_rows(more, np.zeros(2, np.intp), np.zeros(2, np.intp), 0.0)
    assert len(plane.forwarded) == 1 and plane.wakes == [2]
