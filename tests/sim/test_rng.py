"""Named RNG streams: determinism and independence."""

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry, RowDraws, SessionStreams, _mix64


def test_same_name_same_seed_is_deterministic():
    a = RngRegistry(seed=7).fresh("device/1").random(10)
    b = RngRegistry(seed=7).fresh("device/1").random(10)
    np.testing.assert_array_equal(a, b)


def test_different_names_are_independent():
    reg = RngRegistry(seed=7)
    a = reg.fresh("alpha").random(100)
    b = reg.fresh("beta").random(100)
    assert not np.allclose(a, b)


def test_different_seeds_differ():
    a = RngRegistry(seed=1).fresh("x").random(10)
    b = RngRegistry(seed=2).fresh("x").random(10)
    assert not np.allclose(a, b)


def test_stream_is_cached_fresh_is_not():
    reg = RngRegistry(seed=0)
    s1 = reg.stream("s")
    s1.random(5)  # advance
    s2 = reg.stream("s")
    assert s1 is s2  # same underlying generator
    f1 = reg.fresh("s")
    f2 = reg.fresh("s")
    np.testing.assert_array_equal(f1.random(5), f2.random(5))


def test_spawn_children_are_mutually_independent():
    children = RngRegistry(seed=3).spawn("workers", 4)
    draws = [c.random(50) for c in children]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.allclose(draws[i], draws[j])


def test_adding_stream_does_not_perturb_existing():
    reg1 = RngRegistry(seed=5)
    a_before = reg1.fresh("a").random(10)
    reg2 = RngRegistry(seed=5)
    reg2.fresh("b")  # extra stream created first
    a_after = reg2.fresh("a").random(10)
    np.testing.assert_array_equal(a_before, a_after)


# -- counter-keyed row streams ------------------------------------------------


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance of ``samples`` from ``cdf``."""
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    return float(
        max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())
    )


#: KS critical distance at alpha = 0.001 for n samples is 1.95 / sqrt(n).
KS_N = 100_000
KS_BOUND = 1.95 / np.sqrt(KS_N)


def test_row_draw_depends_on_seed_id_and_counter_only():
    draws = RngRegistry(seed=7).row_draws("rows")
    ids = np.arange(500)
    keys = draws.keys(ids)
    counters = np.random.default_rng(0).integers(0, 1000, 500).astype(np.uint64)
    first, second = RowDraws.uniform_pair(keys, counters)
    # Any batch composition, any order, one row at a time: same values.
    order = np.random.default_rng(1).permutation(500)
    p_first, p_second = RowDraws.uniform_pair(keys[order], counters[order])
    assert p_first.tolist() == first[order].tolist()
    assert p_second.tolist() == second[order].tolist()
    subset = order[:37]
    assert RowDraws.uniform_pair(keys[subset], counters[subset])[0].tolist() == (
        first[subset].tolist()
    )
    for j in (0, 13, 499):
        key = draws.keys(np.array([j]))
        one, two = RowDraws.uniform_pair(key, counters[j : j + 1])
        assert (one[0], two[0]) == (first[j], second[j])
    # Another fleet seed, stream name, device id or counter: another value.
    for other in (
        RowDraws.uniform_pair(RngRegistry(seed=8).row_draws("rows").keys(ids), counters),
        RowDraws.uniform_pair(RngRegistry(seed=7).row_draws("other").keys(ids), counters),
        RowDraws.uniform_pair(draws.keys(ids + 1), counters),
        RowDraws.uniform_pair(keys, counters + np.uint64(1)),
    ):
        assert not np.any(other[0] == first)


def test_row_draws_repeat_in_a_fresh_process():
    script = (
        "import numpy as np\n"
        "from repro.sim.rng import RngRegistry, RowDraws\n"
        "d = RngRegistry(seed=2019).row_draws('device/idle')\n"
        "a, b = RowDraws.uniform_pair(d.keys(np.array([0, 1, 49999])),"
        " np.array([0, 5, 123456], dtype=np.uint64))\n"
        "print(a.tolist(), b.tolist())\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    runs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": src, "PYTHONHASHSEED": hashseed},
        ).stdout
        for hashseed in ("0", "4242")
    ]
    d = RngRegistry(seed=2019).row_draws("device/idle")
    a, b = RowDraws.uniform_pair(
        d.keys(np.array([0, 1, 49999])), np.array([0, 5, 123456], dtype=np.uint64)
    )
    assert runs[0] == runs[1] == f"{a.tolist()} {b.tolist()}\n"


def test_row_draws_are_uniform_and_invert_to_exponential():
    draws = RngRegistry(seed=3).row_draws("rows")
    uniform_cdf = lambda x: x
    exponential_cdf = lambda x: 1.0 - np.exp(-x)
    # Down one row's counter sequence, and across rows at one counter.
    one_row = RowDraws.uniform_pair(
        np.full(KS_N, draws.keys(np.array([17]))[0]), np.arange(KS_N, dtype=np.uint64)
    )
    across = RowDraws.uniform_pair(
        draws.keys(np.arange(KS_N)), np.zeros(KS_N, dtype=np.uint64)
    )
    for u in (*one_row, *across):
        assert 0.0 <= u.min() and u.max() < 1.0
        assert ks_distance(u, uniform_cdf) < KS_BOUND
        assert ks_distance(-np.log1p(-u), exponential_cdf) < KS_BOUND


def test_adjacent_device_ids_first_draws_are_uncorrelated():
    draws = RngRegistry(seed=3).row_draws("rows")
    first, second = RowDraws.uniform_pair(
        draws.keys(np.arange(KS_N)), np.zeros(KS_N, dtype=np.uint64)
    )
    # |r| of 1e5 independent pairs is ~N(0, 1/sqrt(n)): 4 sigma.
    bound = 4.0 / np.sqrt(KS_N)
    assert abs(np.corrcoef(first[:-1], first[1:])[0, 1]) < bound
    assert abs(np.corrcoef(second[:-1], second[1:])[0, 1]) < bound
    assert abs(np.corrcoef(first, second)[0, 1]) < bound
    # ... nor is a row's next draw correlated with this one.
    later, _ = RowDraws.uniform_pair(
        draws.keys(np.arange(KS_N)), np.ones(KS_N, dtype=np.uint64)
    )
    assert abs(np.corrcoef(first, later)[0, 1]) < bound


def test_a_rows_session_stream_is_one_stream_across_sessions_and_a_snapshot():
    """A device's sessions draw one stream: re-keyed from its packed state
    at each session's first draw, packed again when the session is over,
    whatever state the Philox buffer was left in — and a snapshot taken
    between sessions resumes it draw for draw."""
    registry = RngRegistry(seed=2019)
    streams = SessionStreams(registry)
    reference = registry.fresh("device/7")
    sessions = [
        (lambda g: g.random(), {"buffer_pos": 1, "has_uint32": 0}),
        (lambda g: g.random(), {"buffer_pos": 2, "has_uint32": 0}),
        (lambda g: g.random(), {"buffer_pos": 3, "has_uint32": 0}),
        # A bounded 32-bit draw leaves half a word behind.
        (lambda g: g.integers(0, 1000, dtype=np.uint32), {"has_uint32": 1}),
        (lambda g: g.exponential(size=5), {}),
        (lambda g: g.integers(0, 1000, size=3), {}),
    ]
    snapshot = None
    for number, (draw, ends_at) in enumerate(sessions):
        stream = streams.open(7, "device/7")
        assert streams.open(7, "device/7") is stream  # one open stream a row
        np.testing.assert_array_equal(draw(stream), draw(reference))
        state = reference.bit_generator.state
        assert {key: state[key] for key in ends_at} == ends_at
        streams.close(7)
        if number == 1:
            snapshot = pickle.dumps(streams)
    assert list(streams._saved) == [7] and not registry._cache

    resumed = pickle.loads(snapshot)
    replay = registry.fresh("device/7")
    for draw, _ in sessions[:2]:
        draw(replay)
    for draw, _ in sessions[2:]:
        np.testing.assert_array_equal(draw(resumed.open(7, "device/7")), draw(replay))
        resumed.close(7)


def allocating_mix64(z):
    """SplitMix64's output function as it was before it mixed in place."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=64))
@settings(max_examples=100, deadline=None)
def test_mixing_in_place_equals_the_allocating_form(words):
    edges = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    z = np.array(words + edges, dtype=np.uint64)
    want = allocating_mix64(z.copy())
    fresh = z.copy()
    got = _mix64(fresh)
    assert got is fresh  # the caller's fresh array, mixed where it lies
    assert got.tobytes() == want.tobytes()
    # And through the two callers, which hand it arrays of their own.
    keys, counters = z, z[::-1].copy()
    got_pair = RowDraws.uniform_pair(keys, counters)
    mixed = allocating_mix64(keys + counters * np.uint64(0x9E3779B97F4A7C15))
    assert got_pair[0].tobytes() == ((mixed >> np.uint64(32)) * 2.0**-32).tobytes()
    assert got_pair[1].tobytes() == ((mixed & np.uint64(0xFFFFFFFF)) * 2.0**-32).tobytes()
    assert np.array_equal(keys, np.array(words + edges, dtype=np.uint64))
