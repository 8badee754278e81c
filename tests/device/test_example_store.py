"""Example store: TTL expiry, capacity, plan-criteria queries."""

import dataclasses
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.plan import ExampleSelectionCriteria
from repro.device.example_store import ExampleStore, ExampleStoreRegistry


def filled_store(n=10, ttl=100.0, capacity=100):
    store = ExampleStore("s", capacity=capacity, ttl_s=ttl)
    for i in range(n):
        store.add(np.array([float(i)]), i % 2, timestamp_s=float(i))
    return store


def test_add_and_len():
    assert len(filled_store(5)) == 5


def test_timestamps_must_be_ordered():
    store = ExampleStore()
    store.add([1.0], 0, timestamp_s=10.0)
    with pytest.raises(ValueError, match="timestamp order"):
        store.add([2.0], 1, timestamp_s=5.0)


def test_capacity_evicts_oldest():
    store = ExampleStore("s", capacity=3, ttl_s=None)
    for i in range(5):
        store.add([float(i)], 0, timestamp_s=float(i))
    assert len(store) == 3
    assert store.total_evicted == 2
    x, _ = store.query(ExampleSelectionCriteria(max_examples=10), now_s=10.0)
    assert x.ravel().tolist() == [2.0, 3.0]  # holdout split removed last 20%


def test_ttl_expiry():
    store = filled_store(n=10, ttl=5.0)
    removed = store.expire(now_s=7.0)
    assert removed == 2  # timestamps 0 and 1 are older than 5s at t=7
    assert store.total_expired == 2


def test_query_applies_ttl():
    store = filled_store(n=10, ttl=4.0)
    x, y = store.query(ExampleSelectionCriteria(max_examples=100), now_s=9.0)
    # Only timestamps 5..9 survive; holdout split removes the last 20%.
    assert x.shape[0] == 4


def test_query_max_age_filter():
    store = filled_store(n=10, ttl=None)
    criteria = ExampleSelectionCriteria(max_examples=100, max_age_s=3.0)
    x, _ = store.query(criteria, now_s=9.0)
    # Ages 0..3 -> timestamps 6..9 -> 4 rows -> minus 20% holdout = 3.
    assert x.shape[0] == 3


def test_holdout_and_train_are_disjoint():
    store = filled_store(n=10, ttl=None)
    train_x, _ = store.query(
        ExampleSelectionCriteria(max_examples=100, holdout=False), now_s=20.0
    )
    hold_x, _ = store.query(
        ExampleSelectionCriteria(max_examples=100, holdout=True), now_s=20.0
    )
    train_vals = set(train_x.ravel().tolist())
    hold_vals = set(hold_x.ravel().tolist())
    assert train_vals.isdisjoint(hold_vals)
    assert len(train_vals) + len(hold_vals) == 10


def test_max_examples_keeps_most_recent():
    store = filled_store(n=10, ttl=None)
    x, _ = store.query(ExampleSelectionCriteria(max_examples=3), now_s=20.0)
    assert x.shape[0] == 3
    assert x.ravel().tolist() == [5.0, 6.0, 7.0]


def test_empty_store_query():
    store = ExampleStore()
    x, y = store.query(ExampleSelectionCriteria(max_examples=5), now_s=0.0)
    assert x.shape[0] == 0


def test_registry_register_and_get():
    registry = ExampleStoreRegistry()
    store = ExampleStore("suggestions")
    registry.register("keyboard", store)
    assert registry.get("keyboard", "suggestions") is store
    assert registry.stores_for("keyboard") == [store]
    with pytest.raises(ValueError, match="already registered"):
        registry.register("keyboard", ExampleStore("suggestions"))
    with pytest.raises(KeyError):
        registry.get("other_app")


def test_store_validation():
    with pytest.raises(ValueError):
        ExampleStore(capacity=0)
    with pytest.raises(ValueError):
        ExampleStore(ttl_s=-1.0)


def test_add_batch_rejects_unequal_lengths_before_storing_anything():
    store = ExampleStore(ttl_s=None)
    store.add_batch(np.zeros((2, 3)), np.zeros(2), timestamp_s=0.0)
    with pytest.raises(ValueError, match=r"5 feature rows and 4 labels"):
        store.add_batch(np.zeros((5, 3)), np.zeros(4), timestamp_s=1.0)
    with pytest.raises(ValueError, match=r"1 feature rows and 3 labels"):
        store.add_batch(np.zeros((1, 3)), np.zeros(3), timestamp_s=1.0)
    assert (len(store), store.total_added, store.total_evicted) == (2, 2, 0)


def test_add_batch_checks_timestamp_order_per_batch():
    store = ExampleStore(ttl_s=None)
    store.add_batch(np.zeros((2, 3)), np.zeros(2), timestamp_s=10.0)
    with pytest.raises(ValueError, match="timestamp order"):
        store.add_batch(np.zeros((2, 3)), np.zeros(2), timestamp_s=9.0)
    store.add_batch(np.zeros((2, 3)), np.zeros(2), timestamp_s=10.0)  # equal is in order
    assert len(store) == 4


def test_store_keeps_the_callers_arrays_and_query_results_are_the_callers():
    x, y = np.arange(20.0).reshape(10, 2), np.arange(10)
    store = ExampleStore(capacity=8, ttl_s=None)
    store.add_batch(x, y, timestamp_s=0.0)
    kept_x, kept_y, _ = store._blocks[0]
    assert kept_x is x and kept_y is y  # by reference: no copy at rest
    x_before, y_before = x.copy(), y.copy()
    criteria = ExampleSelectionCriteria(max_examples=100)
    got_x, got_y = store.query(criteria, now_s=0.0)
    assert not np.shares_memory(got_x, x) and not np.shares_memory(got_y, y)
    assert got_x.flags.owndata and got_x.flags.c_contiguous and got_x.flags.writeable
    got_x[:] = -1.0
    got_y[:] = -1
    again_x, again_y = store.query(criteria, now_s=0.0)
    assert again_x.tolist() == x_before[2:8].tolist()  # capacity cut 2, holdout cut 2
    assert again_y.tolist() == y_before[2:8].tolist()
    assert (x == x_before).all() and (y == y_before).all()


# -- reference model ------------------------------------------------------------
class DequeExampleStore:
    """The store as it was before it held blocks — one record and one row
    view per example — frozen here as the oracle."""

    def __init__(self, capacity, ttl_s):
        self.capacity, self.ttl_s = capacity, ttl_s
        self._examples = deque()
        self.total_added = self.total_expired = self.total_evicted = 0

    def __len__(self):
        return len(self._examples)

    def add(self, features, label, timestamp_s):
        if self._examples and timestamp_s < self._examples[-1][2]:
            raise ValueError("examples must be added in timestamp order")
        self._examples.append((features, label, timestamp_s))
        self.total_added += 1
        while len(self._examples) > self.capacity:
            self._examples.popleft()
            self.total_evicted += 1

    def add_batch(self, x, y, timestamp_s):
        for features, label in zip(np.asarray(x), np.asarray(y)):
            self.add(features, label, timestamp_s)

    def expire(self, now_s):
        if self.ttl_s is None:
            return 0
        removed = 0
        while self._examples and now_s - self._examples[0][2] > self.ttl_s:
            self._examples.popleft()
            removed += 1
        self.total_expired += removed
        return removed

    def query(self, criteria, now_s):
        self.expire(now_s)
        rows = list(self._examples)
        if criteria.max_age_s is not None:
            rows = [e for e in rows if now_s - e[2] <= criteria.max_age_s]
        if rows:
            cut = max(1, int(len(rows) * 0.8)) if len(rows) > 1 else 1
            rows = rows[cut:] if criteria.holdout else rows[:cut]
        rows = rows[-criteria.max_examples :]
        if not rows:
            return np.zeros((0,)), np.zeros((0,))
        x = np.stack([np.asarray(e[0]) for e in rows])
        y = np.asarray([e[1] for e in rows])
        return x, y


def assert_same_arrays(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tolist() == expected.tolist()
    assert got.flags.c_contiguous and got.flags.owndata


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 12),
    ttl_s=st.none() | st.sampled_from([1.0, 3.0, 10.0]),
    x_dtype=st.sampled_from([np.float64, np.float32, np.int32]),
    y_dtype=st.sampled_from([np.int64, np.uint8, np.float32]),
    row_shape=st.sampled_from([(), (3,), (2, 2)]),
    fortran=st.booleans(),
    data=st.data(),
)
def test_block_store_follows_the_per_example_store(
    capacity, ttl_s, x_dtype, y_dtype, row_shape, fortran, data
):
    store = ExampleStore("s", capacity=capacity, ttl_s=ttl_s)
    oracle = DequeExampleStore(capacity, ttl_s)
    now_s, serial = 0.0, 0
    for _ in range(data.draw(st.integers(1, 14), label="steps")):
        now_s += data.draw(st.sampled_from([0.0, 0.5, 2.0, 6.0]), label="dt")
        step = data.draw(
            st.sampled_from(["add", "add_scalars", "add_batch", "stale", "expire", "query", "query"]),
            label="step",
        )
        if step == "add_batch":
            # Up to 2.5x capacity: eviction cuts inside a block, or drops
            # whole blocks and then cuts inside the one just added.
            n = data.draw(st.integers(0, 30), label="rows")
            x = (serial + np.arange(n * int(np.prod(row_shape, dtype=int)))).reshape(
                (n, *row_shape)
            ).astype(x_dtype)
            if fortran:
                x = np.asfortranarray(x)
            y = (serial + np.arange(n)).astype(y_dtype)
            serial += n
            for each in (store, oracle):
                each.add_batch(x, y, now_s)
        elif step == "add":
            features = np.full(row_shape, serial, dtype=x_dtype)
            label = y_dtype(serial)
            serial += 1
            for each in (store, oracle):
                each.add(features, label, now_s)
        elif step == "add_scalars":  # Python values, as an application's one-off add
            features = np.full(row_shape, serial).tolist()
            serial += 1
            for each in (store, oracle):
                each.add(features, serial % 3, now_s)
        elif step == "stale":  # refused alike, unless everything before it expired
            outcomes = []
            for each in (store, oracle):
                try:
                    each.add_batch(np.zeros((2, *row_shape), x_dtype), np.zeros(2, y_dtype), now_s - 3.0)
                    outcomes.append("stored")
                except ValueError as exc:
                    assert "timestamp order" in str(exc)
                    outcomes.append("refused")
            assert outcomes[0] == outcomes[1]
        elif step == "expire":
            assert store.expire(now_s) == oracle.expire(now_s)
        else:
            criteria = ExampleSelectionCriteria(
                max_examples=data.draw(st.integers(1, 15), label="max_examples"),
                max_age_s=data.draw(st.none() | st.sampled_from([0.5, 2.0, 8.0]), label="age"),
                holdout=data.draw(st.booleans(), label="holdout"),
            )
            got, expected = store.query(criteria, now_s), oracle.query(criteria, now_s)
            if len(expected[0]):
                assert_same_arrays(got[0], expected[0])
                assert_same_arrays(got[1], expected[1])
            else:
                assert got[0].shape == got[1].shape == (0,) and got[0].dtype == np.float64
            other = dataclasses.replace(criteria, holdout=not criteria.holdout, max_examples=10_000)
            mine = dataclasses.replace(criteria, max_examples=10_000)
            both = len(store.query(mine, now_s)[1]) + len(store.query(other, now_s)[1])
            aged_out = len(store) - both
            assert aged_out >= 0 and (criteria.max_age_s is not None or aged_out == 0)
        assert len(store) == len(oracle) <= capacity
        assert (store.total_added, store.total_expired, store.total_evicted) == (
            oracle.total_added, oracle.total_expired, oracle.total_evicted,
        )


def test_a_block_is_released_with_its_last_row():
    store = ExampleStore(capacity=4, ttl_s=5.0)
    store.add_batch(np.zeros((3, 2)), np.zeros(3), timestamp_s=0.0)
    store.add_batch(np.ones((4, 2)), np.ones(4), timestamp_s=1.0)  # evicts exactly block one
    assert len(store._blocks) == 1 and store._head == 0 and store.total_evicted == 3
    assert store.expire(now_s=10.0) == 4
    assert len(store) == 0 and not store._blocks
    # Nothing is stored, so there is no timestamp to be in order with.
    store.add([0.0, 0.0], 0, timestamp_s=2.0)
    assert len(store) == 1
