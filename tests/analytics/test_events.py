"""Event log basics."""

import dataclasses
import pickle
import struct
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.events import DeviceEvent, EventLog, EventRecord
from repro.analytics.session_shapes import session_shape, shape_distribution


def test_glyphs_match_table_one_legend():
    assert DeviceEvent.CHECKIN.glyph == "-"
    assert DeviceEvent.DOWNLOADED_PLAN.glyph == "v"
    assert DeviceEvent.TRAIN_STARTED.glyph == "["
    assert DeviceEvent.TRAIN_COMPLETED.glyph == "]"
    assert DeviceEvent.UPLOAD_STARTED.glyph == "+"
    assert DeviceEvent.UPLOAD_COMPLETED.glyph == "^"
    assert DeviceEvent.UPLOAD_REJECTED.glyph == "#"
    assert DeviceEvent.INTERRUPTED.glyph == "!"
    assert DeviceEvent.ERROR.glyph == "*"


def test_log_and_session_lookup():
    log = EventLog()
    log.log(1.0, device_id=5, round_id=2, event=DeviceEvent.CHECKIN)
    log.log(2.0, device_id=5, round_id=2, event=DeviceEvent.DOWNLOADED_PLAN)
    log.log(1.5, device_id=6, round_id=2, event=DeviceEvent.CHECKIN)
    assert len(log) == 3
    session = log.session(5, 2)
    assert [r.event for r in session] == [
        DeviceEvent.CHECKIN,
        DeviceEvent.DOWNLOADED_PLAN,
    ]
    assert log.session(99, 1) == []


def test_sessions_ordered_by_first_event():
    log = EventLog()
    log.log(5.0, 1, 1, DeviceEvent.CHECKIN)
    log.log(2.0, 2, 1, DeviceEvent.CHECKIN)
    keys = [key for key, _ in log.sessions()]
    assert keys == [(2, 1), (1, 1)]


def test_window_query_and_count():
    log = EventLog()
    for t in (1.0, 5.0, 9.0):
        log.log(t, 1, 1, DeviceEvent.ERROR)
    assert len(log.events_in_window(0.0, 6.0)) == 2
    assert log.count(DeviceEvent.ERROR) == 3
    assert log.count(DeviceEvent.CHECKIN) == 0


def test_attrs_preserved():
    log = EventLog()
    log.log(1.0, 1, 1, DeviceEvent.ERROR, reason="oom")
    assert log.records()[0].attrs["reason"] == "oom"


def test_a_value_a_row_cannot_hold_is_refused_whole():
    log = EventLog()
    log.log(1.0, 1, 1, DeviceEvent.CHECKIN)
    with pytest.raises(struct.error):
        log.log(2.0, "not-a-device-id", 1, DeviceEvent.ERROR, reason="x")
    with pytest.raises(struct.error):
        log.log(2.0, 1, 2**70, DeviceEvent.ERROR)
    log.log(3.0, 2, 1, DeviceEvent.DOWNLOADED_PLAN)
    assert [(r.time_s, r.device_id, r.event, dict(r.attrs)) for r in log.records()] == [
        (1.0, 1, DeviceEvent.CHECKIN, {}),
        (3.0, 2, DeviceEvent.DOWNLOADED_PLAN, {}),
    ]


def test_records_are_immutable_and_dictless():
    log = EventLog()
    log.log(1.0, 1, 1, DeviceEvent.CHECKIN)
    record = log.records()[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.time_s = 2.0


# -- reference model ------------------------------------------------------------
class ListEventLog:
    """The log as it was before it became columns — one record object per
    event, one list per session — frozen here as the oracle."""

    def __init__(self):
        self._records = []
        self._sessions = defaultdict(list)

    def log(self, time_s, device_id, round_id, event, **attrs):
        record = EventRecord(time_s, device_id, round_id, event, attrs)
        self._records.append(record)
        self._sessions[(device_id, round_id)].append(record)

    def __len__(self):
        return len(self._records)

    def records(self):
        return list(self._records)

    def session(self, device_id, round_id):
        return list(self._sessions.get((device_id, round_id), []))

    def sessions(self):
        for key in sorted(self._sessions, key=lambda k: self._sessions[k][0].time_s):
            yield key, list(self._sessions[key])

    def events_in_window(self, start_s, end_s):
        return [r for r in self._records if start_s <= r.time_s < end_s]

    def count(self, event):
        return sum(1 for r in self._records if r.event is event)

    def shape_distribution(self):
        counts = Counter()
        for _, events in self.sessions():
            counts[session_shape(events)] += 1
        return counts


# Few distinct times, devices and rounds: equal timestamps, out-of-order
# timestamps and repeated (device, round) keys in nearly every example.
appends = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 7.0, 1e6]),
        st.integers(0, 3) | st.sampled_from([-1, 2**40]),
        st.integers(0, 2),
        st.sampled_from(list(DeviceEvent)),
        st.dictionaries(st.sampled_from(["reason", "attempt"]), st.integers(0, 3), max_size=2),
    ),
    max_size=40,
)


def assert_same_reads(log, oracle):
    assert len(log) == len(oracle)
    assert log.records() == oracle.records()
    ours, theirs = list(log.sessions()), list(oracle.sessions())
    assert ours == theirs  # keys in order, and every session's records in order
    for (device_id, round_id), _ in theirs:
        assert log.session(device_id, round_id) == oracle.session(device_id, round_id)
    assert log.session(99, 99) == []
    for event in DeviceEvent:
        assert log.count(event) == oracle.count(event)
    for window in [(0.0, 0.0), (0.0, 2.0), (0.5, 2.5), (2.5, 1e7), (-1.0, 1e7)]:
        assert log.events_in_window(*window) == oracle.events_in_window(*window)
    shapes = shape_distribution(log)
    assert shapes == oracle.shape_distribution()
    assert list(shapes.items()) == list(oracle.shape_distribution().items())


@settings(max_examples=200, deadline=None)
@given(first=appends, second=appends)
def test_event_log_reads_what_the_list_log_read(first, second):
    log, oracle = EventLog(), ListEventLog()
    for time_s, device_id, round_id, event, attrs in first:
        log.log(time_s, device_id, round_id, event, **attrs)
        oracle.log(time_s, device_id, round_id, event, **attrs)
    assert_same_reads(log, oracle)
    # A read must leave nothing behind that pins a column: appending after
    # one is where an exported buffer raises BufferError.
    restored = pickle.loads(pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL))
    assert_same_reads(restored, oracle)
    for time_s, device_id, round_id, event, attrs in second:
        for each in (log, restored, oracle):
            each.log(time_s, device_id, round_id, event, **attrs)
    assert_same_reads(log, oracle)
    assert_same_reads(restored, oracle)


def test_rows_are_a_copy_that_pins_nothing():
    log = EventLog()
    log.log(1.0, 1, 1, DeviceEvent.CHECKIN)
    rows = log.rows()
    log.log(2.0, 1, 1, DeviceEvent.ERROR)  # would raise BufferError on a view
    assert rows["time_s"].tolist() == [1.0] and rows["event"].tolist() == [0]
    assert log.rows()["time_s"].tolist() == [1.0, 2.0]
