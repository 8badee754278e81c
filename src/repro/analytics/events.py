"""Device training-state event log (Sec. 5).

"We also log an event for every state in a training round, and use these
logs to generate ASCII visualizations of the sequence of state transitions
happening across all devices."  Events are PII-free: device id, round id,
state, timestamp, plus optional non-identifying attributes (error kind,
phone model class, ...).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np


class DeviceEvent(enum.Enum):
    """Training-session states, with their Table 1 ASCII legend glyphs."""

    CHECKIN = "-"            # FL server checkin
    DOWNLOADED_PLAN = "v"    # downloaded plan (+ checkpoint)
    TRAIN_STARTED = "["
    TRAIN_COMPLETED = "]"
    UPLOAD_STARTED = "+"
    UPLOAD_COMPLETED = "^"
    UPLOAD_REJECTED = "#"
    INTERRUPTED = "!"
    ERROR = "*"

    @property
    def glyph(self) -> str:
        return self.value


#: The log's ``event`` column is an index into this tuple.
EVENTS: tuple[DeviceEvent, ...] = tuple(DeviceEvent)
_CODE = {event: code for code, event in enumerate(EVENTS)}
#: One logged record, as the log packs it and as readers get it back.
ROW = np.dtype(
    [("time_s", "<f8"), ("device_id", "<i8"), ("round_id", "<i8"), ("event", "i1")]
)
_pack_row = struct.Struct("<dqqb").pack


@dataclass(frozen=True, slots=True)
class EventRecord:
    time_s: float
    device_id: int
    round_id: int
    event: DeviceEvent
    attrs: Mapping[str, object] = field(default_factory=dict)


class EventLog:
    """Append-only event store: one packed :data:`ROW` per record, plus
    the attributes of the few records that carry any.  Nothing is kept
    per record or per session; readers get :class:`EventRecord`s built on
    demand, or the rows themselves.

    A *session* is one device's participation in one round — the unit
    whose glyph string Table 1 tabulates.  Records are in append order,
    which is not time order: a session's check-in is logged at configure
    time, stamped with its true earlier time.
    """

    def __init__(self) -> None:
        self._rows = bytearray()
        self._attrs: dict[int, Mapping[str, object]] = {}

    _EMPTY_ATTRS: Mapping[str, object] = {}

    def log(
        self,
        time_s: float,
        device_id: int,
        round_id: int,
        event: DeviceEvent,
        **attrs: object,
    ) -> None:
        self._rows += _pack_row(time_s, device_id, round_id, _CODE[event])
        if attrs:
            self._attrs[len(self) - 1] = attrs

    def __len__(self) -> int:
        return len(self._rows) // ROW.itemsize

    def rows(self) -> np.ndarray:
        """Every record as a :data:`ROW` array, in append order.  A copy:
        a view would pin the buffer the next ``log`` has to grow."""
        return np.frombuffer(bytes(self._rows), dtype=ROW)

    def _records(self, rows: np.ndarray, indices: np.ndarray) -> list[EventRecord]:
        attrs, none = self._attrs, self._EMPTY_ATTRS
        values = zip(indices.tolist(), rows[indices].tolist())
        return [
            EventRecord(time_s, device_id, round_id, EVENTS[code], attrs.get(i, none))
            for i, (time_s, device_id, round_id, code) in values
        ]

    def records(self) -> list[EventRecord]:
        return self._records(self.rows(), np.arange(len(self)))

    def session(self, device_id: int, round_id: int) -> list[EventRecord]:
        rows = self.rows()
        mine = (rows["device_id"] == device_id) & (rows["round_id"] == round_id)
        return self._records(rows, np.flatnonzero(mine))

    def sessions(self) -> Iterator[tuple[tuple[int, int], list[EventRecord]]]:
        """All (device, round) sessions in first-event order, each
        session's records in append order."""
        rows = self.rows()
        order, starts, ends = group_sessions(rows)
        for start, end in zip(starts.tolist(), ends.tolist()):
            records = self._records(rows, order[start:end])
            yield (records[0].device_id, records[0].round_id), records

    def events_in_window(
        self, start_s: float, end_s: float
    ) -> list[EventRecord]:
        rows = self.rows()
        inside = (start_s <= rows["time_s"]) & (rows["time_s"] < end_s)
        return self._records(rows, np.flatnonzero(inside))

    def count(self, event: DeviceEvent) -> int:
        return int(np.count_nonzero(self.rows()["event"] == _CODE[event]))


def group_sessions(
    rows: np.ndarray, by_time: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stable group-by of a log's rows.  Returns the row indices
    sorted by (device, round) — and within a session by time, if asked —
    with rows equal on all of those left in append order; and each
    session's ``[start, end)`` in that order, the sessions themselves in
    first-event order: by the time of a session's first-appended record,
    ties by first appearance."""
    keys = [rows["round_id"], rows["device_id"]]  # least significant first
    if by_time:
        keys.insert(0, rows["time_s"])
    order = np.lexsort(keys)
    if not len(order):
        return order, order, order
    device_id, round_id = rows["device_id"][order], rows["round_id"][order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (device_id[1:] != device_id[:-1]) | (round_id[1:] != round_id[:-1])
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)
    rank = np.lexsort((first, rows["time_s"][first]))
    return order, starts[rank], np.append(starts[1:], len(order))[rank]
