"""ASCII session-shape visualization (Sec. 5, Table 1).

A session's shape is the concatenated glyph string of its state
transitions, e.g. ``-v[]+^`` for a fully successful round and ``-v[!`` for
a round interrupted right after training started.  Charting shape counts
"allows us to quickly distinguish between different types of issues":
``-v[]+*`` is a network problem, ``-v[*`` is a model problem.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.analytics.events import (
    EVENTS,
    DeviceEvent,
    EventLog,
    EventRecord,
    group_sessions,
)

#: Table 1's legend, verbatim.
SESSION_LEGEND: dict[str, str] = {
    "-": "FL server checkin",
    "v": "downloaded plan",
    "[": "training started",
    "]": "training completed",
    "+": "upload started",
    "^": "upload completed",
    "#": "upload rejected",
    "!": "interrupted",
    "*": "error",
}

_GLYPHS = np.frombuffer("".join(e.glyph for e in EVENTS).encode("ascii"), dtype="S1")


def session_shape(events: list[EventRecord]) -> str:
    """Glyph string of one session, in event-time order."""
    ordered = sorted(events, key=lambda r: r.time_s)
    return "".join(r.event.glyph for r in ordered)


def shape_distribution(log: EventLog) -> Counter[str]:
    """Counts of every observed session shape: :func:`session_shape` of
    every session, computed on the log's rows."""
    rows = log.rows()
    order, starts, ends = group_sessions(rows, by_time=True)
    glyphs = _GLYPHS[rows["event"][order]].tobytes().decode("ascii")
    return Counter(
        glyphs[start:end] for start, end in zip(starts.tolist(), ends.tolist())
    )


def format_table(counts: Counter[str], top: int = 10) -> str:
    """Render the Table 1 layout: shape, count, percent."""
    total = sum(counts.values())
    lines = [f"{'Session Shape':<16}{'Count':>12}{'Percent':>10}"]
    for shape, count in counts.most_common(top):
        pct = 100.0 * count / total if total else 0.0
        lines.append(f"{shape:<16}{count:>12,}{pct:>9.0f}%")
    return "\n".join(lines)


def classify_shape(shape: str) -> str:
    """Coarse diagnosis of a shape (the Sec. 5 triage examples)."""
    if shape.endswith("^"):
        return "success"
    if shape.endswith("#"):
        return "upload_rejected"
    if shape.endswith("!"):
        return "interrupted"
    if shape.endswith("*"):
        if DeviceEvent.UPLOAD_STARTED.glyph in shape:
            return "network_issue"      # trained fine, upload errored
        if DeviceEvent.TRAIN_STARTED.glyph in shape:
            return "model_issue"        # failed right after loading model
        return "error"
    return "incomplete"
