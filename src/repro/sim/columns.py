"""Fleet-wide column arrays, declared once.

An owner of per-row state (the idle plane, the column scheduler) lists
its arrays in one table of ``(name, dtype, fill)`` and sizes them only
through :func:`resize` — at construction and at every growth alike — so
a column cannot be allocated and then left behind the first time the
fleet outgrows its capacity.  A table sized as a *record* is one array of
cache-line rows, each column's attribute a view of its field: a row's
fields are then read and written as one line.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: ``(attribute name, dtype, fill value for rows not yet written)``.
Column = tuple[str, Any, Any]

#: A record row's size and alignment: one cache line.
RECORD_BYTES = 64


def resize(owner: object, table: tuple[Column, ...], shape: tuple[int, ...], record=None):
    """(Re)allocate every column of ``table`` on ``owner`` at ``shape``
    (never smaller than the current one), keeping what is already there
    and filling the rest — as the fields (widest first, so each is
    aligned) of one record array at attribute ``record``, when given."""
    if record is not None:
        return _resize_record(owner, table, shape[0], record)
    for name, dtype, fill in table:
        new = np.full(shape, fill, dtype=dtype)
        old = getattr(owner, name, None)
        if old is not None:
            new[tuple(slice(0, extent) for extent in old.shape)] = old
        setattr(owner, name, new)


def _resize_record(owner: object, table: tuple[Column, ...], size: int, record: str):
    names, dtypes, _ = zip(*table)
    dtype = np.dtype({"names": names, "formats": dtypes, "itemsize": RECORD_BYTES})
    # Zeroed, so the padding byte pickles the same every run.
    raw = np.zeros((size + 1) * RECORD_BYTES, np.uint8)
    skip = -raw.ctypes.data % RECORD_BYTES
    new = raw[skip : skip + size * RECORD_BYTES].view(dtype)
    old = getattr(owner, record, new[:0])
    new[: old.size] = old
    setattr(owner, record, new)
    for name, _, fill in table:
        view = new[name]
        view[old.size :] = fill
        setattr(owner, name, view)
