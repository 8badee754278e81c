"""Fleet-wide column arrays, declared once.

An owner of per-row state (the idle plane, the column scheduler) lists
its arrays in one table of ``(name, dtype, fill)`` and sizes them only
through :func:`resize` — at construction and at every growth alike — so
a column cannot be allocated and then left behind the first time the
fleet outgrows its capacity.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: ``(attribute name, dtype, fill value for rows not yet written)``.
Column = tuple[str, Any, Any]


def resize(owner: object, table: tuple[Column, ...], shape: tuple[int, ...]) -> None:
    """(Re)allocate every column of ``table`` on ``owner`` at ``shape``
    (never smaller than the current one), keeping what is already there
    and filling the rest."""
    for name, dtype, fill in table:
        new = np.full(shape, fill, dtype=dtype)
        old = getattr(owner, name, None)
        if old is not None:
            new[tuple(slice(0, extent) for extent in old.shape)] = old
        setattr(owner, name, new)
