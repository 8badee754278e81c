"""The device table: a fleet's devices by index, objects on demand.

The paper's fleet is ~10^7 devices with ~10^4 live at a time (Sec. 9),
and its actors are ephemeral — created for the work (Sec. 4.1).  Outside
a round everything the server side knows of a device — WAITING at a
Selector included — fits in a row of the idle plane's columns (Lo et
al.'s *client registry*, kept apart from the client runtime), so a
:class:`~repro.device.actor.DeviceActor` is constructed the first time
something asks for it — the Selector that forwards its row to a round
(``VectorizedIdlePlane.forward``), or an explicit ``table[i]`` — and kept
from then on: its stale-event guard and its Philox session stream
(``_rng``, whose position carries over) live on the object, and nothing
else does between sessions (its memberships, its eligibility, its state
and everything it tallies stay the plane's columns, its trainers its
tenants').
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.device.actor import DeviceActor


class DeviceTable(Sequence):
    """``Sequence[DeviceActor]`` over a fleet's rows.

    Indexing, slicing and iterating construct what they touch (through
    ``construct``, which builds, adopts and spawns device ``index``);
    :meth:`rows` looks without constructing.  *When* a device is
    constructed is unobservable: it draws nothing, schedules nothing and
    writes no column.
    """

    def __init__(self, construct: Callable[[int], "DeviceActor"] | None = None):
        self._rows: list["DeviceActor | None"] = []
        self._construct = construct
        #: Devices constructed on demand so far (pre-built ones excluded).
        self.constructions = 0

    def extend(self, count: int) -> None:
        """Add ``count`` rows, none with a device object yet."""
        self._rows.extend([None] * count)

    def seat(self, index: int, device: "DeviceActor") -> None:
        """Row ``index`` is ``device``, built by the caller."""
        self._rows[index] = device

    def rows(self) -> list["DeviceActor | None"]:
        """One entry per row, ``None`` where no device has been
        constructed (read-only: the table owns the list)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._rows)))]
        device = self._rows[index]
        if device is None:
            if self._construct is None:
                raise LookupError(f"row {index} has no device and no way to build one")
            index = range(len(self._rows))[index]  # a plain, non-negative int
            device = self._rows[index] = self._construct(index)
            self.constructions += 1
        return device
