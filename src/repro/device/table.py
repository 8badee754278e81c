"""The device table: a fleet's devices by index, objects only in a session.

The paper's fleet is ~10^7 devices with ~10^4 live at a time (Sec. 9),
and its actors are ephemeral — created for the work (Sec. 4.1).  Outside
a session everything the server side knows of a device fits in a row of
the idle plane's columns (Lo et al.'s *client registry*, kept apart from
the client runtime), so a :class:`~repro.device.actor.DeviceActor` is
built when a round forwards its row and goes when the session is over,
or when the row hangs up before its configuration comes.  Nothing of it
outlives that: its record stays the plane's columns, its trainers its
tenants', its stream's position the fleet's ``SessionStreams``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.device.actor import DeviceActor


def _stop(device: "DeviceActor") -> None:
    device.system.stop(device.ref)


class DeviceTable(Sequence):
    """``Sequence[DeviceActor]`` over a fleet's rows: :meth:`open` builds a
    row's device for a session (``construct(index, profile)``), :meth:`close`
    hands it to ``retire``; indexing any other row builds a look, retired at
    once, and :meth:`rows` looks without building."""

    def __init__(self, construct: Callable | None = None, retire: Callable = _stop):
        self._size = 0
        self._live: dict[int, "DeviceActor"] = {}
        self._construct = construct
        self._retire = retire
        #: Devices built for a session so far (looks and seated ones excluded).
        self.constructions = 0

    def extend(self, count: int) -> None:
        self._size += count

    def seat(self, index: int, device: "DeviceActor") -> None:
        """Row ``index`` is ``device``, built by the caller, until it is closed."""
        self._live[index] = device

    def open(self, index: int, profile=None) -> "DeviceActor":
        """Row ``index``'s device for a session: its own, or one built now."""
        device = self._live.get(index)
        if device is None:
            device = self._live[index] = self._build(index, profile)
            self.constructions += 1
        return device

    def close(self, index: int) -> None:
        """Row ``index``'s session is over: its device, if it has one, goes."""
        device = self._live.pop(index, None)
        if device is not None:
            self._retire(device)

    def live_rows(self) -> list[int]:
        """The rows whose device is built, in row order."""
        return sorted(self._live)

    def rows(self) -> list["DeviceActor | None"]:
        """One entry per row, ``None`` where no device is in a session."""
        return [self._live.get(i) for i in range(self._size)]

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._size))]
        index = range(self._size)[index]  # a plain, non-negative int
        device = self._live.get(index)
        if device is None:
            device = self._build(index, None)
            self._retire(device)
        return device

    def _build(self, index: int, profile) -> "DeviceActor":
        if self._construct is None:
            raise LookupError(f"row {index} has no device and no way to build one")
        return self._construct(index, profile)
