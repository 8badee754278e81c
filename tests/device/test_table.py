"""``DeviceTable``: a row has a device object only while it is in a session."""

from collections.abc import Sequence

import numpy as np
import pytest

from repro.device.table import DeviceTable


class Built:
    def __init__(self, index, profile):
        self.index = index
        self.profile = profile


def make_table(rows=6):
    built, retired = [], []

    def construct(index, profile):
        assert type(index) is int and 0 <= index < rows
        built.append(index)
        return Built(index, profile)

    table = DeviceTable(construct, lambda device: retired.append(device.index))
    table.extend(rows)
    return table, built, retired


def test_a_session_device_is_kept_until_closed_and_a_look_is_not():
    table, built, retired = make_table()
    assert isinstance(table, Sequence) and len(table) == 6 and built == []
    third = table.open(2, "profile-2")
    assert third.index == 2 and third.profile == "profile-2"
    assert table.open(2) is third and table[2] is third and table[-4] is third
    assert table[np.int64(2)] is third
    assert built == [2] and retired == [] and table.constructions == 1
    # Any other row is a look: built and retired at once, never counted.
    look = table[-1]
    assert look.index == 5 and look.profile is None and table[np.int64(-1)] is not look
    assert built == [2, 5, 5] and retired == [5, 5] and table.constructions == 1
    table.close(2)
    assert retired == [5, 5, 2] and table[2] is not third
    table.close(2)  # nothing left to retire
    assert retired == [5, 5, 2, 2]
    with pytest.raises(IndexError):
        table[6]
    with pytest.raises(IndexError):
        table[-7]


def test_rows_looks_without_constructing():
    table, built, _ = make_table()
    table.open(1)
    assert [row is not None for row in table.rows()] == [
        False, True, False, False, False, False
    ]
    assert built == [1]


def test_slices_and_iteration_construct_what_they_touch():
    table, built, retired = make_table()
    assert [d.index for d in table[1:4]] == [1, 2, 3]
    assert [d.index for d in table[::-2]] == [5, 3, 1]
    assert built == retired == [1, 2, 3, 5, 3, 1]
    assert [d.index for d in table] == [0, 1, 2, 3, 4, 5]
    assert table.constructions == 0 and len(retired) == 12
    kept = table.open(3)
    assert kept in table and table.index(kept) == 3


def test_seated_devices_are_not_constructed():
    table, built, retired = make_table(2)
    mine = Built(0, None)
    table.seat(0, mine)
    assert table[0] is mine and table.open(0) is mine
    assert built == [] and table.constructions == 0
    table.close(0)
    assert retired == [0] and table[0] is not mine


def test_a_table_without_a_constructor_holds_only_what_is_seated():
    table = DeviceTable()
    table.extend(2)
    table.seat(1, Built(1, None))
    assert table[1].index == 1
    with pytest.raises(LookupError):
        table[0]
    with pytest.raises(LookupError):
        table.open(0)
