"""``DeviceTable``: a sequence that constructs what it is asked for, once."""

from collections.abc import Sequence

import numpy as np
import pytest

from repro.device.table import DeviceTable


class Built:
    def __init__(self, index):
        self.index = index


def make_table(rows=6):
    built = []

    def construct(index):
        assert type(index) is int and 0 <= index < rows
        built.append(index)
        return Built(index)

    table = DeviceTable(construct)
    table.extend(rows)
    return table, built


def test_indexing_constructs_once_and_keeps():
    table, built = make_table()
    assert isinstance(table, Sequence) and len(table) == 6 and built == []
    third = table[2]
    assert third.index == 2 and table[2] is third and table[-4] is third
    assert table[np.int64(2)] is third
    assert table[-1].index == 5 and table[np.int64(-2)].index == 4
    assert built == [2, 5, 4] and table.constructions == 3
    with pytest.raises(IndexError):
        table[6]
    with pytest.raises(IndexError):
        table[-7]


def test_rows_looks_without_constructing():
    table, built = make_table()
    table[1]
    assert [row is not None for row in table.rows()] == [
        False, True, False, False, False, False
    ]
    assert built == [1]


def test_slices_and_iteration_construct_what_they_touch():
    table, built = make_table()
    assert [d.index for d in table[1:4]] == [1, 2, 3]
    assert [d.index for d in table[::-2]] == [5, 3, 1]
    assert built == [1, 2, 3, 5]
    assert [d.index for d in table] == [0, 1, 2, 3, 4, 5]
    assert sorted(built) == [0, 1, 2, 3, 4, 5] and table.constructions == 6
    assert table[3] in table and table.index(table[3]) == 3


def test_seated_devices_are_not_constructed():
    table, built = make_table(2)
    mine = Built(0)
    table.seat(0, mine)
    assert table[0] is mine and built == [] and table.constructions == 0


def test_a_table_without_a_constructor_holds_only_what_is_seated():
    table = DeviceTable()
    table.extend(2)
    table.seat(1, Built(1))
    assert table[1].index == 1
    with pytest.raises(LookupError):
        table[0]
