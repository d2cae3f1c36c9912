"""Tests for processor-state emulation (Fig. 2 part 4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StateError
from repro.gensim.state import State


@pytest.fixture
def state(risc16_desc):
    return State(risc16_desc)


def test_initial_state_is_zero(state):
    assert state.read("RF", 3) == 0
    assert state.read("CCR") == 0
    assert state.pc == 0


def test_write_masks_to_width(state):
    state.write("RF", 0x1FFFF, 2)
    assert state.read("RF", 2) == 0xFFFF
    state.write("CCR", 0xFF)
    assert state.read("CCR") == 0xF


@given(st.integers(min_value=-1000, max_value=70000))
def test_pc_masked_to_width(risc16_desc, value):
    state = State(risc16_desc)
    state.pc = value
    assert state.pc == value & 0x3FF


def test_bit_range_read_write(state):
    state.write("CCR", 0b1010)
    assert state.read("CCR", hi=3, lo=2) == 0b10
    state.write("CCR", 1, hi=0, lo=0)
    assert state.read("CCR") == 0b1011


def test_alias_resolves_to_bit_of_storage(state):
    state.write("C", 1)  # CCR bit 0
    state.write("Z", 1)  # CCR bit 1
    assert state.read("CCR") == 0b11
    state.write("CCR", 0b100)
    assert state.read("C") == 0
    assert state.read("N") == 1  # CCR bit 2


def test_out_of_range_index_raises(state):
    with pytest.raises(StateError):
        state.read("RF", 8)
    with pytest.raises(StateError):
        state.write("DM", 0, 256)


def test_missing_index_on_addressed_storage_raises(state):
    with pytest.raises(StateError):
        state.read("RF")


def test_index_on_scalar_storage_raises(state):
    with pytest.raises(StateError):
        state.read("CCR", 0)


def test_unknown_storage_raises(state):
    with pytest.raises(StateError):
        state.read("BOGUS")


def test_alias_cannot_be_indexed(state):
    with pytest.raises(StateError):
        state.read("C", 1)


def test_dump_and_restore(state):
    state.write("RF", 42, 3)
    state.write("CCR", 0b11)
    snapshot = state.dump()
    state.write("RF", 0, 3)
    state.write("CCR", 0)
    state.restore(snapshot)
    assert state.read("RF", 3) == 42
    assert state.read("CCR") == 0b11


def test_dump_is_deep_for_arrays(state):
    snapshot = state.dump()
    state.write("RF", 9, 0)
    assert snapshot["RF"][0] == 0


def test_monitor_notified_on_change_only(state):
    events = []
    state.monitors.watch(
        "RF", 2, callback=lambda s, i, o, n: events.append((s, i, o, n))
    )
    state.write("RF", 7, 2)
    state.write("RF", 7, 2)  # no change
    state.write("RF", 7, 3)  # different element
    assert events == [("RF", 2, 0, 7)]


def test_alias_write_through_notifies_base_storage(state):
    events = []
    state.monitors.watch("CCR", callback=lambda *e: events.append(e))
    state.write("Z", 1)
    assert events == [("CCR", None, 0, 0b10)]
