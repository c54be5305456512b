"""Whole-heap structure-of-arrays table tests (heap/heap_table.py).

The flat :class:`~repro.heap.heap_table.HeapTable` must agree with the
per-slot oracles (:mod:`repro.check.oracles`) on every kernel, for
every slot population — including the edges: an empty heap, all-FAILED
segments, and single-line free runs butting against block boundaries
(the guard byte must keep them from merging). Hypothesis drives
arbitrary segment contents and retire patterns; hand-built cases pin
the edges and the LineSegment view semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import oracles
from repro.hardware.geometry import Geometry
from repro.heap.heap_table import UNMAPPED, HeapTable, LineSegment
from repro.heap.line_table import FAILED, FREE, LIVE, LIVE_PINNED

GEOMETRY = Geometry()
N_LINES = GEOMETRY.immix_lines_per_block


class Owner:
    """Stand-in block: just enough surface for LineSegment writes."""

    def __init__(self, table):
        self.table = table
        self.touched = 0
        self.slot = table.register(self)
        self.segment = LineSegment(table, self.slot, self)

    def touch_lines(self):
        self.touched += 1
        self.table.touch()


def fill(table, slot, states):
    base = table.base(slot)
    table.lines[base : base + len(states)] = bytes(states)
    for i, state in enumerate(states):
        table.fail_marks[base + i] = 1 if state == FAILED else 0
    table.touch()


def reference_results(table):
    return (
        oracles.heap_free_line_count(table),
        oracles.heap_failed_line_count(table),
        oracles.slots_with_free_lines(table),
    )


def fast_results(table):
    return (
        table.free_line_count(),
        table.failed_line_count(),
        table.slots_with_free_lines(),
    )


line_state = st.sampled_from([FREE, LIVE, LIVE_PINNED, FAILED])
segment_states = st.lists(line_state, min_size=N_LINES, max_size=N_LINES)


class TestKernelEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        segments=st.lists(segment_states, min_size=0, max_size=4),
        retire_mask=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_fast_matches_reference(self, segments, retire_mask):
        table = HeapTable(GEOMETRY)
        slots = []
        for states in segments:
            slot = table.register(object())
            fill(table, slot, states)
            slots.append(slot)
        for slot, retired in zip(slots, retire_mask):
            if retired:
                table.retire(slot)
        assert fast_results(table) == reference_results(table)

    def test_empty_heap(self):
        table = HeapTable(GEOMETRY)
        assert fast_results(table) == reference_results(table)
        assert table.free_line_count() == 0
        assert table.slots_with_free_lines() == []

    def test_all_failed_segments(self):
        table = HeapTable(GEOMETRY)
        for _ in range(3):
            fill(table, table.register(object()), [FAILED] * N_LINES)
        assert table.free_line_count() == 0
        assert table.failed_line_count() == 3 * N_LINES
        assert table.slots_with_free_lines() == []
        assert fast_results(table) == reference_results(table)

    def test_single_line_runs_at_block_boundaries(self):
        # A FREE line ending one segment and a FREE line starting the
        # next: the guard byte must keep the flat scan from treating
        # them as one run spanning two blocks.
        table = HeapTable(GEOMETRY)
        first = table.register(object())
        second = table.register(object())
        fill(table, first, [LIVE] * (N_LINES - 1) + [FREE])
        fill(table, second, [FREE] + [LIVE] * (N_LINES - 1))
        assert table.free_line_count() == 2
        assert table.slots_with_free_lines() == [first, second]
        assert table.segment_bytes(first).count(FREE) == 1
        assert table.segment_bytes(second).count(FREE) == 1
        assert fast_results(table) == reference_results(table)

    def test_retired_hole_mid_heap(self):
        table = HeapTable(GEOMETRY)
        slots = [table.register(object()) for _ in range(3)]
        for slot in slots:
            fill(table, slot, [FREE] * N_LINES)
        table.retire(slots[1])
        assert table.slots_with_free_lines() == [slots[0], slots[2]]
        assert table.free_line_count() == 2 * N_LINES
        assert fast_results(table) == reference_results(table)


class TestSlotLifecycle:
    def test_register_lays_out_guard_bytes(self):
        table = HeapTable(GEOMETRY)
        a = table.register(object())
        b = table.register(object())
        assert len(table.lines) == 2 * table.stride
        for slot in (a, b):
            assert table.lines[table.base(slot) + N_LINES] == UNMAPPED

    def test_retire_blanks_and_recycles_lifo(self):
        table = HeapTable(GEOMETRY)
        slots = [table.register(object()) for _ in range(3)]
        for slot in slots:
            fill(table, slot, [FREE] * N_LINES)
        table.retire(slots[0])
        table.retire(slots[2])
        base = table.base(slots[0])
        assert bytes(table.lines[base : base + N_LINES]) == bytes([UNMAPPED]) * N_LINES
        assert bytes(table.fail_marks[base : base + N_LINES]) == bytes(N_LINES)
        # LIFO recycling: the most recently retired slot comes back first.
        assert table.register(object()) == slots[2]
        assert table.register(object()) == slots[0]
        # A recycled slot starts FREE again.
        assert table.segment_bytes(slots[2]).count(FREE) == N_LINES

    def test_retire_is_idempotent(self):
        table = HeapTable(GEOMETRY)
        slot = table.register(object())
        table.retire(slot)
        table.retire(slot)
        assert table.active_slots() == []
        assert table.register(object()) == slot
        assert table.active_slots() == [slot]

    def test_mutations_bump_generation(self):
        table = HeapTable(GEOMETRY)
        before = table.generation
        slot = table.register(object())
        assert table.generation > before
        count = table.free_line_count()
        base = table.base(slot)
        table.lines[base] = LIVE
        table.touch()
        assert table.free_line_count() == count - 1


class TestLineSegment:
    def test_sequence_protocol(self):
        table = HeapTable(GEOMETRY)
        owner = Owner(table)
        seg = owner.segment
        assert len(seg) == N_LINES
        assert seg[0] == FREE
        assert seg[-1] == FREE
        assert bytes(seg) == bytes(N_LINES)
        assert seg == bytes(N_LINES)
        assert list(iter(seg))[:3] == [FREE, FREE, FREE]
        assert seg.count(FREE) == N_LINES
        with pytest.raises(IndexError):
            seg[N_LINES]

    def test_writes_touch_owner_and_stay_in_segment(self):
        table = HeapTable(GEOMETRY)
        left = Owner(table)
        right = Owner(table)
        left.segment[N_LINES - 1] = LIVE
        assert left.touched == 1
        # The write lands inside left's segment; the guard byte and the
        # right neighbour are untouched.
        assert table.lines[table.base(left.slot) + N_LINES] == UNMAPPED
        assert right.segment == bytes(N_LINES)
        left.segment[0:4] = bytes([FAILED] * 4)
        assert left.touched == 2
        assert left.segment[0:4] == bytes([FAILED] * 4)

    def test_writes_cannot_resize(self):
        table = HeapTable(GEOMETRY)
        owner = Owner(table)
        with pytest.raises(ValueError):
            owner.segment[0:2] = bytes(3)

    def test_translate_and_slicing(self):
        table = HeapTable(GEOMETRY)
        owner = Owner(table)
        owner.segment[0] = LIVE
        mapping = bytearray(range(256))
        mapping[LIVE] = FREE
        assert owner.segment.translate(bytes(mapping)) == bytes(N_LINES)
        assert owner.segment[::2] == bytes(owner.segment)[::2]

    @settings(max_examples=25, deadline=None)
    @given(states=segment_states)
    def test_view_equals_bytes_semantics(self, states):
        table = HeapTable(GEOMETRY)
        owner = Owner(table)
        owner.segment[0:N_LINES] = bytes(states)
        raw = bytes(states)
        seg = owner.segment
        assert bytes(seg) == raw
        assert seg == raw
        assert seg.count(FREE) == raw.count(FREE)
        assert seg.count(FAILED, 3, 17) == raw.count(FAILED, 3, 17)
        assert [seg[i] for i in range(len(raw))] == list(raw)
