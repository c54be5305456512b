"""Reference oracles for the hot-path heap and OS kernels.

The production kernels scan line tables with C-speed byte-string
primitives and memoize summaries behind generation counters
(:mod:`repro.heap.line_table`, :class:`~repro.heap.block.Block`,
:class:`~repro.heap.heap_table.HeapTable`,
:class:`~repro.osim.failure_table.FailureTable`). Each function here
recomputes one of those answers the slow, obvious way — a per-line,
per-slot or per-bit Python loop with no caching — from the production
object it is handed.

Three kinds of caller compare against them: the paranoid heap auditor's
kernel-cache-coherence check (:mod:`repro.check.invariants`), the
``repro microbench`` identity-and-speedup grid, and the property tests.
The simulator itself never calls them: ``heap``, ``osim`` and
``collectors`` must not import this module.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..heap.line_table import (
    FAILED,
    FREE,
    LIVE,
    LIVE_PINNED,
    FreeRunSummary,
    count_state,
)
from ..osim.failure_table import _popcount


# ----------------------------------------------------------------------
# Line tables (any byte sequence of line states)
# ----------------------------------------------------------------------
def free_runs(line_states) -> List[Tuple[int, int]]:
    """Maximal runs of FREE lines as ``(first_line, n_lines)``, per line."""
    runs: List[Tuple[int, int]] = []
    start = None
    for index, state in enumerate(line_states):
        if state == FREE:
            if start is None:
                start = index
        elif start is not None:
            runs.append((start, index - start))
            start = None
    if start is not None:
        runs.append((start, len(line_states) - start))
    return runs


def free_run_summary(line_states) -> FreeRunSummary:
    """Runs plus free-line total and largest run, accumulated from the runs."""
    runs = free_runs(line_states)
    free_lines = 0
    largest = 0
    for _start, length in runs:
        free_lines += length
        if length > largest:
            largest = length
    return FreeRunSummary(runs, free_lines, largest)


def largest_free_run(line_states) -> int:
    best = 0
    for _, length in free_runs(line_states):
        best = max(best, length)
    return best


def fragmentation_index(line_states) -> float:
    """``1 - largest_run / total_free`` by a count, then a run scan."""
    total_free = count_state(line_states, FREE)
    if total_free == 0:
        return 0.0
    return 1.0 - largest_free_run(line_states) / total_free


# ----------------------------------------------------------------------
# Blocks
# ----------------------------------------------------------------------
def rebuild_line_marks(block, epoch: int, keep_old: bool = False) -> Tuple[int, int]:
    """The per-line Immix sweep; mutates ``block`` like the real one.

    Resolves the FAILED > LIVE_PINNED > LIVE > FREE precedence line by
    line while visiting survivors in object order.
    """
    states = block.line_states
    for line in range(block.n_lines):
        states[line] = FREE
    for line in block.failed_lines:
        states[line] = FAILED
    survivors = []
    conflicts: List[Tuple[int, int]] = []
    line_size = block.geometry.immix_line
    for obj in block.objects:
        if obj.mark != epoch and not (keep_old and obj.old):
            continue
        survivors.append(obj)
        state = LIVE_PINNED if obj.pinned else LIVE
        for line in obj.line_span(line_size):
            if states[line] == FAILED:
                conflicts.append((obj.oid, line))
                continue
            if states[line] != LIVE_PINNED:
                states[line] = state
    block.mark_conflicts = conflicts
    block.objects = survivors
    block.allocated_since_gc = False
    block.touch_lines()
    block.touch_objects()
    live_lines = count_state(states, LIVE) + count_state(states, LIVE_PINNED)
    return live_lines, block.n_lines


def objects_overlapping_line(block, immix_line: int) -> list:
    """Objects whose extent crosses ``immix_line``, in object-list order."""
    line_size = block.geometry.immix_line
    return [obj for obj in block.objects if immix_line in obj.line_span(line_size)]


def sorted_defrag_candidates(blocks: Sequence) -> list:
    """Most-holes-first ordering with every block's holes rescanned."""
    decorated = sorted(
        (
            -(free_run_summary(block.line_states).free_lines + len(block.failed_lines)),
            position,
        )
        for position, block in enumerate(blocks)
    )
    return [blocks[position] for _key, position in decorated]


# ----------------------------------------------------------------------
# Heap tables (per active slot, per line)
# ----------------------------------------------------------------------
def heap_free_line_count(table) -> int:
    total = 0
    lines = table.lines
    for slot in table.active_slots():
        base = slot * table.stride
        for i in range(base, base + table.lines_per_block):
            if lines[i] == FREE:
                total += 1
    return total


def heap_failed_line_count(table) -> int:
    total = 0
    marks = table.fail_marks
    for slot in table.active_slots():
        base = slot * table.stride
        for i in range(base, base + table.lines_per_block):
            if marks[i]:
                total += 1
    return total


def slots_with_free_lines(table) -> List[int]:
    """Active slots holding a FREE line; each scan stops at the first."""
    lines = table.lines
    slots: List[int] = []
    for slot in table.active_slots():
        base = slot * table.stride
        for i in range(base, base + table.lines_per_block):
            if lines[i] == FREE:
                slots.append(slot)
                break
    return slots


# ----------------------------------------------------------------------
# OS failure table (per bit)
# ----------------------------------------------------------------------
def failed_offsets(table, page_index: int) -> frozenset:
    bitmap = table.bitmap(page_index)
    return frozenset(
        i for i in range(table.geometry.lines_per_page) if bitmap >> i & 1
    )


def failed_line_count(table) -> int:
    return sum(_popcount(bits) for bits in table._bitmaps.values())


def compressed_size_bytes(table) -> int:
    """RLE table size, counting each page's runs bit by bit."""
    per_page = table.geometry.lines_per_page
    total = 0
    for page in sorted(page for page, bits in table._bitmaps.items() if bits):
        bitmap = table._bitmaps[page]
        runs = 0
        previous = None
        for i in range(per_page):
            bit = bitmap >> i & 1
            if bit != previous:
                runs += 1
                previous = bit
        total += 2 + min(runs, per_page // 8)
    return total
