"""Line mark states and free-run computation (paper section 4).

Immix tracks heap memory per logical line. The stock collector uses
free / live / live-pinned states; the failure-aware extension adds a
fourth state, FAILED, "without space overhead" because line marks are
bytes with spare encodings (paper section 4.2). The bump allocator never
looks at states directly — it consumes *free runs*, the maximal spans of
contiguous FREE lines computed here.

The kernels scan line tables with C-speed byte-string primitives
(``bytes.translate`` to collapse states to a binary free/unavailable
mask, then ``find`` to jump from run edge to run edge), so the number of
Python-level steps is proportional to the number of *runs*, not the
number of *lines*. The per-line reference scans they replaced live on as
oracles in :mod:`repro.check.oracles`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

#: Line states (stored one byte per line, as in MMTk's line mark table).
FREE = 0
LIVE = 1
LIVE_PINNED = 2
FAILED = 3

_STATE_NAMES = {FREE: "free", LIVE: "live", LIVE_PINNED: "pinned", FAILED: "failed"}

#: ``bytes.translate`` table collapsing line states to a binary mask:
#: FREE -> 0x00, everything else -> 0x01.
_FREE_MASK_TABLE = bytes(0 if state == FREE else 1 for state in range(256))


def state_name(state: int) -> str:
    return _STATE_NAMES.get(state, f"?{state}")


# ----------------------------------------------------------------------
# Free-run scanning
# ----------------------------------------------------------------------
def free_runs(line_states: bytearray) -> List[Tuple[int, int]]:
    """Maximal runs of FREE lines as ``(first_line, n_lines)`` pairs.

    This is the structure the bump-pointer allocator consumes: it sets
    its cursor to the run start and its limit to the run end, skipping
    over live, pinned, and failed lines in one step.

    Fast kernel: the states collapse to a 0/1 mask via ``translate``,
    then ``find`` locates each run edge at C speed, so the Python loop
    executes once per run rather than once per line.
    """
    mask = line_states.translate(_FREE_MASK_TABLE)
    runs: List[Tuple[int, int]] = []
    n = len(mask)
    find = mask.find
    start = find(0)
    while start != -1:
        end = find(1, start + 1)
        if end == -1:
            runs.append((start, n - start))
            break
        runs.append((start, end - start))
        start = find(0, end + 1)
    return runs


class FreeRunSummary(NamedTuple):
    """Free runs plus the aggregates every consumer wants, in one pass.

    ``free_lines`` equals ``count_state(states, FREE)`` because the runs
    partition the free lines (property-tested against the oracle, which
    accumulates run lengths instead of counting the table).
    """

    runs: List[Tuple[int, int]]
    free_lines: int
    largest_run: int

    def fragmentation_index(self) -> float:
        if self.free_lines == 0:
            return 0.0
        return 1.0 - self.largest_run / self.free_lines


def free_run_summary(line_states: bytearray) -> FreeRunSummary:
    """Runs, total free lines, and largest run for one table."""
    runs = free_runs(line_states)
    if not runs:
        return FreeRunSummary(runs, 0, 0)
    largest = 0
    for run in runs:
        if run[1] > largest:
            largest = run[1]
    return FreeRunSummary(runs, line_states.count(FREE), largest)


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------
def largest_free_run(line_states: bytearray) -> int:
    """Length in lines of the largest contiguous free span."""
    return free_run_summary(line_states).largest_run


def count_state(line_states: bytearray, state: int) -> int:
    return line_states.count(state)


def fragmentation_index(line_states: bytearray) -> float:
    """How chopped-up the free space is: 0 = one run, ->1 = maximally split.

    Defined as ``1 - largest_run / total_free``; 0.0 when no free lines.
    Skips the :class:`FreeRunSummary` construction; the final division
    is the same, so the float is bit-identical to the summary's.
    """
    runs = free_runs(line_states)
    if not runs:
        return 0.0
    largest = 0
    for run in runs:
        if run[1] > largest:
            largest = run[1]
    return 1.0 - largest / line_states.count(FREE)
