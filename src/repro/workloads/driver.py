"""The trace driver: turns a :class:`WorkloadSpec` into allocations.

One driver, two sinks:

* a :class:`VirtualMachine` — the real run;
* :class:`LivenessProbe` — a VM-free dry run that tracks live bytes, used
  to determine each benchmark's *minimum heap* (the paper sizes every
  experiment as a multiple of the per-benchmark minimum).

Because lifetimes are measured in allocated bytes, the driver advances
its own clock (in aligned object footprints), and all randomness comes
from the seeded generator, the event stream is identical for every
sink, collector, and failure configuration: only the memory manager's
reaction differs, exactly like replay methodology in the paper.
"""

from __future__ import annotations

import heapq
import random
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..hardware.geometry import Geometry
from ..heap.object_model import ALIGN_MASK, ALIGN_PAD, aligned_size
from ..units import KiB
from .spec import SizeBand, WorkloadSpec

#: Footprints above this are large objects, placed on whole pages.
_LARGE_FOOTPRINT = 8 * KiB


def _band(band: SizeBand) -> Tuple[int, int, int]:
    """``(lo, n, n.bit_length())`` for drawing ``randint(lo, hi)`` inline.

    ``random.Random.randint(lo, hi)`` is ``lo + _randbelow(n)`` with
    ``n = hi - lo + 1``, and ``_randbelow`` draws ``getrandbits(k)``
    until the value is below ``n``. The driver repeats exactly those
    draws, so its sizes equal :meth:`SizeBand.sample` on the same
    generator (``tests/workloads/test_sampler.py`` holds it to that).
    """
    n = band.hi - band.lo + 1
    return band.lo, n, n.bit_length()


class LivenessProbe:
    """A sink that only tracks liveness (for min-heap estimation).

    Cohort members live and die with their head, so the head's stub
    carries the cohort's running footprint; no per-object table.
    """

    class _Stub:
        __slots__ = ("size", "cohort_bytes")

        def __init__(self, size: int) -> None:
            self.size = size

    def __init__(self, geometry: Optional[Geometry] = None) -> None:
        self.geometry = geometry or Geometry()
        self._page = self.geometry.page
        self.live_bytes = 0
        self.peak_live_bytes = 0
        self.objects_allocated = 0

    def alloc(self, size: int, pinned: bool = False):
        total = (size + ALIGN_PAD) & ALIGN_MASK
        if total > _LARGE_FOOTPRINT:  # large objects occupy whole pages
            page = self._page
            total = (total + page - 1) // page * page
        self.objects_allocated += 1
        live = self.live_bytes + total
        self.live_bytes = live
        if live > self.peak_live_bytes:
            self.peak_live_bytes = live
        return self._Stub(total)

    def add_root(self, obj) -> None:
        obj.cohort_bytes = obj.size

    def remove_root(self, obj) -> None:
        self.live_bytes -= obj.cohort_bytes

    def add_ref(self, parent, child) -> None:
        parent.cohort_bytes += child.size

    def mutate(self, obj) -> None:
        return None


@dataclass
class DriveResult:
    """Summary of one driven run."""

    allocated_objects: int
    allocated_bytes: int
    cohorts: int
    expired_cohorts: int


class DriverState:
    """The full resumable state of one driven workload iteration.

    Everything the trace driver knows between cohorts lives here, so a
    snapshot taken at a step boundary (one cohort = one step) restores
    to the exact event stream an uninterrupted run would produce: the
    seeded generator, the allocation clock, and the pending-death heap
    (which references live head objects by identity) all round-trip
    through pickle.
    """

    __slots__ = (
        "rng",
        "phase",
        "clock",
        "immortal",
        "cohorts",
        "expired",
        "objects",
        "pending",
        "sequence",
        "mutation_budget",
        "steps",
    )

    #: Phases of a run, in order.
    IMMORTAL = "immortal"
    CHURN = "churn"
    DONE = "done"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.phase = self.IMMORTAL
        self.clock = 0
        self.immortal = 0
        self.cohorts = 0
        self.expired = 0
        self.objects = 0
        # (death_clock, sequence, head) — sequence breaks ties.
        self.pending: List[tuple] = []
        self.sequence = 0
        self.mutation_budget = 0.0
        #: Completed step() calls; checkpoint policies key off this.
        self.steps = 0


class TraceDriver:
    """Drives a sink through one iteration of a workload.

    The driver is a resumable state machine: :meth:`begin` initializes
    a :class:`DriverState`, each :meth:`step` emits one cohort of
    allocations (returning False once the trace is exhausted), and
    :meth:`result` summarizes. :meth:`run` is the one-shot convenience
    wrapper and produces an event stream identical to stepping manually,
    so a run checkpointed between steps and resumed elsewhere replays
    bit-for-bit.
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self.state: Optional[DriverState] = None
        # Sampling constants for the per-object loops, which draw sizes
        # inline (see _band) instead of through SizeBand.sample and
        # WorkloadSpec.sample_size. Sums are formed as sample_size forms
        # them, so every float comparison is the same.
        self._small = _band(spec.small)
        self._medium = _band(spec.medium)
        self._large = _band(spec.large)
        small_w, medium_w, large_w = spec.size_weights
        self._small_w = small_w
        self._small_medium_w = small_w + medium_w
        self._total_w = small_w + medium_w + large_w

    # ------------------------------------------------------------------
    def begin(self) -> DriverState:
        """Start (or restart) the trace; returns the fresh state."""
        # crc32, not hash(): str hashes are randomized per process
        # (PYTHONHASHSEED), which made traces — and thus every result —
        # irreproducible across processes, workers, and cache entries.
        rng = random.Random(
            (self.seed << 16) ^ (zlib.crc32(self.spec.name.encode()) & 0xFFFF)
        )
        self.state = DriverState(rng)
        return self.state

    @property
    def done(self) -> bool:
        return self.state is not None and self.state.phase == DriverState.DONE

    def step(self, sink) -> bool:
        """Advance by one cohort; False when the trace is exhausted."""
        state = self.state
        if state is None:
            raise RuntimeError("call begin() before step()")
        if state.phase == DriverState.IMMORTAL:
            self._step_immortal(state, sink)
        elif state.phase == DriverState.CHURN:
            if state.clock >= self.spec.total_alloc_bytes:
                state.phase = DriverState.DONE
            else:
                self._step_churn(state, sink)
        if state.phase == DriverState.DONE:
            return False
        state.steps += 1
        return True

    def _step_immortal(self, state: DriverState, sink) -> None:
        """One immortal cohort: rooted once, never removed.

        Start-up only, so it samples through the readable reference
        (:meth:`SizeBand.sample`, :meth:`WorkloadSpec.sample_size`).
        """
        spec = self.spec
        if state.immortal >= spec.immortal_bytes:
            state.clock += state.immortal
            state.phase = DriverState.CHURN
            return
        rng = state.rng
        head_size = spec.small.sample(rng)
        head = sink.alloc(head_size)
        sink.add_root(head)
        state.immortal += aligned_size(head_size)
        state.objects += 1
        for _ in range(spec.cohort_size - 1):
            if state.immortal >= spec.immortal_bytes:
                break
            child_size = spec.sample_size(rng)
            child = sink.alloc(child_size)
            sink.add_ref(head, child)
            state.immortal += aligned_size(child_size)
            state.objects += 1

    def _step_churn(self, state: DriverState, sink) -> None:
        """One churn cohort with a sampled lifetime.

        This loop runs once per simulated object, so it keeps the
        generator, the sink's methods and the sampling constants in
        locals and draws sizes inline; the draws are exactly those of
        ``spec.small.sample`` and ``spec.sample_size``. The clock and
        object count are written back once, at the cohort's end (the
        step boundary, where snapshots are taken).
        """
        spec = self.spec
        rng = state.rng
        random_ = rng.random
        getrandbits = rng.getrandbits
        pending = state.pending
        while pending and pending[0][0] <= state.clock:
            _, _, dead_head = heapq.heappop(pending)
            sink.remove_root(dead_head)
            state.expired += 1
        lo, n, k = self._small
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        head_size = lo + r
        head = sink.alloc(head_size)
        sink.add_root(head)
        clock = state.clock + ((head_size + ALIGN_PAD) & ALIGN_MASK)
        state.cohorts += 1
        lifetime = spec.sample_lifetime(rng)
        heapq.heappush(pending, (clock + lifetime, state.sequence, head))
        state.sequence += 1
        objects = 1
        alloc = sink.alloc
        add_ref = sink.add_ref
        pinned_fraction = spec.pinned_fraction
        small = self._small
        medium = self._medium
        large = self._large
        small_w = self._small_w
        small_medium_w = self._small_medium_w
        total_w = self._total_w
        limit = spec.total_alloc_bytes
        mutations = spec.mutations_per_object
        for _ in range(spec.cohort_size - 1):
            pinned = random_() < pinned_fraction
            pick = random_() * total_w
            if pick < small_w:
                lo, n, k = small
            elif pick < small_medium_w:
                lo, n, k = medium
            else:
                lo, n, k = large
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            size = lo + r
            child = alloc(size, pinned=pinned)
            add_ref(head, child)
            clock += (size + ALIGN_PAD) & ALIGN_MASK
            objects += 1
            if mutations > 0:
                state.mutation_budget += mutations
                while state.mutation_budget >= 1.0:
                    sink.mutate(child)
                    state.mutation_budget -= 1.0
            if clock >= limit:
                break
        state.clock = clock
        state.objects += objects

    def result(self) -> DriveResult:
        state = self.state
        if state is None:
            raise RuntimeError("the driver never ran")
        return DriveResult(
            allocated_objects=state.objects,
            allocated_bytes=state.clock,
            cohorts=state.cohorts,
            expired_cohorts=state.expired,
        )

    # ------------------------------------------------------------------
    def run(self, sink) -> DriveResult:
        """Drive the whole trace in one call (fresh start)."""
        self.begin()
        while self.step(sink):
            pass
        return self.result()


def estimate_min_heap(
    spec: WorkloadSpec,
    seed: int = 0,
    geometry: Optional[Geometry] = None,
    headroom: float = 1.30,
) -> int:
    """The benchmark's minimum heap, block-aligned (paper section 5).

    A dry run measures peak live bytes; the minimum workable heap adds
    collector headroom (a heap exactly equal to peak live thrashes).
    The estimate is collector-independent, as in the paper, which picks
    one minimum per benchmark and sizes all configurations from it.
    """
    geometry = geometry or Geometry()
    probe = LivenessProbe(geometry)
    TraceDriver(spec, seed).run(probe)
    raw = int(probe.peak_live_bytes * headroom) + 2 * geometry.block
    block = geometry.block
    return (raw + block - 1) // block * block
