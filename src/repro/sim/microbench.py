"""Hot-path kernel microbenchmarks and identity against the oracles.

Backs the ``repro microbench`` subcommand: each production kernel is
timed against its reference oracle (:mod:`repro.check.oracles`, the
per-line / per-slot / per-bit Python loop it replaced) on deterministic
synthetic inputs — a populated Immix block, line tables across
occupancy profiles, a randomly worn OS failure table, a shared heap
table — and the two outputs are compared on the same inputs.

The payload is written as ``BENCH_kernels.json`` (schema
``repro-kernel-bench/v2``); CI's perf-smoke job fails the build on any
divergence or on a speedup below its floor.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..check import oracles
from ..hardware.geometry import Geometry
from ..heap import line_table
from ..heap.block import Block, sorted_defrag_candidates
from ..heap.heap_table import HeapTable
from ..heap.line_table import FAILED, FREE, LIVE
from ..heap.object_model import ObjectFactory
from ..heap.page_supply import HeapPage
from ..osim.failure_table import FailureTable

SCHEMA = "repro-kernel-bench/v2"

#: Sweep epoch used for all synthetic blocks (any non-zero value).
_EPOCH = 1


# ----------------------------------------------------------------------
# Deterministic synthetic inputs
# ----------------------------------------------------------------------
def synthetic_line_tables(n_lines: int, seed: int = 0) -> Dict[str, bytearray]:
    """Named line-table profiles spanning the interesting occupancies.

    ``fragmented`` is the production shape — a post-sweep block whose
    free space sits in a handful of multi-line holes between live spans
    with occasional failed lines. ``checkerboard`` (single-line
    alternation) is the adversarial worst case for run-edge scanning;
    it cannot arise from bump allocation but keeps the kernels honest.
    """
    n = n_lines
    rng = random.Random(seed)
    fragmented = bytearray([LIVE]) * n
    cursor = 0
    while cursor < n:
        cursor += rng.randrange(6, 16)
        hole = rng.randrange(2, 7)
        for line in range(cursor, min(n, cursor + hole)):
            fragmented[line] = FREE
        cursor += hole
        if rng.random() < 0.15 and cursor < n:
            fragmented[cursor] = FAILED
    checker = bytearray(LIVE if i % 2 else FREE for i in range(n))
    edges = bytearray([LIVE]) * n
    edges[0] = FREE
    edges[n - 1] = FREE
    return {
        "all_free": bytearray(n),
        "all_failed": bytearray([FAILED]) * n,
        "edge_runs": edges,
        "fragmented": fragmented,
        "checkerboard": checker,
    }


#: Object size mixes for synthetic blocks: ``small`` objects fit inside
#: one 256 B line (the DaCapo-derived common case), ``multi_line``
#: objects span several lines each (arrays, buffers) — the population
#: where per-line sweep work dominates per-object work.
SMALL_OBJECT_SIZES = (16, 24, 48, 56, 120, 248, 504)
MULTI_LINE_OBJECT_SIZES = (1016, 2040, 4088, 8184)


def build_synthetic_block(
    geometry: Geometry,
    seed: int = 0,
    fill_fraction: float = 0.7,
    pinned_weight: float = 0.05,
    failed_pcm_lines: int = 6,
    object_sizes: Sequence[int] = SMALL_OBJECT_SIZES,
    table: Optional[HeapTable] = None,
    virtual_index: int = 0,
) -> Block:
    """A deterministic, realistically fragmented block for sweep benches.

    Pages carry a few failed PCM offsets (seeding FAILED Immix lines);
    objects bump-fill the free runs up to ``fill_fraction`` with all of
    them marked at ``_EPOCH``, so repeated ``rebuild_line_marks(_EPOCH)``
    calls are stable (every object survives every sweep).
    """
    rng = random.Random(seed)
    failed_by_page: Dict[int, set] = {}
    for _ in range(failed_pcm_lines):
        slot = rng.randrange(geometry.pages_per_block)
        failed_by_page.setdefault(slot, set()).add(
            rng.randrange(geometry.lines_per_page)
        )
    pages = [
        HeapPage(index, frozenset(failed_by_page.get(index, ())))
        for index in range(geometry.pages_per_block)
    ]
    block = Block(virtual_index, pages, geometry, table=table)
    factory = ObjectFactory()
    for start, length in list(block.free_runs()):
        cursor = start * geometry.immix_line
        limit = cursor + int(length * geometry.immix_line * fill_fraction)
        while cursor < limit:
            obj = factory.make(
                rng.choice(object_sizes),
                pinned=rng.random() < pinned_weight,
            )
            if cursor + obj.size > limit:
                break
            obj.mark = _EPOCH
            block.place(obj, cursor)
            cursor += obj.size
    block.rebuild_line_marks(_EPOCH)
    return block


def build_synthetic_failure_table(
    geometry: Geometry, n_pages: int = 256, failures: int = 600, seed: int = 0
) -> FailureTable:
    rng = random.Random(seed)
    table = FailureTable(n_pages, geometry)
    total_lines = n_pages * geometry.lines_per_page
    for line in rng.sample(range(total_lines), min(failures, total_lines)):
        table.record_global_line(line)
    return table


# ----------------------------------------------------------------------
# Timing machinery
# ----------------------------------------------------------------------
def _time(fn: Callable[[], object], iterations: int) -> float:
    start = perf_counter()
    for _ in range(iterations):
        fn()
    return perf_counter() - start


def _kernel_entry(
    name: str,
    fast: Callable[[], object],
    oracle: Callable[[], object],
    iterations: int,
    identical: bool,
) -> dict:
    # Warm once (primes caches/indexes, matching steady-state use) and
    # interleave the timed halves to share any machine-state drift.
    fast()
    oracle()
    fast_s = _time(fast, iterations)
    oracle_s = _time(oracle, iterations)
    return {
        "kernel": name,
        "iterations": iterations,
        "fast_seconds": fast_s,
        "oracle_seconds": oracle_s,
        "speedup": (oracle_s / fast_s) if fast_s > 0 else float("inf"),
        "identical": identical,
    }


# ----------------------------------------------------------------------
# Kernel benchmarks
# ----------------------------------------------------------------------
def bench_kernels(iterations: int = 2000, seed: int = 0) -> List[dict]:
    """Time every production kernel against its oracle."""
    geometry = Geometry()
    # Every paper line size: 64/128/256 B lines -> 512/256/128-line
    # tables. Identity is checked on every profile (including the
    # adversarial checkerboard); timing uses the production-shaped
    # profiles, since single-line alternation cannot arise from
    # run-granular bump allocation.
    all_tables: List[bytearray] = []
    timed_tables: List[bytearray] = []
    for immix_line in (64, 128, 256):
        line_geometry = Geometry(immix_line=immix_line)
        profiles = synthetic_line_tables(line_geometry.immix_lines_per_block, seed)
        all_tables.extend(profiles.values())
        timed_tables.extend(
            states
            for name, states in profiles.items()
            if name != "checkerboard"
        )
    results: List[dict] = []

    def each_table(fn):
        def run():
            for states in timed_tables:
                fn(states)
        return run

    identical = all(
        line_table.free_runs(states) == oracles.free_runs(states)
        for states in all_tables
    )
    results.append(
        _kernel_entry(
            "line_table.free_runs",
            each_table(line_table.free_runs),
            each_table(oracles.free_runs),
            iterations,
            identical,
        )
    )

    identical = all(
        line_table.fragmentation_index(states) == oracles.fragmentation_index(states)
        and line_table.free_run_summary(states) == oracles.free_run_summary(states)
        for states in all_tables
    )
    results.append(
        _kernel_entry(
            "line_table.fragmentation_index",
            each_table(line_table.fragmentation_index),
            each_table(oracles.fragmentation_index),
            iterations,
            identical,
        )
    )

    # Sweep: identical twin blocks, one rebuilt by the kernel and one by
    # the oracle, full state compared (line marks, conflicts, survivor
    # order, live count). Two populations: sub-line objects (sweep cost
    # is dominated by the per-object Python loop both share, so the win
    # is modest) and multi-line objects at the paper's finest 64 B line
    # size, where the per-line work the kernel vectorizes away dominates.
    def sweep_state(block, sweep):
        return (
            sweep(block, _EPOCH),
            bytes(block.line_states),
            list(block.mark_conflicts),
            [obj.oid for obj in block.objects],
        )

    sweep_iters = max(1, iterations // 4)
    for label, sweep_geometry, sizes in (
        ("small objects", geometry, SMALL_OBJECT_SIZES),
        ("multi-line objects", Geometry(immix_line=64), MULTI_LINE_OBJECT_SIZES),
    ):
        fast_block = build_synthetic_block(sweep_geometry, seed, object_sizes=sizes)
        oracle_block = build_synthetic_block(sweep_geometry, seed, object_sizes=sizes)
        identical = sweep_state(fast_block, Block.rebuild_line_marks) == sweep_state(
            oracle_block, oracles.rebuild_line_marks
        )
        results.append(
            _kernel_entry(
                f"block.rebuild_line_marks ({label})",
                lambda fb=fast_block: fb.rebuild_line_marks(_EPOCH),
                lambda ob=oracle_block: oracles.rebuild_line_marks(ob, _EPOCH),
                sweep_iters,
                identical,
            )
        )

    # Allocator probe pattern: repeated free_runs on an unchanged block
    # (the overflow searcher does exactly this across recycled blocks).
    block = build_synthetic_block(geometry, seed)
    identical = block.free_runs() == oracles.free_runs(block.line_states)
    results.append(
        _kernel_entry(
            "block.free_runs (cached)",
            block.free_runs,
            lambda: oracles.free_runs(block.line_states),
            iterations,
            identical,
        )
    )

    # Line -> objects lookup: bump placement assigns ascending offsets,
    # so the bisect path's offset order matches the oracle's
    # object-list order and the lists compare equal directly.
    lines = list(range(geometry.immix_lines_per_block))
    identical = all(
        [o.oid for o in block.objects_overlapping_line(line)]
        == [o.oid for o in oracles.objects_overlapping_line(block, line)]
        for line in lines
    )
    results.append(
        _kernel_entry(
            "block.objects_overlapping_line",
            lambda: [block.objects_overlapping_line(line) for line in lines],
            lambda: [oracles.objects_overlapping_line(block, line) for line in lines],
            max(1, iterations // 20),
            identical,
        )
    )

    table = build_synthetic_failure_table(geometry, seed=seed)
    pages = table.imperfect_pages()

    def decode_all():
        table.failed_line_count()
        table.compressed_size_bytes()
        for page in pages:
            table.failed_offsets(page)

    def decode_all_oracle():
        oracles.failed_line_count(table)
        oracles.compressed_size_bytes(table)
        for page in pages:
            oracles.failed_offsets(table, page)

    identical = (
        all(table.failed_offsets(p) == oracles.failed_offsets(table, p) for p in pages)
        and table.failed_line_count() == oracles.failed_line_count(table)
        and table.compressed_size_bytes() == oracles.compressed_size_bytes(table)
    )
    results.append(
        _kernel_entry(
            "failure_table decode",
            decode_all,
            decode_all_oracle,
            max(1, iterations // 10),
            identical,
        )
    )

    # Defrag candidate ordering over many table-backed blocks sharing
    # one heap table (each key read from the cached summary vs. every
    # block's holes rescanned per line).
    defrag_table = HeapTable(geometry)
    blocks = [
        build_synthetic_block(geometry, seed + i, table=defrag_table, virtual_index=i)
        for i in range(16)
    ]
    identical = sorted_defrag_candidates(blocks) == oracles.sorted_defrag_candidates(
        blocks
    )
    results.append(
        _kernel_entry(
            "sorted_defrag_candidates",
            lambda: sorted_defrag_candidates(blocks),
            lambda: oracles.sorted_defrag_candidates(blocks),
            max(1, iterations // 10),
            identical,
        )
    )

    # Whole-heap scan: many blocks share one HeapTable, and a single
    # C-speed pass over the flat arrays replaces the oracles' per-slot
    # Python loops. One mid-heap block is retired so the scans must
    # step over an UNMAPPED hole; touch() first so the timed path is
    # the real count, not the generation-cache hit.
    heap_table = HeapTable(geometry)
    heap_blocks = [
        build_synthetic_block(geometry, seed + i, table=heap_table, virtual_index=i)
        for i in range(16)
    ]
    heap_table.retire(heap_blocks.pop(7).slot)

    def heap_counts():
        heap_table.touch()
        return heap_table.free_line_count(), heap_table.failed_line_count()

    def heap_counts_oracle():
        return (
            oracles.heap_free_line_count(heap_table),
            oracles.heap_failed_line_count(heap_table),
        )

    results.append(
        _kernel_entry(
            "heap_table line counts (heap-scan)",
            heap_counts,
            heap_counts_oracle,
            max(1, iterations // 2),
            heap_counts() == heap_counts_oracle(),
        )
    )

    results.append(
        _kernel_entry(
            "heap_table.slots_with_free_lines",
            heap_table.slots_with_free_lines,
            lambda: oracles.slots_with_free_lines(heap_table),
            max(1, iterations // 2),
            heap_table.slots_with_free_lines()
            == oracles.slots_with_free_lines(heap_table),
        )
    )

    # Whole-heap sweep: rebuild every block of a shared table back to
    # back (the collector's sweep loop), kernel vs oracle, with the
    # final flat arrays compared across the two heaps as well.
    def build_heap(n_blocks: int) -> Tuple[HeapTable, List[Block]]:
        shared = HeapTable(geometry)
        return shared, [
            build_synthetic_block(geometry, seed + i, table=shared, virtual_index=i)
            for i in range(n_blocks)
        ]

    fast_table, fast_heap = build_heap(8)
    oracle_table, oracle_heap = build_heap(8)
    identical = [sweep_state(fb, Block.rebuild_line_marks) for fb in fast_heap] == [
        sweep_state(ob, oracles.rebuild_line_marks) for ob in oracle_heap
    ] and bytes(fast_table.lines) == bytes(oracle_table.lines)
    results.append(
        _kernel_entry(
            "heap sweep (shared table, 8 blocks)",
            lambda: [fb.rebuild_line_marks(_EPOCH) for fb in fast_heap],
            lambda: [oracles.rebuild_line_marks(ob, _EPOCH) for ob in oracle_heap],
            max(1, iterations // 32),
            identical,
        )
    )

    return results


def run_microbench(iterations: int = 2000, seed: int = 0) -> dict:
    """Full microbenchmark payload (the BENCH_kernels.json contents)."""
    geometry = Geometry()
    return {
        "schema": SCHEMA,
        "python": sys.version.split()[0],
        "geometry": {
            "immix_line": geometry.immix_line,
            "lines_per_block": geometry.immix_lines_per_block,
            "lines_per_page": geometry.lines_per_page,
        },
        "seed": seed,
        "kernels": bench_kernels(iterations=iterations, seed=seed),
    }


def payload_ok(payload: dict) -> bool:
    """True when every kernel matched its oracle."""
    return all(entry["identical"] for entry in payload["kernels"])
