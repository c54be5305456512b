"""Hot-path kernel microbenchmarks and fast-vs-reference identity proof.

Backs the ``repro microbench`` subcommand. Two halves:

* **Kernel benchmarks** time each vectorized kernel against the
  retained pure-Python reference implementation on deterministic
  synthetic inputs (a populated Immix block, line tables across
  occupancy profiles, a randomly worn OS failure table), and verify on
  the same inputs that both implementations produce identical output.
* **End-to-end comparison** runs a small seed-0 grid twice — once with
  the fast kernels, once under ``REPRO_KERNELS=reference`` — and
  compares wall clock plus the *full serialized RunResult payloads*,
  which must match bit-for-bit. This is the PR-3 bit-identity test
  style extended to cached vs. uncached execution.

The collected payload is written as ``BENCH_kernels.json`` (schema
``repro-kernel-bench/v1``); CI's perf-smoke job fails the build on any
divergence.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.generator import FailureModel
from ..hardware.geometry import Geometry
from ..heap import line_table
from ..heap.block import Block, sorted_defrag_candidates
from ..heap.heap_table import HeapTable
from ..heap.line_table import FAILED, FREE, LIVE, LIVE_PINNED
from ..heap.object_model import ObjectFactory
from ..heap.page_supply import HeapPage
from ..osim.failure_table import FailureTable
from .cache import result_to_dict
from .machine import RunConfig, min_heap_bytes, run_benchmark

SCHEMA = "repro-kernel-bench/v1"

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
    reference: Callable[[], object],
    iterations: int,
    identical: bool,
) -> dict:
    # Warm once (primes caches/indexes, matching steady-state use) and
    # interleave the timed halves to share any machine-state drift.
    fast()
    reference()
    fast_s = _time(fast, iterations)
    reference_s = _time(reference, iterations)
    return {
        "kernel": name,
        "iterations": iterations,
        "fast_seconds": fast_s,
        "reference_seconds": reference_s,
        "speedup": (reference_s / fast_s) if fast_s > 0 else float("inf"),
        "identical": identical,
    }


def _in_mode(mode: str, fn: Callable[[], object]) -> object:
    previous = line_table.set_kernel_mode(mode)
    try:
        return fn()
    finally:
        line_table.set_kernel_mode(previous)


# ----------------------------------------------------------------------
# Kernel benchmarks
# ----------------------------------------------------------------------
def bench_kernels(iterations: int = 2000, seed: int = 0) -> List[dict]:
    """Time every vectorized kernel against its reference twin."""
    previous_mode = line_table.set_kernel_mode("fast")
    try:
        return _bench_kernels(iterations, seed)
    finally:
        line_table.set_kernel_mode(previous_mode)


def _bench_kernels(iterations: int, seed: int) -> List[dict]:
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
        line_table.free_runs(states) == line_table.free_runs_reference(states)
        for states in all_tables
    )
    results.append(
        _kernel_entry(
            "line_table.free_runs",
            each_table(line_table.free_runs),
            each_table(line_table.free_runs_reference),
            iterations,
            identical,
        )
    )

    identical = all(
        line_table.fragmentation_index(states)
        == line_table.fragmentation_index_reference(states)
        and line_table.free_run_summary(states).free_lines
        == line_table.count_state(states, FREE)
        for states in all_tables
    )
    results.append(
        _kernel_entry(
            "line_table.fragmentation_index",
            each_table(line_table.fragmentation_index),
            each_table(line_table.fragmentation_index_reference),
            iterations,
            identical,
        )
    )

    # Sweep: identical twin blocks, one rebuilt per mode, full state
    # compared (line marks, conflicts, survivor order, live count).
    # Two populations: sub-line objects (sweep cost is dominated by the
    # per-object Python loop both kernels share, so the win is modest)
    # and multi-line objects at the paper's finest 64 B line size, where
    # the per-line work the fast kernel vectorizes away dominates.
    def sweep_state(block, mode):
        counts = _in_mode(mode, lambda: block.rebuild_line_marks(_EPOCH))
        return (
            counts,
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
        reference_block = build_synthetic_block(
            sweep_geometry, seed, object_sizes=sizes
        )
        identical = sweep_state(fast_block, "fast") == sweep_state(
            reference_block, "reference"
        )
        results.append(
            _kernel_entry(
                f"block.rebuild_line_marks ({label})",
                lambda fb=fast_block: fb.rebuild_line_marks(_EPOCH),
                lambda rb=reference_block: _in_mode(
                    "reference", lambda: rb.rebuild_line_marks(_EPOCH)
                ),
                sweep_iters,
                identical,
            )
        )

    # Allocator probe pattern: repeated free_runs on an unchanged block
    # (the overflow searcher does exactly this across recycled blocks).
    fast_block = build_synthetic_block(geometry, seed)
    reference_block = build_synthetic_block(geometry, seed)
    identical = fast_block.free_runs() == _in_mode(
        "reference", reference_block.free_runs
    )
    results.append(
        _kernel_entry(
            "block.free_runs (cached)",
            fast_block.free_runs,
            lambda: _in_mode("reference", reference_block.free_runs),
            iterations,
            identical,
        )
    )

    # Line -> objects lookup: bump placement assigns ascending offsets,
    # so the bisect path's offset order matches the reference's
    # object-list order and the lists compare equal directly.
    lines = list(range(geometry.immix_lines_per_block))
    identical = all(
        [o.oid for o in fast_block.objects_overlapping_line(line)]
        == [
            o.oid
            for o in _in_mode(
                "reference",
                lambda: reference_block.objects_overlapping_line(line),
            )
        ]
        for line in lines
    )
    overlap_iters = max(1, iterations // 20)
    results.append(
        _kernel_entry(
            "block.objects_overlapping_line",
            lambda: [fast_block.objects_overlapping_line(line) for line in lines],
            lambda: _in_mode(
                "reference",
                lambda: [
                    reference_block.objects_overlapping_line(line) for line in lines
                ],
            ),
            overlap_iters,
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

    identical = (
        {p: set(table.failed_offsets(p)) for p in pages}
        == _in_mode(
            "reference", lambda: {p: set(table.failed_offsets(p)) for p in pages}
        )
        and table.failed_line_count()
        == _in_mode("reference", table.failed_line_count)
        and table.compressed_size_bytes()
        == _in_mode("reference", table.compressed_size_bytes)
    )
    ft_iters = max(1, iterations // 10)
    results.append(
        _kernel_entry(
            "failure_table decode",
            decode_all,
            lambda: _in_mode("reference", decode_all),
            ft_iters,
            identical,
        )
    )

    # Defrag candidate ordering over many table-backed blocks sharing
    # one heap table (key computed once per block from the bounded
    # C-speed segment counts vs. recomputed per block reference).
    defrag_table = HeapTable(geometry)
    blocks = [
        build_synthetic_block(geometry, seed + i, table=defrag_table, virtual_index=i)
        for i in range(16)
    ]
    identical = [b.virtual_index for b in sorted_defrag_candidates(blocks)] == [
        b.virtual_index
        for b in _in_mode("reference", lambda: sorted_defrag_candidates(blocks))
    ]
    results.append(
        _kernel_entry(
            "sorted_defrag_candidates",
            lambda: sorted_defrag_candidates(blocks),
            lambda: _in_mode("reference", lambda: sorted_defrag_candidates(blocks)),
            max(1, iterations // 10),
            identical,
        )
    )

    # Whole-heap scan: many blocks share one HeapTable, and a single
    # C-speed pass over the flat arrays replaces the per-slot Python
    # loops the reference twins retain. One mid-heap block is retired so
    # the scans must step over an UNMAPPED hole; touch() first so the
    # timed path is the real count, not the generation-cache hit.
    heap_table = HeapTable(geometry)
    heap_blocks = [
        build_synthetic_block(geometry, seed + i, table=heap_table, virtual_index=i)
        for i in range(16)
    ]
    heap_table.retire(heap_blocks.pop(7).slot)

    def heap_counts():
        heap_table.touch()
        return heap_table.free_line_count(), heap_table.failed_line_count()

    identical = heap_counts() == (
        heap_table.free_line_count_reference(),
        heap_table.failed_line_count_reference(),
    )
    results.append(
        _kernel_entry(
            "heap_table line counts (heap-scan)",
            heap_counts,
            lambda: _in_mode("reference", heap_counts),
            max(1, iterations // 2),
            identical,
        )
    )

    identical = (
        heap_table.slots_with_free_lines()
        == heap_table.slots_with_free_lines_reference()
    )
    results.append(
        _kernel_entry(
            "heap_table.slots_with_free_lines",
            heap_table.slots_with_free_lines,
            lambda: _in_mode("reference", heap_table.slots_with_free_lines),
            max(1, iterations // 2),
            identical,
        )
    )

    # Whole-heap sweep: rebuild every block of a shared table back to
    # back (the collector's sweep loop), fast vs reference, with the
    # final flat arrays compared across the two heaps as well.
    def build_heap(n_blocks: int) -> Tuple[HeapTable, List[Block]]:
        shared = HeapTable(geometry)
        return shared, [
            build_synthetic_block(geometry, seed + i, table=shared, virtual_index=i)
            for i in range(n_blocks)
        ]

    fast_table, fast_heap = build_heap(8)
    reference_table, reference_heap = build_heap(8)
    identical = [
        sweep_state(fb, "fast") for fb in fast_heap
    ] == [sweep_state(rb, "reference") for rb in reference_heap] and bytes(
        fast_table.lines
    ) == bytes(reference_table.lines)
    results.append(
        _kernel_entry(
            "heap sweep (shared table, 8 blocks)",
            lambda: [fb.rebuild_line_marks(_EPOCH) for fb in fast_heap],
            lambda: _in_mode(
                "reference",
                lambda: [rb.rebuild_line_marks(_EPOCH) for rb in reference_heap],
            ),
            max(1, iterations // 32),
            identical,
        )
    )

    return results


# ----------------------------------------------------------------------
# End-to-end fast vs reference
# ----------------------------------------------------------------------
def bench_end_to_end(
    workloads: Sequence[str] = ("luindex",),
    rates: Sequence[float] = (0.0, 0.25),
    heap_multiplier: float = 2.0,
    scale: float = 0.1,
    seed: int = 0,
    verify: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the grid under both kernel modes; compare time and payloads."""
    configs = [
        RunConfig(
            workload=workload,
            heap_multiplier=heap_multiplier,
            failure_model=FailureModel(rate=rate),
            seed=seed,
            scale=scale,
        )
        for workload in workloads
        for rate in rates
    ]
    # Prime the min-heap memo so neither timed pass pays for it alone.
    for config in configs:
        min_heap_bytes(config)

    def run_all(mode: str) -> Tuple[List[dict], float]:
        payloads: List[dict] = []
        previous = line_table.set_kernel_mode(mode)
        try:
            start = perf_counter()
            for config in configs:
                if progress is not None:
                    progress(
                        f"{mode}: {config.workload} "
                        f"rate={config.failure_model.rate:g}"
                    )
                payloads.append(result_to_dict(run_benchmark(config, verify=verify)))
            elapsed = perf_counter() - start
        finally:
            line_table.set_kernel_mode(previous)
        return payloads, elapsed

    fast_payloads, fast_s = run_all("fast")
    reference_payloads, reference_s = run_all("reference")
    divergent = [
        {
            "workload": config.workload,
            "rate": config.failure_model.rate,
            "seed": config.seed,
        }
        for config, fast, reference in zip(configs, fast_payloads, reference_payloads)
        if fast != reference
    ]
    return {
        "grid": {
            "workloads": list(workloads),
            "rates": list(rates),
            "heap_multiplier": heap_multiplier,
            "scale": scale,
            "seed": seed,
            "verify": verify,
            "cells": len(configs),
        },
        "fast_seconds": fast_s,
        "reference_seconds": reference_s,
        "speedup": (reference_s / fast_s) if fast_s > 0 else float("inf"),
        "bit_identical": not divergent,
        "divergent_cells": divergent,
    }


def run_microbench(
    iterations: int = 2000,
    seed: int = 0,
    workloads: Sequence[str] = ("luindex",),
    rates: Sequence[float] = (0.0, 0.25),
    heap_multiplier: float = 2.0,
    scale: float = 0.1,
    verify: Optional[str] = None,
    end_to_end: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Full microbenchmark payload (the BENCH_kernels.json contents)."""
    geometry = Geometry()
    payload = {
        "schema": SCHEMA,
        "python": sys.version.split()[0],
        "geometry": {
            "immix_line": geometry.immix_line,
            "lines_per_block": geometry.immix_lines_per_block,
            "lines_per_page": geometry.lines_per_page,
        },
        "seed": seed,
        "kernels": bench_kernels(iterations=iterations, seed=seed),
        "end_to_end": None,
        # Context for the end_to_end block: the per-block kernel
        # generation (PR 8 tip, f75a651) measured on the same host that
        # produced the committed artifact, best of 3 on the default
        # grid. Absolute seconds are host-specific; the speedup ratios
        # are what CI holds floors on.
        "baseline": {
            "label": "per-block kernels (PR 8, f75a651)",
            "fast_seconds": 0.2163,
            "reference_seconds": 0.3152,
            "speedup": 1.457,
            "grid": {"workloads": ["luindex", "antlr"], "rates": [0.0, 0.1],
                     "scale": 0.2, "seed": 0},
        },
    }
    if end_to_end:
        payload["end_to_end"] = bench_end_to_end(
            workloads=workloads,
            rates=rates,
            heap_multiplier=heap_multiplier,
            scale=scale,
            seed=seed,
            verify=verify,
            progress=progress,
        )
    return payload


def payload_ok(payload: dict) -> bool:
    """True when every kernel and the end-to-end grid stayed identical."""
    if not all(entry["identical"] for entry in payload["kernels"]):
        return False
    end_to_end = payload.get("end_to_end")
    return end_to_end is None or bool(end_to_end["bit_identical"])
