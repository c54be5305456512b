"""Hot-path kernel microbenchmarks (pytest-benchmark rig).

Times each vectorized kernel against its pure-Python reference oracle
(:mod:`repro.check.oracles`) on the same deterministic synthetic inputs
the ``repro microbench`` subcommand uses, and asserts both the output identity and
the speedups the kernel overhaul claims. Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -q

The thresholds are deliberately looser than locally measured numbers
(shared CI machines jitter); bit-identity is exact.
"""

import pytest

from repro.check import oracles
from repro.hardware.geometry import Geometry
from repro.heap import line_table
from repro.heap.heap_table import HeapTable
from repro.sim.microbench import (
    MULTI_LINE_OBJECT_SIZES,
    bench_kernels,
    build_synthetic_block,
    build_synthetic_failure_table,
    synthetic_line_tables,
)


@pytest.fixture(scope="module")
def tables():
    geometry = Geometry(immix_line=64)  # 512-line tables: the big case
    return list(synthetic_line_tables(geometry.immix_lines_per_block).values())


def test_free_runs(benchmark, tables):
    benchmark(lambda: [line_table.free_runs(t) for t in tables])
    for table in tables:
        assert line_table.free_runs(table) == oracles.free_runs(table)


def test_fragmentation_index(benchmark, tables):
    benchmark(lambda: [line_table.fragmentation_index(t) for t in tables])
    for table in tables:
        assert line_table.fragmentation_index(
            table
        ) == oracles.fragmentation_index(table)


def test_sweep_small_objects(benchmark):
    block = build_synthetic_block(Geometry(), seed=0)
    benchmark(lambda: block.rebuild_line_marks(1))


def test_sweep_multi_line_objects(benchmark):
    block = build_synthetic_block(
        Geometry(immix_line=64), seed=0, object_sizes=MULTI_LINE_OBJECT_SIZES
    )
    benchmark(lambda: block.rebuild_line_marks(1))


def test_cached_free_runs(benchmark):
    block = build_synthetic_block(Geometry(), seed=0)
    benchmark(block.free_runs)


def test_failure_table_decode(benchmark):
    table = build_synthetic_failure_table(Geometry(), seed=0)
    pages = table.imperfect_pages()

    def decode():
        table.failed_line_count()
        table.compressed_size_bytes()
        for page in pages:
            table.failed_offsets(page)

    benchmark(decode)


def shared_heap(n_blocks=16):
    table = HeapTable(Geometry())
    blocks = [
        build_synthetic_block(Geometry(), seed=i, table=table, virtual_index=i)
        for i in range(n_blocks)
    ]
    return table, blocks


def test_heap_scan(benchmark):
    table, _ = shared_heap()

    def scan():
        table.touch()
        table.free_line_count()
        table.failed_line_count()
        return table.slots_with_free_lines()

    benchmark(scan)


def test_heap_sweep_shared_table(benchmark):
    _, blocks = shared_heap(8)
    benchmark(lambda: [block.rebuild_line_marks(1) for block in blocks])


def test_kernel_speedups_and_identity():
    """The microbench suite itself: identity is exact, speedups hold."""
    entries = {e["kernel"]: e for e in bench_kernels(iterations=200)}
    assert all(e["identical"] for e in entries.values()), entries
    # CI-safe floors, well under locally measured numbers (see
    # EXPERIMENTS.md for the measured table).
    floors = {
        "line_table.free_runs": 2.0,
        "block.rebuild_line_marks (multi-line objects)": 3.0,
        "block.free_runs (cached)": 10.0,
        "block.objects_overlapping_line": 10.0,
        "failure_table decode": 3.0,
        "sorted_defrag_candidates": 4.0,
        "heap_table line counts (heap-scan)": 8.0,
        "heap_table.slots_with_free_lines": 1.5,
        "heap sweep (shared table, 8 blocks)": 2.0,
    }
    # The cheapest kernels time in tens of microseconds total, where a
    # single scheduler spike can sink any floor; one retry at higher
    # iteration count absorbs that without loosening the floors.
    failing = [k for k, f in floors.items() if entries[k]["speedup"] < f]
    if failing:
        retry = {e["kernel"]: e for e in bench_kernels(iterations=500)}
        for kernel in failing:
            entries[kernel] = max(
                entries[kernel], retry[kernel], key=lambda e: e["speedup"]
            )
    for kernel, floor in floors.items():
        assert entries[kernel]["speedup"] >= floor, (
            f"{kernel}: {entries[kernel]['speedup']:.2f}x < {floor}x floor"
        )
