"""Tests for the per-run machinery."""

from dataclasses import replace

import pytest

from repro.faults.generator import FailureModel
from repro.sim.machine import RunConfig, min_heap_bytes, run_benchmark

QUICK = RunConfig(workload="luindex", heap_multiplier=2.0, scale=0.25)


class TestRunConfig:
    def test_geometry_reflects_overrides(self):
        config = replace(QUICK, immix_line=64, region_pages=1)
        geometry = config.geometry()
        assert geometry.immix_line == 64
        assert geometry.region_pages == 1

    def test_spec_scaling(self):
        assert QUICK.spec().total_alloc_bytes < QUICK.spec().scaled(4.0).total_alloc_bytes

    def test_min_heap_cached_and_positive(self):
        a = min_heap_bytes(QUICK)
        b = min_heap_bytes(QUICK)
        assert a == b > 0


class TestRunBenchmark:
    def test_clean_run_completes(self):
        result = run_benchmark(QUICK)
        assert result.completed
        assert result.time_units > 0
        assert result.time_ms > 0
        assert result.stats["collections"] >= 0
        assert result.heap_bytes == 2 * result.min_heap_bytes
        assert not result.dnf

    def test_failure_model_changes_behavior(self):
        clean = run_benchmark(QUICK)
        faulty = run_benchmark(
            replace(QUICK, failure_model=FailureModel(rate=0.10))
        )
        if faulty.completed:
            assert faulty.time_units > clean.time_units

    def test_dnf_reported_not_raised(self):
        # A hopeless configuration: 50% uniform failures at 1x heap.
        config = replace(
            QUICK,
            heap_multiplier=1.0,
            failure_model=FailureModel(rate=0.50),
            compensate=False,
        )
        result = run_benchmark(config)
        assert not result.completed
        assert result.dnf
        assert result.failure_note

    def test_dnf_after_thousands_of_fully_failed_blocks(self):
        # Whole-page retirement at 50% failures kills nearly every page,
        # so the small-object allocator skips ~1000 fully-failed blocks
        # in a row before the heap runs dry. That skip used to recurse
        # once per block and raised RecursionError instead of a DNF.
        result = run_benchmark(
            RunConfig(
                workload="antlr",
                heap_multiplier=20.0,
                failure_model=FailureModel(rate=0.5),
                pool_policy="migrant",
            )
        )
        assert not result.completed
        assert result.failure_note.startswith("cannot place")

    def test_determinism(self):
        a = run_benchmark(QUICK)
        b = run_benchmark(QUICK)
        assert a.time_units == b.time_units
        assert a.stats == b.stats

    def test_pause_estimate_positive(self):
        assert run_benchmark(QUICK).full_gc_pause_ms > 0
