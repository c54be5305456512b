"""Tests for the persistent content-addressed result cache."""

import json
import multiprocessing
import os
import time
from dataclasses import replace

from repro.faults.generator import FailureModel
from repro.runtime.time_model import DEFAULT_COST_MODEL, CostModel
from repro.sim.cache import (
    SCHEMA_VERSION,
    ResultCache,
    cache_key,
    code_fingerprint,
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.sim.machine import RunConfig, run_benchmark
from repro.sim.parallel import run_grid

QUICK = RunConfig(
    workload="luindex",
    scale=0.2,
    failure_model=FailureModel(rate=0.10, hw_region_pages=2),
)


class TestSerialization:
    def test_config_round_trip(self):
        assert config_from_dict(config_to_dict(QUICK)) == QUICK

    def test_result_round_trip(self):
        result = run_benchmark(QUICK)
        restored = result_from_dict(result_to_dict(result))
        assert restored == result
        assert restored.config == QUICK
        assert restored.stats == result.stats


class TestCacheKey:
    def test_stable_for_equal_inputs(self):
        assert cache_key(QUICK) == cache_key(replace(QUICK))

    def test_differs_per_config(self):
        assert cache_key(QUICK) != cache_key(replace(QUICK, seed=1))
        assert cache_key(QUICK) != cache_key(replace(QUICK, heap_multiplier=3.0))
        assert cache_key(QUICK) != cache_key(
            replace(QUICK, failure_model=FailureModel(rate=0.25))
        )

    def test_differs_per_cost_model(self):
        other = CostModel(app_work_per_byte=110.0)
        assert cache_key(QUICK, DEFAULT_COST_MODEL) != cache_key(QUICK, other)

    def test_differs_per_code_fingerprint(self):
        assert cache_key(QUICK, fingerprint="aaaa") != cache_key(
            QUICK, fingerprint="bbbb"
        )

    def test_code_fingerprint_is_hex_and_cached(self):
        first = code_fingerprint()
        assert len(first) == 64
        int(first, 16)
        assert code_fingerprint() is first

    def test_kernel_sources_roll_the_fingerprint(self):
        # Recompute the digest with each hot-path kernel module left
        # out: the result must differ from the real fingerprint, which
        # proves an edit to any kernel rolls every cache key (no stale
        # cross-version hits, per the code_fingerprint docstring).
        import hashlib
        from pathlib import Path

        import repro

        package_root = Path(repro.__file__).resolve().parent

        def digest(skip=None):
            d = hashlib.sha256()
            for path in sorted(package_root.rglob("*.py")):
                if skip is not None and path.name == skip:
                    continue
                d.update(str(path.relative_to(package_root)).encode())
                d.update(b"\0")
                d.update(path.read_bytes())
                d.update(b"\0")
            return d.hexdigest()

        assert digest() == code_fingerprint()
        for kernel in ("line_table.py", "block.py", "failure_table.py",
                       "microbench.py"):
            assert digest(skip=kernel) != code_fingerprint()


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(QUICK) is None
        result = run_benchmark(QUICK)
        cache.put(QUICK, result)
        assert cache.get(QUICK) == result
        assert cache.counters() == {"hits": 1, "misses": 1, "stores": 1}
        assert len(cache) == 1

    def test_cost_model_isolation(self, tmp_path):
        # Two runners with different cost models must never share
        # cached timings through the same directory.
        root = tmp_path / "cache"
        fast = ResultCache(root, cost_model=DEFAULT_COST_MODEL)
        slow = ResultCache(root, cost_model=CostModel(app_work_per_byte=110.0))
        fast.put(QUICK, run_benchmark(QUICK))
        assert slow.get(QUICK) is None

    def test_code_fingerprint_invalidation(self, tmp_path):
        root = tmp_path / "cache"
        old = ResultCache(root, fingerprint="version-1")
        new = ResultCache(root, fingerprint="version-2")
        old.put(QUICK, run_benchmark(QUICK))
        assert old.get(QUICK) is not None
        assert new.get(QUICK) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(QUICK, run_benchmark(QUICK))
        path = cache._path(cache.key(QUICK))
        path.write_text("{not json")
        assert cache.get(QUICK) is None

    def test_missing_directory_is_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert len(cache) == 0
        assert cache.get(QUICK) is None

    def test_foreign_schema_is_a_miss(self, tmp_path):
        # An entry tagged with a different cache-format version must be
        # a miss even when its result fields happen to deserialize —
        # a shared directory can hold files from a newer writer.
        cache = ResultCache(tmp_path / "cache")
        cache.put(QUICK, run_benchmark(QUICK))
        path = cache._path(cache.key(QUICK))
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA_VERSION
        data["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        assert cache.get(QUICK) is None
        del data["schema"]
        path.write_text(json.dumps(data))
        assert cache.get(QUICK) is None


class TestContains:
    def test_matches_get_semantics(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert not cache.contains(QUICK)
        cache.put(QUICK, run_benchmark(QUICK))
        assert cache.contains(QUICK)

    def test_corrupt_entry_is_not_contained(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(QUICK, run_benchmark(QUICK))
        path = cache._path(cache.key(QUICK))
        path.write_text("{not json")
        assert not cache.contains(QUICK)

    def test_truncated_entry_is_not_contained(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(QUICK, run_benchmark(QUICK))
        path = cache._path(cache.key(QUICK))
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert not cache.contains(QUICK)

    def test_foreign_schema_is_not_contained(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(QUICK, run_benchmark(QUICK))
        path = cache._path(cache.key(QUICK))
        data = json.loads(path.read_text())
        data["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        assert not cache.contains(QUICK)

    def test_does_not_touch_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(QUICK, run_benchmark(QUICK))
        cache.contains(QUICK)
        cache.contains(replace(QUICK, seed=99))
        assert cache.hits == 0
        assert cache.misses == 0


class TestSweepOrphans:
    def test_sweeps_only_aged_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(QUICK, run_benchmark(QUICK))
        shard = cache._path(cache.key(QUICK)).parent
        fresh = shard / "fresh-writer.tmp"
        fresh.write_text("{}")
        stale = shard / "killed-writer.tmp"
        stale.write_text("{}")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        assert cache.sweep_orphans() == 1
        assert fresh.exists()
        assert not stale.exists()
        # An explicit zero threshold reclaims everything (startup of an
        # entry point that knows no writer can be alive).
        assert cache.sweep_orphans(min_age_s=0.0) == 1
        assert not fresh.exists()
        # The published entry itself is never touched.
        assert cache.get(QUICK) is not None

    def test_put_survives_a_racing_sweeper(self, tmp_path, monkeypatch):
        # A sweeper that unlinks the writer's temp file between the
        # JSON dump and the rename makes os.replace raise
        # FileNotFoundError; put must retry through a fresh temp file
        # instead of crashing the writer.
        cache = ResultCache(tmp_path / "cache")
        result = run_benchmark(QUICK)
        real_replace = os.replace
        raced = {"count": 0}

        def racing_replace(src, dst):
            if raced["count"] == 0:
                raced["count"] += 1
                os.unlink(src)  # the sweeper wins the race
                return real_replace(src, dst)  # FileNotFoundError
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        cache.put(QUICK, result)
        monkeypatch.undo()
        assert raced["count"] == 1
        assert cache.stores == 1
        assert cache.get(QUICK) == result
        # The retry cleaned up after itself: no temp files left behind.
        assert list(cache.root.glob("*/*.tmp")) == []


def _race_grid(root, grid, barrier, conn):
    barrier.wait(timeout=60)
    results, _ = run_grid(grid, jobs=1, cache=ResultCache(root))
    conn.send([result_to_dict(result) for result in results])
    conn.close()


class TestConcurrentWriters:
    def test_overlapping_sweeps_share_one_directory(self, tmp_path):
        cells = [
            RunConfig(
                workload=name,
                scale=0.05,
                seed=seed,
                failure_model=FailureModel(rate=rate),
            )
            for name in ("luindex", "antlr")
            for seed in (0, 1)
            for rate in (0.0, 0.10)
        ]
        grids = [cells[:6], cells[2:]]
        root = tmp_path / "cache"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(len(grids))
        runs = []
        for grid in grids:
            receiver, sender = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_race_grid, args=(root, grid, barrier, sender)
            )
            process.start()
            sender.close()
            runs.append((grid, process, receiver))

        serial = {config: result_to_dict(run_benchmark(config)) for config in cells}
        for grid, process, receiver in runs:
            assert receiver.poll(120), "a racing sweep never reported"
            assert receiver.recv() == [serial[config] for config in grid]
            process.join(30)
            assert process.exitcode == 0
        cache = ResultCache(root)
        assert len(cache) == len(cells)
        for config in cells:
            assert result_to_dict(cache.get(config)) == serial[config]
        assert list(root.glob("*/*.tmp")) == []
