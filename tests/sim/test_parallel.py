"""Tests for the parallel grid executor (sim/parallel.py)."""

import multiprocessing
import os
import signal

import pytest

from repro.faults.generator import FailureModel
from repro.obs.ledger import SweepLedger, read_ledger
from repro.sim import machine, parallel
from repro.sim.cache import ResultCache
from repro.sim.machine import RunConfig
from repro.sim.parallel import SweepStats, default_jobs, run_grid


def small_grid():
    return [
        RunConfig(
            workload=name,
            scale=0.2,
            seed=seed,
            failure_model=FailureModel(rate=rate),
        )
        for name in ("luindex", "antlr")
        for seed in (0, 1)
        for rate in (0.0, 0.10)
    ]


class TestRunGrid:
    def test_serial_matches_input_order(self):
        grid = small_grid()
        results, stats = run_grid(grid, jobs=1)
        assert [r.config for r in results] == grid
        assert stats.cells == len(grid)
        assert len(stats.timings) == len(grid)

    def test_parallel_identical_to_serial(self, tmp_path):
        grid = small_grid()
        serial, serial_stats = run_grid(grid, jobs=1)
        ledger = SweepLedger(str(tmp_path / "ledger.jsonl"))
        pooled, stats = run_grid(grid, jobs=4, ledger=ledger)
        assert pooled == serial
        assert [r.config for r in pooled] == grid
        assert stats.jobs == 4
        # Inline results never cross a pipe; pooled ones do.
        assert serial_stats.result_bytes == 0
        assert stats.result_bytes > 0
        # Workers persist across cells: 8 cells, at most 4 processes.
        events, problems = read_ledger(ledger.path)
        assert problems == []
        pids = {e["pid"] for e in events if e["ev"] == "attempt_start"}
        assert 1 <= len(pids) <= 4

    def test_progress_called_per_cell(self):
        messages = []
        grid = small_grid()[:2]
        run_grid(grid, jobs=1, progress=messages.append)
        assert len(messages) == 2
        assert "luindex" in messages[0]

    def test_auto_jobs(self):
        assert default_jobs() >= 1
        results, stats = run_grid(small_grid()[:2], jobs=0)
        assert len(results) == 2
        assert stats.jobs == default_jobs()

    def test_cached_cells_skip_the_pool(self, tmp_path):
        grid = small_grid()
        cache = ResultCache(tmp_path / "cache")
        first, first_stats = run_grid(grid, jobs=2, cache=cache)
        assert first_stats.cache_misses == len(grid)
        assert first_stats.cache_hits == 0
        second, second_stats = run_grid(grid, jobs=2, cache=cache)
        assert second_stats.cache_hits == len(grid)
        assert second_stats.cache_misses == 0
        assert second == first
        assert all(timing.cached for timing in second_stats.timings)
        # A superset grid over the same cache simulates only its new cell.
        extra = RunConfig(
            workload="luindex", scale=0.2, failure_model=FailureModel(rate=0.25)
        )
        third, third_stats = run_grid(grid + [extra], jobs=2, cache=cache)
        assert third_stats.cache_misses == 1
        assert third_stats.cache_hits == len(grid)
        assert third[: len(grid)] == first
        assert third[-1] == machine.run_benchmark(extra)
        assert cache.stores == len(grid) + 1


class TestSweepStats:
    def test_utilization_bounds(self):
        stats = SweepStats(jobs=2, cells=2, wall_s=1.0, busy_s=1.0)
        assert stats.utilization == pytest.approx(0.5)
        assert SweepStats(jobs=2).utilization == 0.0

    def test_to_dict_schema(self):
        grid = small_grid()[:2]
        _, stats = run_grid(grid, jobs=1)
        payload = stats.to_dict()
        assert payload["schema"] == "repro.sweep/2"
        assert payload["cells"] == 2
        assert payload["fault_tolerance"] == {
            "retries": 0,
            "timeouts": 0,
            "worker_crashes": 0,
            "worker_errors": 0,
            "quarantined": [],
        }
        assert payload["cache"] == {"hits": 0, "misses": 0}
        assert len(payload["cell_timings"]) == 2
        cell = payload["cell_timings"][0]
        assert {"index", "workload", "config", "wall_s", "cached", "completed"} \
            <= set(cell)

    def test_merge_accumulates(self):
        grid = small_grid()[:2]
        _, a = run_grid(grid, jobs=1)
        _, b = run_grid(grid, jobs=1)
        a.merge(b)
        assert a.cells == 4
        assert len(a.timings) == 4
        assert [t.index for t in a.timings] == [0, 1, 2, 3]


def _kill_on_seed_one(config, cost_model=machine.DEFAULT_COST_MODEL):
    if config.seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return machine.run_benchmark(config, cost_model)


class TestWorkerDeath:
    def test_death_without_retry_raises_naming_the_cell(self, monkeypatch):
        # Forked workers inherit the patch: the worker running seed 1
        # SIGKILLs itself mid-cell. With no retry policy run_grid must
        # fail fast, naming that cell, instead of waiting forever for
        # a result that will never come. The grid runs in a child (its
        # own process group) so a hang fails this test, not the suite.
        monkeypatch.setattr(parallel, "run_benchmark", _kill_on_seed_one)
        grid = [
            RunConfig(workload="luindex", scale=0.05, seed=seed,
                      failure_model=FailureModel())
            for seed in range(4)
        ]
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def child():
            os.setpgrp()
            try:
                run_grid(grid, jobs=2)
                sender.send("run_grid returned")
            except Exception as exc:
                sender.send(f"{type(exc).__name__}: {exc}")

        process = context.Process(target=child)
        process.start()
        sender.close()
        answered = receiver.poll(30)
        if not answered:
            os.killpg(process.pid, signal.SIGKILL)
        process.join()
        assert answered, "run_grid hung after a worker was SIGKILLed"
        message = receiver.recv()
        assert message.startswith("WorkerError: cell 1 (luindex "), message
        assert "killed (SIGKILL)" in message
