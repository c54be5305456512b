"""Parallel, resumable, fault-tolerant execution of experiment grids.

The unit of work is one :class:`~repro.sim.machine.RunConfig` cell.
``run_grid`` fans cells out over worker processes and returns results
**in input order**, so parallel output is bit-identical to a serial
run — ``run_benchmark`` is deterministic in (config, cost model), and
ordering is restored by index regardless of completion order.

There is one executor (:func:`run_cells`). It forks up to ``jobs``
workers that live for one call; each loops on its own pipe, running one
cell at a time, while the parent blocks on every pipe and every
worker's process sentinel at once. That single wait tells the parent
everything:

* a reply on a pipe is a finished cell (or an in-worker exception,
  an *error*) — the worker stays alive for the next cell;
* a sentinel without a reply is a *crash* (``-SIGKILL`` is named
  specifically); a fresh worker is forked to replace it;
* an attempt running past ``timeout_s`` is killed as a *timeout*.

Without a :class:`~repro.sim.ftexec.RetryPolicy` the first failure
raises :class:`~repro.errors.WorkerError` naming the cell. With one,
failures are retried with backoff and cells that keep failing are
quarantined — the sweep completes with partial results. ``jobs <= 1``
without a policy runs the same cell function in-process.

When a :class:`~repro.sim.cache.ResultCache` is supplied, cells already
on disk are served without touching a worker, and fresh results are
published as they arrive — repeated figure/sweep runs only pay for
cells they have never seen, and a killed sweep resumes from the cache.

Every call also produces a :class:`SweepStats` record (per-cell wall
time, cache hit/miss counts, worker utilization) so the performance of
the harness itself stays observable; the CLI serializes it as
``BENCH_sweep.json``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import WorkerError
from ..obs.ledger import (
    ATTEMPT_END,
    ATTEMPT_START,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_STORE,
    CHECKPOINT,
    CHECKPOINT_EVERY,
    COLLECT,
    CRASH,
    DISPATCH,
    LEDGER_SCHEMA,
    PROFILE,
    QUARANTINE,
    RETRY,
    SWEEP_BEGIN,
    SWEEP_END,
    TIMEOUT,
    SweepLedger,
    worker_emit,
)
from ..obs.profile import profile_call
from ..obs.profile import spool_path as _profile_spool_path
from ..runtime.time_model import DEFAULT_COST_MODEL, CostModel
from .cache import ResultCache
from .chaos import ChaosConfig, maybe_injure
from .ftexec import (
    FaultToleranceReport,
    MonotonicClock,
    QuarantinedCell,
    RetryPolicy,
)
from .machine import RunConfig, RunResult, run_benchmark

#: Sweep-artifact schema identifier (see EXPERIMENTS.md). Version 2
#: added the fault-tolerance block and the deterministic ``results``
#: section the chaos-smoke CI job compares across runs.
SWEEP_SCHEMA = "repro.sweep/2"


def default_jobs() -> int:
    """Worker count used for ``--jobs 0`` (auto): one per CPU, capped."""
    return max(1, min(os.cpu_count() or 1, 16))


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
@dataclass
class CellTiming:
    """Wall-clock record of one grid cell."""

    index: int
    workload: str
    description: str
    wall_s: float
    cached: bool
    completed: bool

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "workload": self.workload,
            "config": self.description,
            "wall_s": self.wall_s,
            "cached": self.cached,
            "completed": self.completed,
        }


@dataclass
class SweepStats:
    """Aggregate accounting of one ``run_grid`` call."""

    jobs: int
    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0
    #: Sum of per-cell execution time (the work the workers actually did).
    busy_s: float = 0.0
    #: Bytes received over worker pipes for results (0 for inline and
    #: cached cells).
    result_bytes: int = 0
    timings: List[CellTiming] = field(default_factory=list)
    #: What the executor survived (zeros unless a retry policy was
    #: given; without one the first failure raises instead).
    fault_tolerance: FaultToleranceReport = field(
        default_factory=FaultToleranceReport
    )

    @property
    def utilization(self) -> float:
        """busy / (jobs x wall): 1.0 means every worker was saturated."""
        if self.wall_s <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.jobs * self.wall_s))

    def merge(self, other: "SweepStats") -> None:
        base = len(self.timings)
        self.cells += other.cells
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.wall_s += other.wall_s
        self.busy_s += other.busy_s
        self.result_bytes += other.result_bytes
        self.fault_tolerance.merge(other.fault_tolerance)
        for timing in other.timings:
            self.timings.append(
                CellTiming(
                    index=base + timing.index,
                    workload=timing.workload,
                    description=timing.description,
                    wall_s=timing.wall_s,
                    cached=timing.cached,
                    completed=timing.completed,
                )
            )

    def to_dict(self) -> dict:
        return {
            "schema": SWEEP_SCHEMA,
            "jobs": self.jobs,
            "cells": self.cells,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "transport": {"result_bytes": self.result_bytes},
            "fault_tolerance": self.fault_tolerance.to_dict(),
            "cell_timings": [timing.to_dict() for timing in self.timings],
        }


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_WORKER_COST_MODEL: CostModel = DEFAULT_COST_MODEL
_WORKER_LEDGER_PATH: Optional[str] = None
_WORKER_PROFILE_DIR: Optional[str] = None


def _init_worker(
    cost_model: CostModel,
    ledger_path: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> None:
    global _WORKER_COST_MODEL, _WORKER_LEDGER_PATH, _WORKER_PROFILE_DIR
    _WORKER_COST_MODEL = cost_model
    _WORKER_LEDGER_PATH = ledger_path
    _WORKER_PROFILE_DIR = profile_dir


def _run_cell(
    index: int,
    config: RunConfig,
    attempt: int = 1,
    chaos: Optional[ChaosConfig] = None,
) -> Tuple[RunResult, float]:
    """One attempt at one cell, bracketed by flight-recorder events.

    The chaos hook fires after ``attempt_start``, so from the parent's
    view a killed worker dies mid-cell and leaves only the start (the
    parent's ``crash`` event closes the story); an exception closes
    the span with ``ok: false`` and propagates.
    """
    path = _WORKER_LEDGER_PATH
    worker_emit(
        path, ATTEMPT_START, cell=index, attempt=attempt, workload=config.workload
    )
    start = time.perf_counter()
    ok = False
    try:
        maybe_injure(chaos, index, attempt)
        if _WORKER_PROFILE_DIR is not None:
            spool = _profile_spool_path(_WORKER_PROFILE_DIR, index, attempt)
            result = profile_call(spool, run_benchmark, config, _WORKER_COST_MODEL)
            worker_emit(path, PROFILE, cell=index, attempt=attempt, spool=spool)
        else:
            result = run_benchmark(config, _WORKER_COST_MODEL)
        ok = True
    finally:
        wall = time.perf_counter() - start
        worker_emit(
            path,
            ATTEMPT_END,
            cell=index,
            attempt=attempt,
            ok=ok,
            wall_s=wall,
            workload=config.workload,
        )
    return result, wall


def _worker_loop(
    conn,
    inherited: Sequence,
    cost_model: CostModel,
    ledger_path: Optional[str],
    profile_dir: Optional[str],
    chaos: Optional[ChaosConfig],
) -> None:
    """Serve cells from ``conn`` until the parent closes its end.

    The parent-side pipe ends inherited through ``fork`` are closed
    first, so a dead parent is an EOF here rather than a worker that
    waits forever.
    """
    for other in inherited:
        other.close()
    _init_worker(cost_model, ledger_path, profile_dir)
    while True:
        try:
            index, config, attempt = conn.recv()
        except EOFError:
            return
        try:
            # Looked up through the module global on every call, so a
            # re-bound _run_cell (profilers, tracers) is seen here.
            result, wall = _run_cell(index, config, attempt, chaos)
            conn.send((True, result, wall))
        except Exception as exc:
            conn.send((False, f"{type(exc).__name__}: {exc}", 0.0))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Worker:
    """One forked worker and the attempt it is running, if any."""

    __slots__ = ("process", "conn", "task", "started")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: (index, config, attempt) in flight, or None while idle.
        self.task: Optional[Tuple[int, RunConfig, int]] = None
        self.started = 0.0

    def stop(self, kill: bool) -> None:
        """Close the pipe (an idle worker exits on EOF) and reap it."""
        self.conn.close()
        if kill:
            self.process.kill()
        self.process.join()


def _crash_detail(exitcode: Optional[int]) -> str:
    if exitcode == -signal.SIGKILL:
        return "killed (SIGKILL)"
    if exitcode is not None and exitcode < 0:
        return f"terminated by signal {-exitcode}"
    return f"exit code {exitcode}, no result sent"


def run_cells(
    pending: Sequence[Tuple[int, RunConfig]],
    cost_model: CostModel,
    jobs: int,
    policy: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    clock: Optional[MonotonicClock] = None,
    progress: Optional[Callable[[str], None]] = None,
    chaos: Optional[ChaosConfig] = None,
    ledger: Optional[SweepLedger] = None,
    profile_dir: Optional[str] = None,
    on_complete: Optional[Callable[[int, RunResult, float, int], None]] = None,
) -> Tuple[List[Tuple[int, RunResult, float]], FaultToleranceReport]:
    """Run ``(index, config)`` cells; return completions and a report.

    Completions are ``(index, result, wall_s)`` in completion order;
    ``on_complete(index, result, wall_s, result_bytes)`` also sees each
    one as it arrives. ``timeout_s`` or ``chaos`` without a ``policy``
    implies the default :class:`RetryPolicy`; with no policy at all the
    first failed cell raises :class:`WorkerError`. ``chaos`` defaults
    to ``REPRO_CHAOS`` once a policy is in force.

    With a ``ledger``, the parent records dispatch (when a cell is
    queued), collect (when its result arrives), and every retry,
    timeout, crash and quarantine; workers append their own
    ``attempt_start``/``attempt_end`` records to the ledger's file.
    ``clock`` (default :class:`MonotonicClock`) is the only source of
    time and of blocking, so tests drive backoff and timeouts on fake
    time.
    """
    if policy is None and (timeout_s is not None or chaos is not None):
        policy = RetryPolicy()
    if policy is not None and chaos is None:
        chaos = ChaosConfig.from_env()
    clock = clock or MonotonicClock()
    jobs = max(1, jobs)
    report = FaultToleranceReport()
    completions: List[Tuple[int, RunResult, float]] = []
    ledger_path = ledger.path if ledger is not None else None

    def emit(ev: str, **fields) -> None:
        if ledger is not None:
            ledger.emit(ev, **fields)

    def collect(index: int, config: RunConfig, result, wall, nbytes) -> None:
        completions.append((index, result, wall))
        emit(
            COLLECT,
            cell=index,
            workload=config.workload,
            wall_s=wall,
            result_bytes=nbytes,
        )
        if on_complete is not None:
            on_complete(index, result, wall, nbytes)

    if policy is None and jobs <= 1:
        _init_worker(cost_model, ledger_path, profile_dir)
        try:
            for index, config in pending:
                emit(DISPATCH, cell=index, workload=config.workload)
                result, wall = _run_cell(index, config)
                collect(index, config, result, wall, 0)
        finally:
            _init_worker(DEFAULT_COST_MODEL)
        return completions, report

    ready = [(index, config, 1) for index, config in reversed(pending)]
    delayed: List[Tuple[float, int, RunConfig, int]] = []
    failures: Dict[int, List[str]] = {}
    workers: List[_Worker] = []
    capacity = min(jobs, len(pending))
    context = multiprocessing.get_context()

    def fork() -> _Worker:
        conn, child_conn = context.Pipe()
        inherited = [worker.conn for worker in workers] + [conn]
        process = context.Process(
            target=_worker_loop,
            args=(child_conn, inherited, cost_model, ledger_path, profile_dir, chaos),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, conn)
        workers.append(worker)
        return worker

    def fail(worker: _Worker, kind: str, detail: str) -> None:
        """``worker``'s attempt failed: retry, quarantine, or raise."""
        index, config, attempt = worker.task
        worker.task = None
        label = f"{config.workload} {_describe(config)}"
        if policy is None:
            raise WorkerError(f"cell {index} ({label}) failed: {kind}: {detail}")
        history = failures.setdefault(index, [])
        history.append(f"attempt {attempt}: {kind}: {detail}")
        if attempt >= policy.max_attempts:
            report.quarantined.append(
                QuarantinedCell(
                    index=index,
                    workload=config.workload,
                    description=_describe(config),
                    attempts=attempt,
                    failures=list(history),
                )
            )
            emit(
                QUARANTINE,
                cell=index,
                workload=config.workload,
                attempts=attempt,
                kind=kind,
            )
            if progress is not None:
                progress(f"QUARANTINED {label} after {attempt} attempts ({kind})")
            return
        report.retries += 1
        wait = policy.delay(index, attempt + 1)
        delayed.append((clock.now() + wait, index, config, attempt + 1))
        emit(
            RETRY,
            cell=index,
            workload=config.workload,
            attempt=attempt + 1,
            wait_s=wait,
            kind=kind,
        )
        if progress is not None:
            progress(
                f"retrying {label} ({kind}; attempt {attempt + 1}/"
                f"{policy.max_attempts} in {wait:.2f}s)"
            )

    def bury(worker: _Worker, timed_out: bool = False) -> None:
        """``worker`` died (or overran and is killed) mid-attempt."""
        workers.remove(worker)
        worker.stop(kill=timed_out)
        index, _, attempt = worker.task
        wall = max(0.0, clock.now() - worker.started)
        if timed_out:
            report.timeouts += 1
            emit(TIMEOUT, cell=index, attempt=attempt, wall_s=wall)
            fail(worker, "timeout", f"exceeded {timeout_s:.1f}s cell budget")
        else:
            report.worker_crashes += 1
            detail = _crash_detail(worker.process.exitcode)
            emit(CRASH, cell=index, attempt=attempt, wall_s=wall, detail=detail)
            fail(worker, "crash", detail)

    for index, config in pending:
        emit(DISPATCH, cell=index, workload=config.workload)
    arrived: List[tuple] = []
    try:
        while True:
            now = clock.now()
            due = [item for item in delayed if item[0] <= now]
            if due:
                delayed[:] = [item for item in delayed if item[0] > now]
                for _, index, config, attempt in sorted(due, reverse=True):
                    ready.append((index, config, attempt))
            idle = [worker for worker in workers if worker.task is None]
            while ready and (idle or len(workers) < capacity):
                worker = idle.pop() if idle else fork()
                worker.task = ready.pop()
                worker.started = clock.now()
                try:
                    worker.conn.send(worker.task)
                except OSError:  # died while idle, unnoticed until now
                    bury(worker)
            # Results are handed on only once every idle worker has its
            # next cell: workers never wait out the parent's cache writes.
            for item in arrived:
                collect(*item)
            arrived.clear()
            busy = [worker for worker in workers if worker.task is not None]
            if not (ready or delayed or busy):
                break
            deadlines = [item[0] for item in delayed]
            if timeout_s is not None:
                deadlines += [worker.started + timeout_s for worker in busy]
            now = clock.now()
            timeout = max(0.0, min(deadlines) - now) if deadlines else None
            handles = [worker.conn for worker in busy]
            handles += [worker.process.sentinel for worker in workers]
            signalled = set(clock.wait(handles, timeout))
            for worker in list(workers):
                if worker.task is not None and worker.conn in signalled:
                    try:
                        data = worker.conn.recv_bytes()
                    except (EOFError, OSError):
                        bury(worker)
                        continue
                    ok, payload, wall = pickle.loads(data)
                    index, config, _ = worker.task
                    if ok:
                        worker.task = None
                        arrived.append((index, config, payload, wall, len(data)))
                    else:
                        report.worker_errors += 1
                        fail(worker, "error", payload)
                elif worker.process.sentinel in signalled:
                    if worker.task is not None:
                        bury(worker)
                    else:  # died idle: nothing lost, fork afresh on demand
                        workers.remove(worker)
                        worker.stop(kill=False)
                elif (
                    worker.task is not None
                    and timeout_s is not None
                    and clock.now() >= worker.started + timeout_s
                ):
                    bury(worker, timed_out=True)
    finally:
        for worker in workers:
            worker.stop(kill=worker.task is not None)
    return completions, report


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def run_grid(
    configs: Sequence[RunConfig],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    chaos: Optional[ChaosConfig] = None,
    ledger: Optional[SweepLedger] = None,
    profile_dir: Optional[str] = None,
) -> Tuple[List[RunResult], SweepStats]:
    """Execute every cell; results come back in input order.

    ``jobs <= 1`` runs inline; ``jobs == 0`` means auto
    (:func:`default_jobs`). Cached cells never reach a worker.

    Passing ``retry``, ``timeout_s`` or ``chaos`` engages fault
    tolerance (see :func:`run_cells`): crashed, erroring, or overrunning
    attempts are retried with backoff, and cells failing persistently
    are quarantined — the returned list then contains only the
    surviving results (still input-ordered) and
    ``stats.fault_tolerance`` reports the casualties. Without them the
    first failed cell raises :class:`~repro.errors.WorkerError`.
    ``chaos`` is the test/CI hook that injects worker failures.

    ``ledger`` is the flight recorder (:mod:`repro.obs.ledger`):
    parent-side events go through it (and its listeners — live
    progress); workers append straight to its
    ``path``, if any. ``profile_dir`` arms per-attempt cProfile
    spooling in workers. Both are strictly observational — they never
    change the returned results.
    """
    if jobs == 0:
        jobs = default_jobs()
    configs = list(configs)
    stats = SweepStats(jobs=max(1, jobs), cells=len(configs))
    results: List[Optional[RunResult]] = [None] * len(configs)
    recorder = ledger if ledger is not None else SweepLedger()
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
    started = time.perf_counter()
    recorder.emit(
        SWEEP_BEGIN, schema=LEDGER_SCHEMA, cells=len(configs), jobs=max(1, jobs)
    )

    pending: List[Tuple[int, RunConfig]] = []
    for index, config in enumerate(configs):
        if cache is not None:
            lookup_start = time.perf_counter()
            hit = cache.get(config)
            lookup_wall = time.perf_counter() - lookup_start
            if hit is not None:
                results[index] = hit
                stats.cache_hits += 1
                stats.timings.append(
                    CellTiming(
                        index=index,
                        workload=config.workload,
                        description=_describe(config),
                        wall_s=lookup_wall,
                        cached=True,
                        completed=hit.completed,
                    )
                )
                recorder.emit(
                    CACHE_HIT,
                    cell=index,
                    workload=config.workload,
                    wall_s=lookup_wall,
                )
                continue
            stats.cache_misses += 1
            recorder.emit(
                CACHE_MISS,
                cell=index,
                workload=config.workload,
                wall_s=lookup_wall,
            )
        pending.append((index, config))

    completed = 0
    #: perf_counter of the last collected result; what follows until
    #: run_cells returns is winding the workers down.
    last_collect = started

    def _complete(index: int, result: RunResult, wall: float, nbytes: int) -> None:
        nonlocal completed, last_collect
        results[index] = result
        stats.busy_s += wall
        stats.result_bytes += nbytes
        stats.timings.append(
            CellTiming(
                index=index,
                workload=result.config.workload,
                description=_describe(result.config),
                wall_s=wall,
                cached=False,
                completed=result.completed,
            )
        )
        if cache is not None:
            store_start = time.perf_counter()
            cache.put(result.config, result)
            recorder.emit(
                CACHE_STORE,
                cell=index,
                workload=result.config.workload,
                wall_s=time.perf_counter() - store_start,
            )
        completed += 1
        if completed % CHECKPOINT_EVERY == 0:
            recorder.emit(CHECKPOINT, done=completed, total=len(pending))
        if progress is not None:
            progress(
                f"{result.config.workload} {_describe(result.config)}: "
                f"{'ok' if result.completed else 'DNF'} ({wall:.2f}s)"
            )
        last_collect = time.perf_counter()

    teardown_s = 0.0
    if pending:
        _, report = run_cells(
            pending,
            cost_model,
            jobs,
            retry,
            timeout_s=timeout_s,
            progress=progress,
            chaos=chaos,
            ledger=recorder,
            profile_dir=profile_dir,
            on_complete=_complete,
        )
        stats.fault_tolerance.merge(report)
        if completed:
            teardown_s = time.perf_counter() - last_collect

    stats.timings.sort(key=lambda timing: timing.index)
    stats.wall_s = time.perf_counter() - started
    recorder.emit(
        SWEEP_END,
        cells=len(configs),
        executed=completed,
        cached=stats.cache_hits,
        quarantined=len(stats.fault_tolerance.quarantined),
        wall_s=stats.wall_s,
        teardown_s=teardown_s,
    )
    final = [result for result in results if result is not None]
    # Quarantined cells are the only legitimate gaps (partial results
    # instead of an aborted sweep); anything else missing is a bug.
    assert len(final) == len(configs) - len(stats.fault_tolerance.quarantined)
    return final, stats


def _describe(config: RunConfig) -> str:
    return (
        f"{config.failure_model.describe()} L{config.immix_line} "
        f"h{config.heap_multiplier:g} {config.collector} seed{config.seed}"
    )
