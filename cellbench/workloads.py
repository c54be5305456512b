"""The benchmark's four workloads, driven through ``repro``'s public API.

Each workload maps a seed to a list of cells (one
:class:`~repro.sim.machine.RunConfig` each) and runs them:

* ``alloc-heavy`` — roomy 4x heap, no failures: the per-object path.
* ``fault-heavy`` — tight heaps at 25-50 % static failures: collection,
  overflow search and failure-aware sweeping.
* ``wearing`` — :func:`~repro.sim.machine.run_wearing_benchmark`: PCM
  write-through wear, OS upcalls, evacuating collections.
* ``sweep-grid`` — the headline figure at ``plans/figures_quick.yaml``
  scale through :class:`~repro.sim.experiment.ExperimentRunner` with a
  worker pool and a cold, then warm, :class:`~repro.sim.cache.ResultCache`.

The program sees only ``RunConfig.seed``; everything else is fixed here.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Dict, List, Tuple

from repro.faults.generator import FailureModel
from repro.obs.ledger import SweepLedger
from repro.sim.cache import ResultCache
from repro.sim.experiment import ExperimentRunner
from repro.sim.experiments import headline, suite_names
from repro.sim import machine
from repro.sim.machine import RunConfig, RunResult

#: Scale of ``plans/figures_quick.yaml``.
SWEEP_SCALE = 0.2
#: Pool size for ``sweep-grid``: one worker per core, at most two.
SWEEP_JOBS = max(1, min(2, len(os.sched_getaffinity(0))))
#: Fresh-cache re-reads of the warm grid per pass (each takes ~20 ms).
WARM_REPEATS = 15

#: The paper's headline rows that anchor the cost model (the
#: 50 %-unclustered row does not finish by design and is left out).
HEADLINE_ANCHORS = {
    "no failures, failure-aware": 1.000,
    "10% unclustered": 1.17,
    "10% + 2-page clustering": 1.039,
    "50% + 2-page clustering": 1.124,
}

_ALLOC_HEAVY = ("sunflow", "bloat", "lusearch-fix", "pmd")
#: (workload, heap multiplier, failure rate, hw clustering pages, collector)
_FAULT_HEAVY = (
    ("pmd", 1.25, 0.50, 0, "sticky-immix"),
    ("antlr", 1.5, 0.25, 0, "sticky-immix"),
    ("xalan", 1.25, 0.50, 2, "sticky-immix"),
    ("hsqldb", 1.25, 0.25, 2, "sticky-immix"),
    ("antlr", 1.5, 0.25, 0, "sticky-marksweep"),
)
_WEARING = ("luindex", "pmd")


def cell_id(config: RunConfig) -> str:
    model = config.failure_model
    return (
        f"{config.workload}/h{config.heap_multiplier:g}/{config.collector}"
        f"/r{model.rate:g}/cl{model.hw_region_pages}/s{config.scale:g}"
    )


def inline_cells(workload: str, seed: int) -> List[RunConfig]:
    if workload == "alloc-heavy":
        return [RunConfig(workload=name, heap_multiplier=4.0, seed=seed) for name in _ALLOC_HEAVY]
    if workload == "fault-heavy":
        return [
            RunConfig(
                workload=name,
                heap_multiplier=heap,
                collector=collector,
                failure_model=FailureModel(rate=rate, hw_region_pages=pages),
                seed=seed,
            )
            for name, heap, rate, pages, collector in _FAULT_HEAVY
        ]
    if workload == "wearing":
        return [RunConfig(workload=name, seed=seed) for name in _WEARING]
    raise ValueError(f"{workload} has no inline cells")


def sweep_cells(seed: int) -> List[RunConfig]:
    """The cells :func:`repro.sim.experiments.headline` runs at ``SWEEP_SCALE``."""
    base = RunConfig(workload="antlr", heap_multiplier=2.0, scale=SWEEP_SCALE, seed=seed)
    models = (
        FailureModel(),
        FailureModel(rate=0.10),
        FailureModel(rate=0.50),
        FailureModel(rate=0.10, hw_region_pages=2),
        FailureModel(rate=0.50, hw_region_pages=2),
    )
    return [
        replace(base, workload=name, failure_model=model)
        for model in models
        for name in suite_names()
    ]


def cells(workload: str, seed: int) -> List[RunConfig]:
    return sweep_cells(seed) if workload == "sweep-grid" else inline_cells(workload, seed)


# ----------------------------------------------------------------------
# Correctness: a digest of every deterministic RunResult field
# ----------------------------------------------------------------------
def result_digest(result: RunResult) -> str:
    payload = {
        "completed": result.completed,
        "time_units": result.time_units,
        "time_ms": result.time_ms,
        "stats": result.stats,
        "heap_bytes": result.heap_bytes,
        "min_heap_bytes": result.min_heap_bytes,
        "perfect_page_demand": result.perfect_page_demand,
        "borrowed_pages": result.borrowed_pages,
        "full_gc_pause_ms": result.full_gc_pause_ms,
        "failure_note": result.failure_note,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_cell(workload: str, config: RunConfig) -> object:
    """Run one inline cell; an exception is returned as text, not raised."""
    # Looked up at call time, so the traced pass sees its probes.
    run = machine.run_wearing_benchmark if workload == "wearing" else machine.run_benchmark
    try:
        return run(config)
    except Exception as exc:  # counted as a failed cell
        return f"{type(exc).__name__}: {exc}"


def headline_gap_pp(rows) -> float:
    gaps = []
    for label, values in rows:
        if label in HEADLINE_ANCHORS:
            value = values[0]
            if value is None:
                return float("inf")
            gaps.append(abs(value - HEADLINE_ANCHORS[label]) * 100.0)
    return max(gaps) if len(gaps) == len(HEADLINE_ANCHORS) else float("inf")


def run_sweep_cold(configs: List[RunConfig], seed: int, work_dir: str):
    """Cold headline grid through the pool into an empty cache."""
    cache_dir = os.path.join(work_dir, "cache")
    ledger = SweepLedger(os.path.join(work_dir, "ledger.jsonl"))
    runner = ExperimentRunner(
        seeds=(seed,), cache=ResultCache(cache_dir), jobs=SWEEP_JOBS, ledger=ledger
    )
    figure = headline(runner, scale=SWEEP_SCALE)
    outcomes: List[Tuple[str, object]] = []
    for config in configs:
        try:
            outcomes.append((cell_id(config), runner.run_one(config)))
        except Exception as exc:
            outcomes.append((cell_id(config), f"{type(exc).__name__}: {exc}"))
    sweep = runner.sweep_summary()
    info: Dict[str, object] = {
        "gap_pp": headline_gap_pp(figure.rows),
        "rows": [[label, values[0]] for label, values in figure.rows],
        "jobs": sweep.jobs if sweep else SWEEP_JOBS,
        "grid_wall_s": sweep.wall_s if sweep else 0.0,
        "busy_s": sweep.busy_s if sweep else 0.0,
        "result_bytes": sweep.result_bytes if sweep else 0,
        "executed": sum(1 for t in sweep.timings if not t.cached) if sweep else 0,
        "quarantined": len(sweep.fault_tolerance.quarantined) if sweep else 0,
    }
    return outcomes, info


def run_sweep_warm(configs: List[RunConfig], seed: int, work_dir: str):
    """Re-read the grid through a fresh cache (and runner) on the same dir."""
    cache = ResultCache(os.path.join(work_dir, "cache"))
    runner = ExperimentRunner(seeds=(seed,), cache=cache, jobs=SWEEP_JOBS)
    headline(runner, scale=SWEEP_SCALE)
    digests = {cell_id(config): result_digest(runner.run_one(config)) for config in configs}
    sweep = runner.sweep_summary()
    return digests, {
        "hits": cache.hits,
        "lookups": cache.hits + cache.misses,
        "executed": sum(1 for t in sweep.timings if not t.cached) if sweep else 0,
    }


def first_attempt_time(work_dir: str) -> float:
    """Unix time the first cell started in a worker (from the ledger)."""
    first = float("inf")
    with open(os.path.join(work_dir, "ledger.jsonl")) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("ev") == "attempt_start":
                first = min(first, record["t"])
    return first
