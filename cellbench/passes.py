"""One benchmark pass in a fresh interpreter.

Run by ``run.py``; not meant to be started by hand::

    python3 cellbench/passes.py --workload W --seed N --mode plain|traced \
        --spawn-t UNIX_TIME --work-dir DIR --out FILE

A fresh process per pass makes every pass pay the same set-up (imports,
per-process min-heap estimates, pool start), so passes are comparable
and deterministic counts repeat exactly. The pass writes one JSON
document to ``--out``: host times, summed ``RunResult.stats``, one
digest per cell, and — when traced — the span totals.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _sum_stats(results) -> dict:
    total: dict = {"perfect_page_demand": 0}
    for result in results:
        for name, value in result.stats.items():
            if isinstance(value, int) and not isinstance(value, bool):
                total[name] = total.get(name, 0) + value
        total["perfect_page_demand"] += result.perfect_page_demand
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import tempfile

    tempfile.tempdir = args.work_dir
    sys.path.insert(0, _HERE)
    import hostspeed
    import workloads as wl
    from repro.sim.machine import RunResult

    configs = wl.cells(args.workload, args.seed)
    recorder = None
    if args.mode == "traced":
        from tracing import SpanRecorder

        worker_dir = os.path.join(args.work_dir, "spans")
        os.makedirs(worker_dir, exist_ok=True)
        recorder = SpanRecorder(worker_dir)
        recorder.install()

    doc: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    sweep = args.workload == "sweep-grid"
    # Host times are scaled to reference speed by the slowdown probed
    # around each cell (inline) or around the grid (pooled; probing
    # while the workers run would measure the workers).
    info = None
    wall = cpu = wall_ref = cpu_ref = 0.0
    if sweep:
        before, probe_s = hostspeed.slowdown()
        setup_slowdown = before
        cpu0 = _cpu_s()
        start = time.perf_counter()
        outcomes, info = wl.run_sweep_cold(configs, args.seed, args.work_dir)
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        after, _ = hostspeed.slowdown()
        wall_ref = wall / ((before + after) / 2)
        cpu_ref = cpu / ((before + after) / 2)
        first_cell_t = wl.first_attempt_time(args.work_dir) - probe_s
    else:
        first_cell_t = time.time()
        before, _ = hostspeed.slowdown()
        setup_slowdown = before
        outcomes = []
        for config in configs:
            cpu0 = _cpu_s()
            start = time.perf_counter()
            outcomes.append((wl.cell_id(config), wl.run_cell(args.workload, config)))
            cell_wall = time.perf_counter() - start
            cell_cpu = _cpu_s() - cpu0
            after, _ = hostspeed.slowdown()
            wall += cell_wall
            cpu += cell_cpu
            wall_ref += cell_wall / ((before + after) / 2)
            cpu_ref += cell_cpu / ((before + after) / 2)
            before = after
    results = [value for _, value in outcomes if isinstance(value, RunResult)]
    doc["setup_s"] = first_cell_t - args.spawn_t
    doc["wall_s"] = wall
    doc["cpu_s"] = cpu
    doc["setup_ref_s"] = doc["setup_s"] / setup_slowdown
    doc["wall_ref_s"] = wall_ref
    doc["cpu_ref_s"] = cpu_ref
    doc["slowdown"] = wall / wall_ref if wall_ref else 1.0
    doc["cells"] = [
        {
            "id": cid,
            "digest": wl.result_digest(value) if isinstance(value, RunResult) else None,
            "completed": value.completed if isinstance(value, RunResult) else None,
            "error": None if isinstance(value, RunResult) else value,
        }
        for cid, value in outcomes
    ]
    doc["stats"] = _sum_stats(results)
    doc["sweep"] = info

    if sweep:
        cold_totals = recorder.snapshot() if recorder is not None else None
        walls = []
        mismatched = set()
        cold = {c["id"]: c["digest"] for c in doc["cells"]}
        for _ in range(wl.WARM_REPEATS):
            t0 = time.perf_counter()
            warm_digests, warm_info = wl.run_sweep_warm(configs, args.seed, args.work_dir)
            walls.append(time.perf_counter() - t0)
            mismatched.update(cid for cid, d in warm_digests.items() if cold.get(cid) != d)
        doc["warm"] = dict(
            warm_info, wall_s=statistics.median(walls), repeats=len(walls), mismatched=sorted(mismatched)
        )

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc["rss_mib"] = (usage_self + usage_children) / 1024.0

    if recorder is not None:
        from tracing import diff_totals

        recorder.uninstall()
        if sweep:
            warm_totals = diff_totals(recorder.totals, cold_totals)
        workers = recorder.merge_worker_files()
        recorder.dump(os.path.join(args.work_dir, "spans.json"))
        doc["trace"] = {
            "totals": recorder.totals,
            "warm_totals": warm_totals if sweep else {},
            "workers": workers,
            "coarse_spans": len(recorder.coarse),
            "unavailable": recorder.unavailable,
            "unavailable_groups": recorder.unavailable_groups(),
        }
    with open(args.out, "w") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
