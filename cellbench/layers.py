"""Per-layer metrics and self-checks from one traced pass.

Span-derived numbers come from the probe groups of :mod:`tracing`
(``[calls, inclusive_s, self_s, top_s]`` per group); simulator counts
come from the summed ``RunResult.stats`` of the pass, and executor
numbers from ``SweepStats``. A group never entered reads 0; a group
whose entry points are all unavailable reads NaN.
"""

from __future__ import annotations

from typing import Dict, List


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: dict, plain: dict) -> Dict[str, float]:
    totals = traced["trace"]["totals"]
    gone = set(traced["trace"]["unavailable_groups"])
    stats = traced["stats"]
    sweep = traced.get("sweep") or {}
    warm = traced.get("warm") or {}

    def field(group: str, index: int) -> float:
        # NaN marks a group whose entry points no longer exist.
        if group in gone:
            return float("nan")
        return totals.get(group, [0, 0.0, 0.0, 0.0])[index]

    def calls(group: str) -> int:
        value = field(group, 0)
        return value if value != value else int(value)

    def self_s(group: str) -> float:
        return field(group, 2)

    def top_s(group: str) -> float:
        return field(group, 3)

    def stat(name: str) -> int:
        return int(stats.get(name, 0))

    grid_wall = sweep.get("grid_wall_s", 0.0)
    jobs = sweep.get("jobs", 0)
    busy = sweep.get("busy_s", 0.0)
    return {
        "workloads.step_calls": calls("workloads.step"),
        "workloads.self_s": self_s("workloads.step"),
        "runtime.alloc_calls": calls("runtime.alloc"),
        "runtime.alloc_self_s": self_s("runtime.alloc"),
        "runtime.barrier_s": top_s("runtime.barrier"),
        "check.hook_calls": calls("check.hook"),
        "check.hook_s": top_s("check.hook"),
        "collectors.allocate_calls": calls("collectors.allocate"),
        "collectors.allocate_s": top_s("collectors.allocate"),
        "collectors.fast_path_ratio": _ratio(stat("fast_path_allocs"), stat("objects_allocated")),
        "collectors.overflow_allocs": stat("overflow_allocs"),
        "collectors.overflow_run_searches": stat("overflow_run_searches"),
        "collectors.run_advances": stat("run_advances"),
        "collectors.collections": stat("collections"),
        "collectors.full_collections": stat("full_collections"),
        "collectors.collect_s": top_s("collectors.collect"),
        "collectors.nursery_s": top_s("collectors.nursery"),
        "collectors.full_s": top_s("collectors.full"),
        "collectors.bytes_traced": stat("bytes_traced"),
        "collectors.bytes_copied": stat("bytes_copied"),
        "collectors.copy_ratio": _ratio(stat("objects_copied"), stat("objects_traced")),
        "collectors.lines_swept": stat("lines_swept"),
        "collectors.blocks_swept": stat("blocks_swept"),
        "heap.block_requests": stat("block_requests"),
        "heap.perfect_block_requests": stat("perfect_block_requests"),
        "heap.page_supply_calls": calls("heap.page_supply"),
        "heap.page_supply_s": top_s("heap.page_supply"),
        "heap.perfect_page_demand": stat("perfect_page_demand"),
        "hardware.write_calls": calls("hardware.write"),
        "hardware.write_s": top_s("hardware.write"),
        "hardware.dynamic_failed_lines": stat("dynamic_failed_lines"),
        "osim.service_calls": calls("osim.service"),
        "osim.service_s": top_s("osim.service"),
        "collectors.dynamic_failure_calls": calls("collectors.dynamic_failure"),
        "collectors.dynamic_failure_s": top_s("collectors.dynamic_failure"),
        "sim.cells": calls("sim.cell"),
        "sim.cell_setup_s": top_s("sim.min_heap") + top_s("sim.vm_build"),
        "sim.min_heap_s": top_s("sim.min_heap"),
        "faults.build_s": top_s("faults.build"),
        "faults.injector_s": top_s("faults.injector"),
        "osim.mmap_s": top_s("osim.mmap"),
        "sim.busy_s": busy,
        "sim.utilization": _ratio(busy, jobs * grid_wall),
        "sim.executor_overhead_s": jobs * grid_wall - busy if jobs else 0.0,
        "sim.cache_get_s": top_s("sim.cache_get"),
        "sim.cache_put_s": top_s("sim.cache_put"),
        "sim.cache_hit_ratio": _ratio(warm.get("hits", 0), warm.get("lookups", 0)),
        "sim.result_bytes": int(sweep.get("result_bytes", 0)),
        "obs.ledger_events": calls("obs.ledger"),
        "obs.ledger_s": top_s("obs.ledger"),
        "sim.warm_cells_per_s": _ratio(len(traced["cells"]), warm.get("wall_s", 0.0)) if warm else 0.0,
        "sim.headline_gap_pp": sweep.get("gap_pp", 0.0),
        "bench.trace_overhead_s": traced["wall_ref_s"] - plain["wall_ref_s"],
    }


#: Time metrics compared as shares of cell time in the traced pass's
#: summary line (barrier and allocate time include nested PCM writes).
SHARE_METRICS = (
    "workloads.self_s",
    "runtime.alloc_self_s",
    "collectors.allocate_s",
    "runtime.barrier_s",
    "collectors.collect_s",
    "hardware.write_s",
    "sim.cell_setup_s",
    "check.hook_s",
)


def cell_shares(traced: dict, values: Dict[str, float]) -> Dict[str, float]:
    """Each SHARE_METRICS value over total cell time (all processes)."""
    cell_s = traced["trace"]["totals"].get("sim.cell", [0, 0.0, 0.0, 0.0])[3]
    return {name: _ratio(values[name], cell_s) for name in SHARE_METRICS}


def self_checks(traced: dict, design: dict) -> List[str]:
    """Problems with the traced pass; an empty list means it is sound.

    A declared group that recorded no calls, or a group declared idle
    that did record calls, fails the pass — unless every probe of the
    group is unavailable (a refactor removed the entry point), which is
    reported separately instead.
    """
    trace = traced["trace"]
    totals, warm_totals = trace["totals"], trace["warm_totals"]
    gone = set(trace["unavailable_groups"])
    problems = []

    def check(groups, source, want_calls: bool, where: str) -> None:
        for group in groups:
            if group in gone:
                continue
            n = int(source.get(group, [0])[0])
            if want_calls and n == 0:
                problems.append(f"{group} recorded zero calls{where}")
            if not want_calls and n != 0:
                problems.append(f"{group} recorded {n} calls{where}, expected none")

    check(design.get("expect_calls", []), totals, True, "")
    check(design.get("expect_zero", []), totals, False, "")
    check(design.get("expect_warm_calls", []), warm_totals, True, " in the warm re-read")
    check(design.get("expect_warm_zero", []), warm_totals, False, " in the warm re-read")
    if "warm" in traced:
        warm = traced["warm"]
        if warm["lookups"] == 0 or warm["hits"] != warm["lookups"]:
            problems.append(
                f"warm re-read hit ratio {warm['hits']}/{warm['lookups']}, expected 1.0"
            )
    return problems
