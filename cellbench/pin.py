"""Pin the benchmark's expected results and regenerate BENCHMARK.json.

Usage, from the repository root::

    python3 cellbench/pin.py --seeds 0 1 2 --held-out 1009

For every workload and seed this runs one untraced and one traced pass,
requires them to agree, and records in ``cellbench/pins.json`` each
cell's ``RunResult`` digest plus every count-type per-layer metric.
Before pinning it re-runs the repository's golden ``RunResult`` dumps
(``tests/golden/*.json``, ``ci/golden/policy_default_results.json``,
read-only) and requires the benchmark's digest of each fresh run to
equal the digest of the stored result; a benchmark cell with the same
configuration as a golden dump must pin that dump's digest. ``--benchmark-json`` only rewrites
``BENCHMARK.json`` from ``cellbench/spec.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import run as bench

GOLDEN_FILES = ("tests/golden/*.json", "ci/golden/policy_default_results.json")
RUN_SECONDS = 28


def benchmark_json(spec: dict) -> dict:
    return {
        "command": ["python3", "cellbench/run.py"],
        "paths": ["cellbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": meta["why"]} for name, meta in spec["workloads"].items()
        ],
        "end_to_end": [
            {"name": name, "unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for name, m in spec["end_to_end"].items()
        ],
        "per_layer": [
            {"name": name, "unit": m["unit"], "better": m["better"]}
            for name, m in spec["per_layer"].items()
        ],
    }


def check_goldens(seeds) -> dict:
    """Fresh runs of the golden configs must digest like the stored dumps.

    Returns ``{(workload, seed, cell id): golden digest}`` for golden
    configs that are also benchmark cells, for :func:`pin` to compare.
    """
    sys.path.insert(0, os.path.join(bench.ROOT, "src"))
    sys.path.insert(0, bench.HERE)
    import workloads as wl
    from repro.sim.cache import result_from_dict
    from repro.sim.machine import run_benchmark

    bench_cells = {
        config: (workload, seed)
        for workload in bench.WORKLOADS
        for seed in seeds
        for config in wl.cells(workload, seed)
    }
    paths = []
    for pattern in GOLDEN_FILES:
        paths.extend(sorted(glob.glob(os.path.join(bench.ROOT, pattern))))
    checked = 0
    overlap = {}
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        for entry in data if isinstance(data, list) else [data]:
            stored = result_from_dict(entry)
            fresh = run_benchmark(stored.config)
            if wl.result_digest(fresh) != wl.result_digest(stored):
                raise SystemExit(f"golden mismatch: {path} {wl.cell_id(stored.config)}")
            if stored.config in bench_cells:
                workload, seed = bench_cells[stored.config]
                overlap[(workload, seed, wl.cell_id(stored.config))] = wl.result_digest(stored)
            checked += 1
    print(f"goldens: {checked} stored results reproduced; {len(overlap)} coincide with benchmark cells")
    return overlap


def pin(workload: str, seed: int, spec: dict, goldens: dict) -> dict:
    work = os.path.join(bench.WORK_ROOT, f"pin-{os.getpid()}")
    plain = bench.run_pass(workload, seed, "plain", os.path.join(work, "p"), 600)
    traced = bench.run_pass(workload, seed, "traced", os.path.join(work, "t"), 600)
    reference = bench.digests(plain)
    bad = bench.failed_cells(plain, reference, "itself") + bench.failed_cells(
        traced, reference, "the untraced pass"
    )
    from layers import per_layer, self_checks

    bad += self_checks(traced, spec["workloads"][workload])
    bad += [
        f"{cid}: differs from its golden dump"
        for (w, s, cid), digest in goldens.items()
        if (w, s) == (workload, seed) and reference.get(cid) != digest
    ]
    if bad:
        raise SystemExit(f"{workload} seed {seed}: " + "; ".join(bad))
    counts = bench.count_metrics(per_layer(traced, plain), spec)
    dnf = [cell["id"] for cell in plain["cells"] if not cell["completed"]]
    print(f"{workload} seed {seed}: {len(reference)} cells, DNF {dnf or '-'}", flush=True)
    return {"cells": reference, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--workloads", nargs="+", default=list(bench.WORKLOADS))
    parser.add_argument("--out", default=os.path.join(bench.HERE, "pins.json"))
    parser.add_argument("--benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    spec = bench.load_json("spec.json")
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), "w") as handle:
        json.dump(benchmark_json(spec), handle, indent=2)
        handle.write("\n")
    if args.benchmark_json:
        return 0
    seeds = list(args.seeds) + ([args.held_out] if args.held_out is not None else [])
    goldens = check_goldens(seeds)
    pins = {"workloads": {}}
    if os.path.isfile(args.out):
        with open(args.out) as handle:
            pins = json.load(handle)
    for workload in args.workloads:
        for seed in seeds:
            pins["workloads"].setdefault(workload, {})[str(seed)] = pin(workload, seed, spec, goldens)
    with open(args.out, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
