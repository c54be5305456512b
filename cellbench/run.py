"""cellbench: host-cost benchmark of the repro simulator.

Usage, from the repository root::

    python3 cellbench/run.py --workload alloc-heavy --seed 0 --seconds 20 --trace 0

Workloads: alloc-heavy, fault-heavy, wearing, sweep-grid (see
``cellbench/spec.json`` for why each exists and what every metric
means).

``--trace 0`` repeats untraced passes while they fit in ``--seconds``
and reports the end-to-end metrics as medians over passes, with
quartiles and the pass count on the lines before the result. Host
times are scaled to reference host speed (``hostspeed.py``).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one. Every pass is a fresh interpreter
(``passes.py``), so each pays the same set-up and its counts repeat.

Correctness: every cell's ``RunResult`` digest must match
``cellbench/pins.json`` when the seed is pinned; otherwise every pass
(and the traced pass) must reproduce the first pass's results. Span and
simulator counts of a traced pass must match the pinned counts. A
mismatch, an exception or a quarantined cell counts as a failed cell;
any failure or failed self-check exits 1. The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space inside the checkout. Pass directories are removed when
#: the run ends; a traced run leaves its spans file here.
WORK_ROOT = os.path.join(ROOT, ".bench_build", "cellbench")
#: A run must end within this many seconds.
RUN_BUDGET_S = 170.0
WORKLOADS = ("alloc-heavy", "fault-heavy", "wearing", "sweep-grid")


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name)) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str, work_dir: str, timeout_s: float) -> dict:
    """Run one pass in a fresh interpreter and return its JSON document."""
    if os.path.isdir(work_dir):
        shutil.rmtree(work_dir)
    os.makedirs(work_dir)
    out = os.path.join(work_dir, "pass.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = work_dir
    env.pop("REPRO_VERIFY", None)
    command = [
        sys.executable, os.path.join(HERE, "passes.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--spawn-t", repr(time.time()), "--work-dir", work_dir, "--out", out,
    ]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Reap the whole session: pool workers included.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise PassError(f"{mode} pass exceeded {timeout_s:.0f} s")
    if code != 0 or not os.path.isfile(out):
        raise PassError(f"{mode} pass exited with code {code}")
    with open(out) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def digests(doc: dict) -> Dict[str, Optional[str]]:
    return {cell["id"]: cell["digest"] for cell in doc["cells"]}


def failed_cells(doc: dict, reference: Dict[str, Optional[str]], label: str) -> List[str]:
    """Cells of ``doc`` that raised or differ from ``reference``."""
    bad = []
    for cell in doc["cells"]:
        if cell["error"] is not None:
            bad.append(f"{cell['id']}: raised {cell['error']}")
        elif reference.get(cell["id"]) != cell["digest"]:
            bad.append(f"{cell['id']}: result differs from {label}")
    missing = set(reference) - {cell["id"] for cell in doc["cells"]}
    bad.extend(f"{cid}: missing" for cid in sorted(missing))
    sweep = doc.get("sweep") or {}
    bad.extend(["quarantined cell"] * int(sweep.get("quarantined", 0)))
    warm = doc.get("warm") or {}
    bad.extend(f"{cid}: warm re-read differs" for cid in warm.get("mismatched", []))
    return bad


def count_metrics(metrics: Dict[str, float], spec: dict) -> Dict[str, float]:
    kinds = ("count", "ratio", "simulated")
    return {
        name: value
        for name, value in metrics.items()
        if spec["per_layer"][name]["kind"] in kinds
    }


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    spec = load_json("spec.json")
    pinned = load_json("pins.json") if os.path.isfile(os.path.join(HERE, "pins.json")) else {}
    pins = pinned.get("workloads", {}).get(args.workload, {}).get(str(args.seed))
    design = spec["workloads"][args.workload]
    started = time.monotonic()
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    passes: List[dict] = []
    traced: Optional[dict] = None
    failures: List[str] = []
    problems: List[str] = []
    attempted = 0
    try:
        while True:
            pass_start = time.monotonic()
            passes.append(run_pass(args.workload, args.seed, "plain", os.path.join(work, "p"), remaining()))
            now = time.monotonic()
            # Start another pass only if it should end within --seconds.
            if args.trace or now + (now - pass_start) - started > args.seconds:
                break
        if args.trace:
            traced = run_pass(args.workload, args.seed, "traced", os.path.join(work, "t"), remaining())
            kept = os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
            shutil.copyfile(os.path.join(work, "t", "spans.json"), kept)
            print(f"spans written to {os.path.relpath(kept, ROOT)}")
    except PassError as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # -- correctness ---------------------------------------------------
    if pins is not None:
        reference, label = pins["cells"], f"the pinned result (seed {args.seed})"
        print(f"correctness: {len(reference)} cells pinned at seed {args.seed}")
    elif passes:
        reference, label = digests(passes[0]), "the first pass"
        print(
            f"correctness: seed {args.seed} is not pinned; checking that every pass"
            " and the traced pass reproduce the first pass's results"
        )
    else:
        reference, label = {}, "nothing"
    for doc in passes + ([traced] if traced else []):
        attempted += len(doc["cells"])
        failures.extend(failed_cells(doc, reference, label))
    if args.workload == "sweep-grid":
        for doc in passes + ([traced] if traced else []):
            if doc["sweep"]["gap_pp"] == float("inf"):
                problems.append("a headline anchor row did not finish")

    metrics: Dict[str, dict] = {}
    if traced is not None and passes:
        from layers import cell_shares, per_layer, self_checks

        values = per_layer(traced, passes[0])
        problems.extend(self_checks(traced, design))
        for label_ in traced["trace"]["unavailable"]:
            print(f"probe unavailable: {label_}")
        unavailable = {name for name, value in values.items() if value != value}
        for name in sorted(unavailable):
            print(f"metric unavailable (reported as 0): {name}")
            values[name] = 0
        counts = count_metrics(values, spec)
        if pins is not None:
            for name, expected in pins["counts"].items():
                if name not in unavailable and counts.get(name) != expected:
                    problems.append(f"{name} = {counts.get(name)}, pinned {expected}")
        print(f"traced pass: {traced['trace']['coarse_spans']} coarse spans, workers {traced['trace']['workers'] or '-'}")
        shares = cell_shares(traced, values)
        print("share of cell time: " + ", ".join(f"{k} {v:.0%}" for k, v in shares.items()))
        for name, meta in spec["per_layer"].items():
            print(f"  {name:36s} {values[name]:>16.6g} {meta['unit']:6s} [{meta['kind']}]")
            metrics[name] = {"value": values[name], "unit": meta["unit"]}
    elif passes:
        series = {
            "setup_s": [p["setup_ref_s"] for p in passes],
            "wall_s": [p["wall_ref_s"] for p in passes],
            "us_per_object": [1e6 * p["cpu_ref_s"] / max(1, p["stats"]["objects_allocated"]) for p in passes],
            "cells_per_s": [len(p["cells"]) / p["wall_ref_s"] for p in passes],
            "peak_rss_mib": [p["rss_mib"] for p in passes],
        }
        slowdowns = [p["slowdown"] for p in passes]
        print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {len(passes[0]['cells'])} cells each")
        print(
            f"  host slowdown vs reference: median {statistics.median(slowdowns):.3f}"
            f" range {min(slowdowns):.3f}-{max(slowdowns):.3f}; host times below are at reference speed"
        )
        for name, meta in spec["end_to_end"].items():
            q1, med, q3 = quartiles(series[name])
            print(
                f"  {name:14s} median {med:10.4f} {meta['unit']:5s}"
                f" q1 {q1:10.4f} q3 {q3:10.4f} n={len(series[name])}"
            )
            metrics[name] = {"value": med, "unit": meta["unit"]}
        raw_wall = statistics.median(p["wall_s"] for p in passes)
        print(f"  raw wall_s median {raw_wall:.4f} s (unscaled)")
        if args.workload == "sweep-grid":
            print(f"  headline_gap_pp {passes[0]['sweep']['gap_pp']:.4f} (simulated)")
            warm = [len(p["cells"]) / p["warm"]["wall_s"] for p in passes]
            print(f"  warm_cells_per_s median {statistics.median(warm):.1f} 1/s n={len(warm)}")

    for line in failures:
        print(f"FAILED {line}")
    for line in problems:
        print(f"CHECK {line}")
    attempted = max(attempted, 1)
    print(f"fail_frac {len(failures) / attempted:.4f} ({len(failures)}/{attempted} cells)")
    correct = not failures and not problems and bool(metrics)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
