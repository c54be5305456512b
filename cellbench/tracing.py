"""Outside-in span recording for the traced benchmark pass.

Every probe wraps one public entry point of a ``repro`` layer from
here, without touching the package's sources. Probes belong to a
*group* (``<layer>.<what>``); a group's metrics aggregate every method
it wraps.

* Hot probes (per-object paths) are aggregated in memory: per group a
  call count, inclusive time, self time, and "top" time. Top time is
  inclusive time counted only for calls whose caller is not in the
  same group, so nested calls of one layer are not double-counted.
* Coarse probes (cell, collection, grid) additionally keep one record
  per call — id, parent id, pid, start, end — so a cell's collections
  can be read back in order.

Self time is a span's duration minus the time its child spans cover.

Pool workers inherit the probes through ``fork``. After the fork the
child drops the parent's half-finished state, and each time a worker's
outermost span closes it appends what it recorded to its own
``worker-<pid>.jsonl`` file; :func:`merge_worker_files` folds those
into the parent's totals. Writes happen before the worker returns its
result, so nothing is lost when the pool is terminated.

An entry point that no longer exists is listed in
:attr:`SpanRecorder.unavailable` instead of failing the pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (group, module, attribute path, coarse, skip-when-sink-is)
#: Attribute paths are ``Class.method`` or a module-level function.
#: Module-level functions are re-bound in every ``repro`` module that
#: imported them by name.
PROBES: Tuple[Tuple[str, str, str, bool, Optional[str]], ...] = (
    # workloads: one cohort per step; min-heap probing (a LivenessProbe
    # sink) is counted under sim.min_heap instead.
    ("workloads.step", "repro.workloads.driver", "TraceDriver.step", False, "LivenessProbe"),
    # runtime: the VM facade
    ("runtime.alloc", "repro.runtime.vm", "VirtualMachine.alloc", False, None),
    ("runtime.barrier", "repro.runtime.vm", "VirtualMachine.add_ref", False, None),
    ("runtime.barrier", "repro.runtime.vm", "VirtualMachine.add_root", False, None),
    ("runtime.barrier", "repro.runtime.vm", "VirtualMachine.remove_root", False, None),
    ("runtime.barrier", "repro.runtime.vm", "VirtualMachine.mutate", False, None),
    # check: auditor hooks (verify off in every workload)
    ("check.hook", "repro.check.audit", "HeapAuditor.after_alloc", False, None),
    ("check.hook", "repro.check.audit", "HeapAuditor.after_gc", False, None),
    ("check.hook", "repro.check.audit", "HeapAuditor.after_upcall", False, None),
    ("check.hook", "repro.check.audit", "HeapAuditor.final", False, None),
    # collectors: allocation, collection, dynamic failures
    ("collectors.allocate", "repro.collectors.immix", "ImmixCollector.allocate", False, None),
    ("collectors.allocate", "repro.collectors.marksweep", "MarkSweepCollector.allocate", False, None),
    ("collectors.collect", "repro.collectors.immix", "ImmixCollector.collect", True, None),
    ("collectors.collect", "repro.collectors.marksweep", "MarkSweepCollector.collect", True, None),
    ("collectors.nursery", "repro.collectors.immix", "ImmixCollector.collect_nursery", False, None),
    ("collectors.nursery", "repro.collectors.marksweep", "MarkSweepCollector.collect_nursery", False, None),
    ("collectors.full", "repro.collectors.immix", "ImmixCollector.collect_full", False, None),
    ("collectors.full", "repro.collectors.marksweep", "MarkSweepCollector.collect_full", False, None),
    ("collectors.dynamic_failure", "repro.collectors.immix", "ImmixCollector.note_dynamic_failure", False, None),
    # heap: page supply under the block allocator and the LOS
    ("heap.page_supply", "repro.heap.page_supply", "PageSupply.take_block_pages", False, None),
    ("heap.page_supply", "repro.heap.page_supply", "PageSupply.fussy_page", False, None),
    ("heap.page_supply", "repro.heap.page_supply", "PageSupply.fussy_pages", False, None),
    ("heap.page_supply", "repro.heap.page_supply", "PageSupply.release", False, None),
    ("heap.page_supply", "repro.heap.page_supply", "PageSupply.release_all", False, None),
    # hardware + OS: the wearing (dynamic-failure) path
    ("hardware.write", "repro.hardware.pcm", "PcmModule.write", False, None),
    ("osim.service", "repro.osim.memory_manager", "OsMemoryManager.service_failures", False, None),
    ("osim.mmap", "repro.osim.memory_manager", "OsMemoryManager.mmap_imperfect", False, None),
    # faults: failure-map generation and injection (per-cell set-up)
    ("faults.build", "repro.faults.generator", "FailureModel.build", False, None),
    ("faults.injector", "repro.faults.injector", "FaultInjector.__init__", False, None),
    # sim: cells, their set-up, the grid executor and the result cache
    ("sim.cell", "repro.sim.machine", "run_benchmark", True, None),
    ("sim.cell", "repro.sim.machine", "run_wearing_benchmark", True, None),
    ("sim.min_heap", "repro.sim.machine", "min_heap_bytes", False, None),
    ("sim.vm_build", "repro.runtime.vm", "VirtualMachine.__init__", False, None),
    ("sim.grid", "repro.sim.parallel", "run_grid", True, None),
    ("sim.worker_cell", "repro.sim.parallel", "_run_cell", True, None),
    ("sim.cache_get", "repro.sim.cache", "ResultCache.get", False, None),
    ("sim.cache_put", "repro.sim.cache", "ResultCache.put", False, None),
    # obs: the sweep flight recorder
    ("obs.ledger", "repro.obs.ledger", "SweepLedger.emit", False, None),
    ("obs.ledger", "repro.obs.ledger", "worker_emit", False, None),
)

#: Group totals: [calls, inclusive_s, self_s, top_s].
Totals = Dict[str, List[float]]


class SpanRecorder:
    """In-memory span store shared by every installed probe."""

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.main_pid = os.getpid()
        self.totals: Totals = {}
        self.coarse: List[list] = []
        #: Open frames: [child_s, group, coarse_id of the nearest coarse span]
        self._stack: List[list] = []
        self._next_id = 0
        self.installed: List[str] = []
        self.unavailable: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        self.totals = {}
        self.coarse = []
        self._stack = []

    def _flush_worker(self) -> None:
        if not self.totals and not self.coarse:
            return
        record = {"pid": os.getpid(), "totals": self.totals, "coarse": self.coarse}
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        self.totals = {}
        self.coarse = []

    def snapshot(self) -> Totals:
        """A copy of the current totals (marks a phase boundary)."""
        return {group: list(values) for group, values in self.totals.items()}

    # ------------------------------------------------------------------
    def wrap(self, group: str, fn: Callable, coarse: bool, skip_sink: Optional[str]) -> Callable:
        recorder = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if skip_sink is not None and len(args) > 1 and type(args[1]).__name__ == skip_sink:
                return fn(*args, **kwargs)
            stack = recorder._stack
            parent_cid = stack[-1][2] if stack else None
            cid = None
            if coarse:
                recorder._next_id += 1
                cid = recorder._next_id
            frame = [0.0, group, cid or parent_cid]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                duration = end - start
                stack.pop()
                entry = recorder.totals.get(group)
                if entry is None:
                    entry = recorder.totals[group] = [0, 0.0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if not stack or stack[-1][1] != group:
                    entry[3] += duration
                if stack:
                    stack[-1][0] += duration
                if coarse:
                    recorder.coarse.append(
                        [cid, parent_cid, group, os.getpid(), start, end]
                    )
                if not stack and os.getpid() != recorder.main_pid:
                    recorder._flush_worker()

        return probe

    def install(self, probes=PROBES) -> None:
        for group, module_name, path, coarse, skip_sink in probes:
            label = f"{module_name}.{path}"
            try:
                module = importlib.import_module(module_name)
                owner: object = module
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.unavailable.append(label)
                continue
            wrapped = self.wrap(group, original, coarse, skip_sink)
            if owner is module:
                # Re-bind every `from ... import name` copy as well.
                for name, mod in list(sys.modules.items()):
                    if (
                        mod is not None
                        and name.split(".")[0] == "repro"
                        and getattr(mod, parts[-1], None) is original
                    ):
                        self._restore.append((mod, parts[-1], original))
                        setattr(mod, parts[-1], wrapped)
            else:
                self._restore.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapped)
            self.installed.append(label)

    def unavailable_groups(self, probes=PROBES) -> List[str]:
        """Groups none of whose entry points could be wrapped."""
        wrapped = {group for group, module, path, *_ in probes if f"{module}.{path}" in self.installed}
        return sorted({group for group, *_ in probes} - wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def merge_worker_files(self) -> Dict[str, int]:
        """Fold every worker's flushed spans into this process's totals.

        Returns the number of flushed records per worker pid.
        """
        per_pid: Dict[str, int] = {}
        if not os.path.isdir(self.worker_dir):
            return per_pid
        for name in sorted(os.listdir(self.worker_dir)):
            if not name.startswith("worker-"):
                continue
            with open(os.path.join(self.worker_dir, name)) as handle:
                for line in handle:
                    record = json.loads(line)
                    pid = str(record["pid"])
                    per_pid[pid] = per_pid.get(pid, 0) + 1
                    add_totals(self.totals, record["totals"])
                    self.coarse.extend(record["coarse"])
        return per_pid

    def dump(self, path: str) -> None:
        """Write every span (aggregates and coarse records) to ``path``."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "totals": self.totals,
                    # Ids are unique per pid; a parent id refers to the same pid.
                    "coarse_fields": ["id", "parent", "group", "pid", "start", "end"],
                    "coarse": self.coarse,
                    "installed": self.installed,
                    "unavailable": self.unavailable,
                },
                handle,
            )


def add_totals(into: Totals, other: Totals) -> None:
    for group, values in other.items():
        entry = into.setdefault(group, [0, 0.0, 0.0, 0.0])
        for i, value in enumerate(values):
            entry[i] += value


def diff_totals(after: Totals, before: Totals) -> Totals:
    out: Totals = {}
    for group, values in after.items():
        base = before.get(group, [0, 0.0, 0.0, 0.0])
        delta = [a - b for a, b in zip(values, base)]
        if delta[0]:
            out[group] = delta
    return out
