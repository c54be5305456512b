"""Tests for machine snapshots (sim/snapshot.py).

The contract under test is the tentpole one: a run checkpointed at an
arbitrary step boundary and resumed from the snapshot file produces a
``RunResult`` whose serialized form is **bit-identical** to an
uninterrupted run's.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotError
from repro.faults.generator import FailureModel
from repro.sim.cache import result_to_dict
from repro.sim.lifetime import run_lifetime, write_heavy
from repro.sim.machine import RunConfig, resume_benchmark, run_benchmark
from repro.sim.snapshot import (
    SNAPSHOT_MAGIC,
    CheckpointPolicy,
    MachineSnapshot,
    machine_digest,
)
from repro.workloads.dacapo import workload


def tiny_config(seed=0, rate=0.10, collector="sticky-immix"):
    return RunConfig(
        workload="luindex",
        scale=0.05,
        seed=seed,
        collector=collector,
        failure_model=FailureModel(rate=rate),
    )


def canonical(result):
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestEnvelope:
    def test_bytes_round_trip(self):
        snapshot = MachineSnapshot.capture({"answer": 42}, kind="bench",
                                           meta={"step": 7})
        clone = MachineSnapshot.from_bytes(snapshot.to_bytes())
        assert clone.kind == "bench"
        assert clone.meta == {"step": 7}
        assert clone.restore() == {"answer": 42}

    def test_file_round_trip_is_atomic(self, tmp_path):
        path = tmp_path / "nested" / "state.snap"
        MachineSnapshot.capture([1, 2, 3], kind="lifetime").save(str(path))
        assert MachineSnapshot.load(str(path)).restore() == [1, 2, 3]
        leftovers = [
            name for name in os.listdir(path.parent) if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError):
            MachineSnapshot.from_bytes(b"NOTASNAP" + b"\0" * 64)

    def test_truncation_rejected(self):
        blob = MachineSnapshot.capture("payload").to_bytes()
        with pytest.raises(SnapshotError):
            MachineSnapshot.from_bytes(blob[: len(blob) - 3])
        with pytest.raises(SnapshotError):
            MachineSnapshot.from_bytes(blob[: len(SNAPSHOT_MAGIC) + 1])

    def test_corruption_rejected(self):
        blob = bytearray(MachineSnapshot.capture("payload").to_bytes())
        blob[-1] ^= 0xFF
        with pytest.raises(SnapshotError):
            MachineSnapshot.from_bytes(bytes(blob))

    def test_fingerprint_gates_restore(self):
        snapshot = MachineSnapshot.capture("payload")
        snapshot.fingerprint = "stale"
        with pytest.raises(SnapshotError):
            snapshot.restore()
        assert snapshot.restore(check_fingerprint=False) == "payload"

    def test_missing_file_is_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            MachineSnapshot.load(str(tmp_path / "absent.snap"))


class TestCapturePurity:
    def test_capture_leaves_machine_unchanged(self):
        from repro.runtime.vm import VirtualMachine, VmConfig
        from repro.sim.machine import min_heap_bytes
        from repro.workloads.driver import TraceDriver

        config = tiny_config()
        heap = int(min_heap_bytes(config) * config.heap_multiplier)
        vm = VirtualMachine(
            VmConfig(
                heap_bytes=heap,
                failure_model=config.failure_model,
                seed=config.seed,
            )
        )
        driver = TraceDriver(config.spec(), config.seed)
        driver.begin()
        for _ in range(3):
            driver.step(vm)
        before = machine_digest(vm)
        MachineSnapshot.capture((vm, driver), kind="bench")
        assert machine_digest(vm) == before


def mid_run_machine(seed=0, rate=0.10, steps=5):
    from repro.runtime.vm import VirtualMachine, VmConfig
    from repro.sim.machine import min_heap_bytes
    from repro.workloads.driver import TraceDriver

    config = tiny_config(seed=seed, rate=rate)
    heap = int(min_heap_bytes(config) * config.heap_multiplier)
    vm = VirtualMachine(
        VmConfig(
            heap_bytes=heap,
            failure_model=config.failure_model,
            seed=config.seed,
        )
    )
    driver = TraceDriver(config.spec(), config.seed)
    driver.begin()
    for _ in range(steps):
        driver.step(vm)
    return vm, driver


class TestSoaHeapState:
    """The whole-heap SoA arrays through capture/digest/restore."""

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2),
        rate=st.sampled_from([0.0, 0.25]),
        steps=st.integers(min_value=2, max_value=7),
    )
    def test_restore_preserves_heap_table_exactly(self, seed, rate, steps):
        vm, driver = mid_run_machine(seed=seed, rate=rate, steps=steps)
        snapshot = MachineSnapshot.capture((vm, driver), kind="bench")
        restored_vm, _ = snapshot.restore()
        table = vm.collector.table
        clone = restored_vm.collector.table
        assert bytes(clone.lines) == bytes(table.lines)
        assert bytes(clone.fail_marks) == bytes(table.fail_marks)
        assert clone.active_slots() == table.active_slots()
        assert clone._free_slots == table._free_slots
        assert machine_digest(restored_vm) == machine_digest(vm)

    def test_restore_resolders_segment_sharing(self):
        # Pickle must keep every block's view aimed at the one shared
        # table — a copy per block would silently fork the heap state.
        vm, _ = mid_run_machine()
        restored_vm, _ = MachineSnapshot.capture((vm, None)).restore()
        table = restored_vm.collector.table
        for block in restored_vm.collector.blocks:
            assert block.table is table
            assert block.line_states.table is table
            assert table.owners[block.slot] is block

    def test_digest_covers_soa_arrays(self):
        vm, _ = mid_run_machine()
        table = vm.collector.table
        before = machine_digest(vm)
        slot = table.active_slots()[0]
        base = table.base(slot)
        original = table.lines[base]
        table.lines[base] = (original + 1) % 4
        table.touch()
        try:
            assert machine_digest(vm) != before
        finally:
            table.lines[base] = original
            table.touch()
        assert machine_digest(vm) == before


class TestDeepReferenceChains:
    def test_long_chain_round_trips_under_default_recursion_limit(self):
        # Each object references the next: a serializer whose depth
        # follows reference chains needs 100x the default recursion
        # limit for this heap.
        from repro.runtime.vm import VirtualMachine, VmConfig

        length = 100_000
        vm = VirtualMachine(VmConfig(heap_bytes=8 << 20))
        head = tail = vm.alloc(8)
        vm.add_root(head)
        for _ in range(length - 1):
            obj = vm.alloc(8)
            vm.add_ref(tail, obj)
            tail = obj

        restored_vm, _ = MachineSnapshot.capture((vm, None)).restore()

        (obj,) = restored_vm.roots()
        oids = [obj.oid]
        while obj.refs:
            (obj,) = obj.refs
            oids.append(obj.oid)
        assert oids == list(range(head.oid, head.oid + length))
        assert obj in obj.block.objects
        assert obj.block in restored_vm.collector.blocks
        assert machine_digest(restored_vm) == machine_digest(vm)


class TestResumeBitIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        every=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2),
        rate=st.sampled_from([0.0, 0.10, 0.25]),
    )
    def test_bench_resume_identical(self, tmp_path_factory, every, seed, rate):
        # tmp_path is function-scoped and hypothesis reuses the test
        # function across examples, so mint a fresh directory per draw.
        snap = str(tmp_path_factory.mktemp("snap") / "ck.snap")
        config = tiny_config(seed=seed, rate=rate)
        clean = run_benchmark(config)
        policy = CheckpointPolicy(snap, every_steps=every)
        checkpointed = run_benchmark(config, checkpoint=policy)
        assert canonical(checkpointed) == canonical(clean)
        assert policy.emitted > 0
        resumed = resume_benchmark(snap)
        assert canonical(resumed) == canonical(clean)

    def test_marksweep_resume_identical(self, tmp_path):
        snap = str(tmp_path / "ck.snap")
        config = tiny_config(collector="sticky-marksweep")
        clean = run_benchmark(config)
        run_benchmark(config, checkpoint=CheckpointPolicy(snap, every_steps=3))
        assert canonical(resume_benchmark(snap)) == canonical(clean)

    def test_bench_snapshot_kind_checked(self, tmp_path):
        snap = str(tmp_path / "wrong.snap")
        MachineSnapshot.capture("not a machine", kind="lifetime").save(snap)
        with pytest.raises(SnapshotError):
            resume_benchmark(snap)

    def test_lifetime_resume_identical(self, tmp_path):
        snap = str(tmp_path / "life.snap")
        spec = write_heavy(workload("luindex"), mutations_per_object=2.0)
        import dataclasses

        spec = dataclasses.replace(spec, total_alloc_bytes=300_000)
        kwargs = dict(endurance_mean_writes=30.0, max_iterations=6, seed=0)
        clean = run_lifetime(spec, **kwargs)
        checkpointed = run_lifetime(
            spec, checkpoint=CheckpointPolicy(snap, every_steps=2), **kwargs
        )
        resumed = run_lifetime(spec, resume_from=snap, **kwargs)
        for other in (checkpointed, resumed):
            assert other.iterations_completed == clean.iterations_completed
            assert other.final_failed_fraction == clean.final_failed_fraction
            assert [r.__dict__ for r in other.records] == \
                [r.__dict__ for r in clean.records]

    def test_lifetime_rejects_bench_snapshot(self, tmp_path):
        snap = str(tmp_path / "bench.snap")
        MachineSnapshot.capture("whatever", kind="bench").save(snap)
        spec = write_heavy(workload("luindex"), mutations_per_object=2.0)
        with pytest.raises(SnapshotError):
            run_lifetime(spec, resume_from=snap)
