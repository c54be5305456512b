"""The driver's inlined size sampling is exactly ``randint``.

:class:`~repro.workloads.driver.TraceDriver` draws payload sizes with
``getrandbits`` rejection instead of calling
:meth:`SizeBand.sample` / :meth:`WorkloadSpec.sample_size`. Those two
stay as the readable reference: every draw the driver makes must equal
what they return on a twin generator, or every golden result moves.
The pinned digest below catches a change in either the driver or the
standard library's ``randint`` (CI runs it on more than one Python).
"""

import dataclasses
import hashlib
import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heap.object_model import aligned_size
from repro.units import KiB
from repro.workloads.dacapo import workload
from repro.workloads.driver import TraceDriver
from repro.workloads.spec import SizeBand, WorkloadSpec


class RecordingSink:
    """Records every mutator event; objects are their allocation index."""

    def __init__(self) -> None:
        self.events = []

    def alloc(self, size, pinned=False):
        self.events.append(("alloc", size, pinned))
        return len(self.events) - 1

    def add_root(self, obj):
        self.events.append(("add_root", obj))

    def remove_root(self, obj):
        self.events.append(("remove_root", obj))

    def add_ref(self, parent, child):
        self.events.append(("add_ref", parent, child))

    def mutate(self, obj):
        self.events.append(("mutate", obj))


def reference_events(spec: WorkloadSpec, seed: int):
    """The driver's event stream built from the reference samplers.

    A plain re-statement of :meth:`TraceDriver.step` that draws through
    ``SizeBand.sample`` / ``WorkloadSpec.sample_size`` (``randint``) on
    a generator seeded exactly as the driver seeds its own.
    """
    driver = TraceDriver(spec, seed)
    rng = driver.begin().rng
    sink = RecordingSink()
    immortal = 0
    while immortal < spec.immortal_bytes:
        size = spec.small.sample(rng)
        head = sink.alloc(size)
        sink.add_root(head)
        immortal += aligned_size(size)
        for _ in range(spec.cohort_size - 1):
            if immortal >= spec.immortal_bytes:
                break
            size = spec.sample_size(rng)
            sink.add_ref(head, sink.alloc(size))
            immortal += aligned_size(size)
    clock = immortal
    pending = []
    sequence = 0
    budget = 0.0
    while clock < spec.total_alloc_bytes:
        while pending and pending[0][0] <= clock:
            sink.remove_root(heapq.heappop(pending)[2])
        size = spec.small.sample(rng)
        head = sink.alloc(size)
        sink.add_root(head)
        clock += aligned_size(size)
        heapq.heappush(pending, (clock + spec.sample_lifetime(rng), sequence, head))
        sequence += 1
        for _ in range(spec.cohort_size - 1):
            pinned = rng.random() < spec.pinned_fraction
            size = spec.sample_size(rng)
            child = sink.alloc(size, pinned=pinned)
            sink.add_ref(head, child)
            clock += aligned_size(size)
            if spec.mutations_per_object > 0:
                budget += spec.mutations_per_object
                while budget >= 1.0:
                    sink.mutate(child)
                    budget -= 1.0
            if clock >= spec.total_alloc_bytes:
                break
    return sink.events


def driver_events(spec: WorkloadSpec, seed: int):
    sink = RecordingSink()
    TraceDriver(spec, seed).run(sink)
    return sink.events


def stream_digest(events) -> str:
    return hashlib.sha256(repr(events).encode()).hexdigest()


#: Three DaCapo shapes at scale 0.05: small-object heavy, medium-object
#: heavy, and a large-object mix with stores and pinning switched on.
PINNED_SPECS = (
    workload("lusearch-fix").scaled(0.05),
    workload("pmd").scaled(0.05),
    dataclasses.replace(
        workload("xalan").scaled(0.05), mutations_per_object=0.6, pinned_fraction=0.05
    ),
)

#: sha256 of the concatenated event streams of PINNED_SPECS at seeds
#: 0 and 1009, as produced by ``randint``-based sampling.
PINNED_STREAM_SHA256 = "015f08b44261bcc1f8ef1ab2bc0b1481741ac0865b3890385241e3c347aaa974"


class TestEventStreamPin:
    def test_pinned_stream_digest(self):
        events = []
        for spec in PINNED_SPECS:
            for seed in (0, 1009):
                events.extend(driver_events(spec, seed))
        assert any(e[0] == "mutate" for e in events)
        assert any(e[0] == "alloc" and e[2] for e in events)
        assert stream_digest(events) == PINNED_STREAM_SHA256


band = st.tuples(st.integers(1, 50_000), st.integers(0, 70_000)).map(
    lambda lo_span: SizeBand(lo_span[0], lo_span[0] + lo_span[1])
)
weight = st.one_of(st.just(0.0), st.floats(0.001, 10.0))


class TestInlinedDrawsMatchRandint:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        small=band,
        medium=band,
        large=band,
        weights=st.tuples(weight, weight, weight).filter(lambda w: sum(w) > 0),
        cohort=st.integers(1, 30),
        mutations=st.sampled_from([0.0, 0.3, 1.5]),
        pinned=st.sampled_from([0.0, 0.2]),
    )
    def test_driver_equals_reference(
        self, seed, small, medium, large, weights, cohort, mutations, pinned
    ):
        spec = WorkloadSpec(
            name="sampler-prop",
            description="hypothesis spec",
            total_alloc_bytes=96 * KiB,
            immortal_bytes=16 * KiB,
            short_lifetime_bytes=8 * KiB,
            long_lifetime_bytes=32 * KiB,
            long_fraction=0.2,
            size_weights=weights,
            cohort_size=cohort,
            pinned_fraction=pinned,
            mutations_per_object=mutations,
            small=small,
            medium=medium,
            large=large,
        )
        assert driver_events(spec, seed) == reference_events(spec, seed)
