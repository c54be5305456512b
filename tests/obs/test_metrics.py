"""Unit tests for the metrics registry and Prometheus rendering."""

import pytest

from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("c", kind="x")
        b = registry.counter("c", kind="x")
        assert a is b
        assert registry.counter("c", kind="y") is not a

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.inc(-5)
        assert gauge.value == 7


class TestHistogram:
    def test_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            hist.observe(value)
        samples = dict(hist.samples())
        assert samples['h_bucket{le="1"}'] == 2
        assert samples['h_bucket{le="10"}'] == 3
        assert samples['h_bucket{le="+Inf"}'] == 4
        assert samples["h_sum"] == pytest.approx(106.2)
        assert samples["h_count"] == 4


class TestPrometheusRendering:
    def test_golden_output(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_gc_collections_total", "Collections by kind.", kind="nursery"
        ).inc(3)
        registry.counter(
            "repro_gc_collections_total", "Collections by kind.", kind="full"
        ).inc()
        registry.gauge("repro_os_pool_pages", "Pages per pool.", pool="perfect").set(12)
        hist = registry.histogram("repro_gc_pause_ms", "GC pauses.", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(20.0)
        expected = (
            '# HELP repro_gc_collections_total Collections by kind.\n'
            '# TYPE repro_gc_collections_total counter\n'
            'repro_gc_collections_total{kind="full"} 1\n'
            'repro_gc_collections_total{kind="nursery"} 3\n'
            '# HELP repro_gc_pause_ms GC pauses.\n'
            '# TYPE repro_gc_pause_ms histogram\n'
            'repro_gc_pause_ms_bucket{le="1"} 1\n'
            'repro_gc_pause_ms_bucket{le="10"} 1\n'
            'repro_gc_pause_ms_bucket{le="+Inf"} 2\n'
            'repro_gc_pause_ms_sum 20.5\n'
            'repro_gc_pause_ms_count 2\n'
            '# HELP repro_os_pool_pages Pages per pool.\n'
            '# TYPE repro_os_pool_pages gauge\n'
            'repro_os_pool_pages{pool="perfect"} 12\n'
        )
        assert registry.render_prometheus() == expected

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_to_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        dump = registry.to_dict()
        assert dump["c"][0]["value"] == 2
        assert dump["h"][0]["buckets"] == {"1": 1, "+Inf": 0}
        assert dump["h"][0]["count"] == 1


class TestThreadSafety:
    """Worker threads mutating while scrape threads render."""

    def test_concurrent_increments_are_not_lost(self):
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("repro_stress_total")
        gauge = registry.gauge("repro_stress_gauge")
        hist = registry.histogram("repro_stress_ms", buckets=(1.0, 10.0, 100.0))
        threads_n, iterations = 4, 5000
        start = threading.Barrier(threads_n)

        def writer():
            start.wait()
            for i in range(iterations):
                counter.inc()
                gauge.inc()
                hist.observe(float(i % 200))

        threads = [threading.Thread(target=writer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = threads_n * iterations
        assert counter.value == total
        assert gauge.value == total
        assert hist.count == total
        assert hist.bucket_counts[-1] + sum(hist.bucket_counts[:-1]) == total

    def test_renders_never_observe_torn_state(self):
        import re
        import threading

        registry = MetricsRegistry()
        hist = registry.histogram("repro_torn_ms", buckets=(1.0, 10.0))
        stop = threading.Event()
        problems = []

        def writer():
            value = 0
            while not stop.is_set():
                # Each observation lands in exactly one bucket; in any
                # consistent snapshot +Inf cumulative == _count.
                hist.observe(float(value % 20))
                registry.counter("repro_torn_total").inc()
                value += 1

        def scraper():
            pattern_inf = re.compile(r'repro_torn_ms_bucket\{le="\+Inf"\} (\d+)')
            pattern_count = re.compile(r"repro_torn_ms_count (\d+)")
            while not stop.is_set():
                text = registry.render_prometheus()
                inf = pattern_inf.search(text)
                count = pattern_count.search(text)
                if inf is None or count is None:
                    continue
                if inf.group(1) != count.group(1):
                    problems.append((inf.group(1), count.group(1)))

        writers = [threading.Thread(target=writer) for _ in range(2)]
        scrapers = [threading.Thread(target=scraper) for _ in range(2)]
        for thread in writers + scrapers:
            thread.start()
        import time

        time.sleep(0.5)
        stop.set()
        for thread in writers + scrapers:
            thread.join()
        assert not problems, f"torn renders: {problems[:5]}"

    def test_get_or_create_race_registers_once(self):
        import threading

        registry = MetricsRegistry()
        created = []
        start = threading.Barrier(8)

        def getter():
            start.wait()
            created.append(registry.counter("repro_race_total", worker="w"))

        threads = [threading.Thread(target=getter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(metric) for metric in created}) == 1
        assert len(registry) == 1
