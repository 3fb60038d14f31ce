"""Tests for the always-on metrics registry."""

import json
import time

import numpy as np
import pytest

from repro.core import PipelineOptions, run_pipeline
from repro.core.template import PatternTemplate
from repro.graph.generators import planted_graph
from repro.runtime.metrics import MetricsRegistry

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
LABELS = [1, 2, 3, 4]

def workload(seed=51):
    graph = planted_graph(60, 140, EDGES, LABELS, copies=3, num_labels=5, seed=seed)
    template = PatternTemplate.from_edges(
        EDGES, {i: l for i, l in enumerate(LABELS)}, name="metrics-t"
    )
    return graph, template


class TestInstruments:
    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge_set_overwrites(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(7.0)
        gauge.set(3.0)
        assert gauge.value == 3.0

    def test_histogram_log2_bucket_placement(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        # bucket index is bit_length(int(v)): 0 and sub-1.0 land in 0,
        # then 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...
        for value in (0, 0.5, 1, 2, 3, 4):
            histogram.observe(value)
        buckets = histogram.buckets
        assert buckets[0] == 2
        assert buckets[1] == 1
        assert buckets[2] == 2
        assert buckets[3] == 1
        assert histogram.count == 6
        assert histogram.sum == pytest.approx(10.5)

    def test_histogram_overflow_clamps_to_last_bucket(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(2.0 ** 60)
        assert histogram.buckets[-1] == 1

    def test_handles_are_cached_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("x") is registry.gauge("x")
        assert registry.histogram("x") is registry.histogram("x")


class TestRegistry:
    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(1)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["counters"] == {"c": 1.0}
        assert snapshot["gauges"] == {"g": 2.0}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_window_holds_the_counters_that_moved(self):
        registry = MetricsRegistry()
        registry.counter("before").inc(4)
        registry.counter("still").inc(1)
        mark = registry.mark()
        registry.counter("before").inc(3)
        registry.counter("new").inc(2)
        registry.gauge("g").set(5)
        assert registry.since(mark) == {"before": 3.0, "new": 2.0}
        assert registry.since(registry.mark()) == {}

class _Inert:
    """A registry whose every instrument does nothing: the no-metrics
    baseline of the overhead budget."""

    def inc(self, _amount=1.0):
        pass

    set = observe = inc

    def counter(self, _name):
        return self

    gauge = histogram = counter


@pytest.mark.microbench
class TestOverheadBudget:
    def test_enabled_registry_within_two_percent_of_disabled(self):
        """The design contract: always-on metrics add <2% to the fixpoint.

        Best-of-N wall times on the KERNEL-STRESS shape; the small
        absolute epsilon absorbs scheduler jitter on runs this short.
        """
        from repro.core.arraystate import ArraySearchState, array_kernel_fixpoint
        from repro.core.kernels import cached_kernel
        from repro.graph.generators.random_labeled import gnm_graph
        from repro.runtime.engine import Engine
        from repro.runtime.messages import MessageStats
        from repro.runtime.partition import PartitionedGraph

        graph = gnm_graph(8000, 26000, num_labels=4, seed=7)
        labels = {v: v % 4 for v in range(8)}
        template = PatternTemplate.from_edges(
            [(v, v + 1) for v in range(7)], labels, name="overhead-path8"
        )
        kernel = cached_kernel(template.graph)

        def best_of(metrics, repeats=3):
            best = float("inf")
            for _ in range(repeats):
                astate = ArraySearchState.initial(graph, template)
                engine = Engine(
                    PartitionedGraph(graph, 2), MessageStats(2), metrics=metrics
                )
                started = time.perf_counter()
                array_kernel_fixpoint(astate, kernel, engine)
                best = min(best, time.perf_counter() - started)
            return best

        best_of(_Inert(), repeats=1)  # warm numpy/kernel caches
        disabled = best_of(_Inert())
        enabled = best_of(MetricsRegistry())
        assert enabled <= disabled * 1.02 + 0.010


class TestAlwaysOnDefaults:
    def test_pipeline_populates_metrics_by_default(self):
        graph, template = workload(seed=54)
        options = PipelineOptions(num_ranks=2)
        result = run_pipeline(graph, template, 1, options)
        counters = dict(options.metrics.counters())
        assert counters["engine.rounds_batched"] > 0
        assert counters["fixpoint.rounds_dense"] >= 1
        assert result.metrics is options.metrics
        assert "metrics" in result.stats_document()

    def test_numpy_values_stay_plain_floats(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(np.float64(2.0))
        snapshot = registry.snapshot()
        assert type(snapshot["counters"]["c"]) is float
