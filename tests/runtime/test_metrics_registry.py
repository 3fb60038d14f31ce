"""Tests for the always-on metrics registry and its adaptive consumers."""

import json
import pickle
import time

import numpy as np
import pytest

from repro.core import PipelineOptions, run_pipeline
from repro.core.template import PatternTemplate
from repro.graph.generators import planted_graph
from repro.runtime.metrics import (
    COST_EWMA_ALPHA,
    COST_RESOLUTION_ROWS,
    NULL_METRICS,
    ConstraintCostModel,
    MetricsRegistry,
    NullMetricsRegistry,
)

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
LABELS = [1, 2, 3, 4]

#: worker-local by construction: the parent process compiles kernels and
#: prototype caches the workers never see (and vice versa), and pool
#: busy/idle seconds only exist in pooled runs
_PARITY_EXCLUDED_PREFIXES = ("pool.", "cache.kernel", "cache.prototype")


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
    def test_untouched_registry_exports_empty(self):
        assert MetricsRegistry().export() == {}

    def test_export_merge_round_trip_is_additive(self):
        source = MetricsRegistry()
        source.counter("c").inc(3)
        source.gauge("g").set(5.0)
        source.histogram("h").observe(4)
        payload = source.export()

        target = MetricsRegistry()
        target.counter("c").inc(1)
        target.merge(payload)
        target.merge(payload)
        assert target.counter("c").value == 7.0
        assert target.gauge("g").value == 10.0  # worker gauges sum
        assert target.histogram("h").count == 2
        assert target.histogram("h").buckets[3] == 2

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(1)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["counters"] == {"c": 1.0}
        assert snapshot["gauges"] == {"g": 2.0}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_registry_pickles_empty(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.export() == {}
        clone.counter("c").inc()  # still usable
        assert clone.counter("c").value == 1.0

    def test_null_registry_is_inert(self):
        assert NULL_METRICS.enabled is False
        assert isinstance(NULL_METRICS, NullMetricsRegistry)
        NULL_METRICS.counter("c").inc()
        NULL_METRICS.gauge("g").set(1.0)
        NULL_METRICS.histogram("h").observe(1.0)
        assert NULL_METRICS.export() == {}
        assert NULL_METRICS.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestConstraintCostModel:
    def test_first_sample_taken_verbatim(self):
        model = ConstraintCostModel()
        model.observe("k", 1000)
        assert model.rows("k") == 1000

    def test_ewma_update(self):
        model = ConstraintCostModel()
        model.observe("k", 1000)
        model.observe("k", 2000)
        expected = (1.0 - COST_EWMA_ALPHA) * 1000 + COST_EWMA_ALPHA * 2000
        assert model.rows("k") == pytest.approx(expected)

    def test_bucket_zero_for_unseen_and_sub_resolution(self):
        model = ConstraintCostModel()
        assert model.bucket("missing") == 0
        model.observe("fast", COST_RESOLUTION_ROWS // 5)
        assert model.bucket("fast") == 0
        model.observe("dict walk", 0)  # the dict walk reports no rows
        assert model.bucket("dict walk") == 0

    def test_buckets_separate_clearly_different_costs(self):
        model = ConstraintCostModel()
        model.observe("cheap", 4 * COST_RESOLUTION_ROWS)
        model.observe("pricey", 160 * COST_RESOLUTION_ROWS)
        assert 0 < model.bucket("cheap") < model.bucket("pricey")

    def test_pickles_empty(self):
        model = ConstraintCostModel()
        model.observe("k", 1.0)
        clone = pickle.loads(pickle.dumps(model))
        assert len(clone) == 0
        assert len(model) == 1


class TestCrossProcessParity:
    def test_pooled_counters_match_sequential_bit_exactly(self):
        graph, template = workload()
        options = dict(
            num_ranks=2, count_matches=True, work_recycling=False,
            enumeration_optimization=False, adaptive=False,
        )
        seq_options = PipelineOptions(**options)
        sequential = run_pipeline(graph, template, 1, seq_options)
        pooled_options = PipelineOptions(worker_processes=3, **options)
        pooled = run_pipeline(graph, template, 1, pooled_options)
        assert pooled.match_vectors == sequential.match_vectors

        def comparable(registry):
            return {
                name: value
                for name, value in registry.counters()
                if not name.startswith(_PARITY_EXCLUDED_PREFIXES)
            }

        seq_counters = comparable(seq_options.metrics)
        pooled_counters = comparable(pooled_options.metrics)
        assert pooled_counters == seq_counters
        # the default array paths drive batched rounds, not traversals
        assert seq_counters["engine.rounds_batched"] > 0
        assert seq_counters["fixpoint.rounds_dense"] > 0

    def test_pooled_run_reports_pool_accounting(self):
        graph, template = workload(seed=52)
        options = PipelineOptions(num_ranks=2, worker_processes=2)
        run_pipeline(graph, template, 1, options)
        counters = dict(options.metrics.counters())
        assert counters["pool.busy_seconds"] > 0
        assert counters["pool.idle_seconds"] >= 0
        assert dict(options.metrics.gauges())["shm.segment_bytes"] > 0

    def test_pooled_adaptive_matches_sequential(self):
        graph, template = workload(seed=53)
        sequential = run_pipeline(
            graph, template, 1,
            PipelineOptions(num_ranks=2, count_matches=True, adaptive=True),
        )
        pooled = run_pipeline(
            graph, template, 1,
            PipelineOptions(
                num_ranks=2, count_matches=True, adaptive=True,
                worker_processes=2,
            ),
        )
        assert pooled.match_vectors == sequential.match_vectors


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

        best_of(NULL_METRICS, repeats=1)  # warm numpy/kernel caches
        disabled = best_of(NULL_METRICS)
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
