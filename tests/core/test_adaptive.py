"""Tests for trace-driven adaptive execution (dense-round switch, measured
constraint reordering).

The correctness contract is absolute: adaptive execution may only change
*scheduling* (which rounds run dense, which order constraints check in),
never the fixed point or the match set.
"""

from functools import lru_cache

import pytest

from repro.core import PipelineOptions, run_pipeline
from repro.core.constraints import CYCLE_KIND, PATH_KIND, NonLocalConstraint
from repro.core.ordering import order_constraints, reorder_measured
from repro.core.template import PatternTemplate
from repro.graph import Graph
from repro.graph.generators.random_labeled import gnm_graph
from repro.runtime.metrics import COST_RESOLUTION_ROWS, ConstraintCostModel

#: one tick of the measured-cost model, in frontier rows
TICK = COST_RESOLUTION_ROWS


@lru_cache(maxsize=None)
def kernel_shape_workload():
    """A scaled-down KERNEL-STRESS: low label diversity, path-8 template."""
    graph = gnm_graph(3000, 10000, num_labels=4, seed=7)
    labels = {v: v % 4 for v in range(8)}
    template = PatternTemplate.from_edges(
        [(v, v + 1) for v in range(7)], labels, name="adaptive-path8"
    )
    return graph, template


@lru_cache(maxsize=None)
def nlcc_shape_workload():
    """A scaled-down NLCC-STRESS: two labels, hubs, mirrored-label C4."""
    graph = gnm_graph(800, 2400, num_labels=2, seed=13)
    for hub, degree in ((5, 60), (11, 60)):
        for v in range(degree):
            other = (hub + 7 + 3 * v) % 800
            if other != hub and not graph.has_edge(hub, other):
                graph.add_edge(hub, other)
    template = PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 0, 1: 1, 2: 1, 3: 0},
        name="adaptive-c4",
    )
    return graph, template


def cascade_workload(paths=500, cycles=50):
    """Open label-paths 0-1-2-3 plus true 4-cycles, distinct-label C4.

    Round 1 kills both endpoints of every path simultaneously; the whole
    elimination wave flows through the fixpoint's witness-loss queue, so
    the round-2 worklist covers ~5/6 of the surviving scope (1200
    vertices, above the adaptive floor) — the workload the dense-round
    switch exists for.  The planted cycles keep the match set non-empty.
    """
    graph = Graph()
    next_vertex = 0
    for closed in (False,) * paths + (True,) * cycles:
        block = list(range(next_vertex, next_vertex + 4))
        for offset, vertex in enumerate(block):
            graph.add_vertex(vertex, offset)
        edges = list(zip(block, block[1:]))
        if closed:
            edges.append((block[-1], block[0]))
        for u, v in edges:
            graph.add_edge(u, v)
        next_vertex += 4
    template = PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 0, 1: 1, 2: 2, 3: 3},
        name="adaptive-cascade",
    )
    return graph, template


def run_with(graph, template, k, adaptive):
    options = PipelineOptions(
        num_ranks=2, count_matches=True, adaptive=adaptive
    )
    result = run_pipeline(graph, template, k, options)
    return result, dict(options.metrics.counters())


class TestAdaptiveDenseSwitch:
    def test_kernel_shape_match_set_invariant(self):
        graph, template = kernel_shape_workload()
        baseline, _ = run_with(graph, template, 0, adaptive=False)
        adaptive, _ = run_with(graph, template, 0, adaptive=True)
        assert adaptive.match_vectors == baseline.match_vectors
        assert adaptive.total_match_mappings() == baseline.total_match_mappings()

    def test_nlcc_shape_match_set_invariant(self):
        graph, template = nlcc_shape_workload()
        baseline, _ = run_with(graph, template, 0, adaptive=False)
        adaptive, _ = run_with(graph, template, 0, adaptive=True)
        assert adaptive.match_vectors == baseline.match_vectors
        assert adaptive.total_match_mappings() == baseline.total_match_mappings()

    def test_cascade_switch_fires_and_changes_round_mix(self):
        graph, template = cascade_workload()
        baseline, base_counters = run_with(graph, template, 0, adaptive=False)
        adaptive, adapt_counters = run_with(graph, template, 0, adaptive=True)

        # identical results ...
        assert adaptive.match_vectors == baseline.match_vectors
        assert adaptive.total_match_mappings() == baseline.total_match_mappings()
        assert adaptive.total_match_mappings() > 0

        # ... while the round mix measurably changes
        assert base_counters["fixpoint.rounds_adaptive_dense"] == 0.0
        assert adapt_counters["fixpoint.rounds_adaptive_dense"] >= 1.0

        def dense_fraction(counters):
            dense = counters["fixpoint.rounds_dense"]
            sparse = counters["fixpoint.rounds_sparse"]
            return dense / (dense + sparse)

        assert dense_fraction(adapt_counters) > dense_fraction(base_counters)

    def test_adaptive_is_deterministic(self):
        graph, template = cascade_workload(paths=300, cycles=30)
        first, first_counters = run_with(graph, template, 0, adaptive=True)
        second, second_counters = run_with(graph, template, 0, adaptive=True)
        assert first.match_vectors == second.match_vectors
        assert first_counters == second_counters


class TestMeasuredConstraintReordering:
    def _constraints(self):
        short_cycle = NonLocalConstraint(
            CYCLE_KIND, (0, 1, 2, 0), (1, 2, 3, 1)
        )
        long_cycle = NonLocalConstraint(
            CYCLE_KIND, (0, 1, 2, 3, 0), (1, 2, 3, 4, 1)
        )
        path = NonLocalConstraint(
            PATH_KIND, (0, 1, 2, 1, 0), (1, 2, 1, 2, 1)
        )
        return short_cycle, long_cycle, path

    def test_empty_model_keeps_static_order(self):
        short_cycle, long_cycle, path = self._constraints()
        static = [short_cycle, long_cycle, path]
        assert reorder_measured(static, ConstraintCostModel()) == static
        assert reorder_measured(static, None) == static

    def test_sub_resolution_measurements_keep_static_order(self):
        short_cycle, long_cycle, path = self._constraints()
        model = ConstraintCostModel()
        model.observe(short_cycle.key, 1000)
        model.observe(long_cycle.key, 2000)
        static = [short_cycle, long_cycle, path]
        assert reorder_measured(static, model) == static

    def test_measured_expensive_constraint_moves_back_within_kind(self):
        short_cycle, long_cycle, path = self._constraints()
        model = ConstraintCostModel()
        model.observe(short_cycle.key, 160 * TICK)   # measured pricey
        model.observe(long_cycle.key, 2 * TICK)    # measured cheap
        ordered = reorder_measured([short_cycle, long_cycle, path], model)
        # cycles still run before paths, but swap between themselves
        assert ordered == [long_cycle, short_cycle, path]

    def test_kind_priority_never_overridden(self):
        short_cycle, long_cycle, path = self._constraints()
        model = ConstraintCostModel()
        model.observe(short_cycle.key, 2000 * TICK)
        model.observe(long_cycle.key, 2000 * TICK)
        ordered = reorder_measured([short_cycle, long_cycle, path], model)
        assert ordered[-1] is path or ordered[-1].kind == PATH_KIND

    def test_order_constraints_consumes_measured_buckets(self):
        short_cycle, long_cycle, path = self._constraints()
        model = ConstraintCostModel()
        model.observe(short_cycle.key, 160 * TICK)
        model.observe(long_cycle.key, 2 * TICK)
        freq = {1: 5, 2: 5, 3: 5, 4: 5}
        ordered = order_constraints(
            [short_cycle, long_cycle, path], freq, optimize=True,
            measured=model,
        )
        assert ordered[0].length == long_cycle.length
        assert ordered[0].kind == CYCLE_KIND


class TestMeasuredReorderingIsCounted:
    """The re-sort is keyed on rows built, so a run is a function of its
    input: what wall-clock keys used to flip between two runs of one
    process (``nlcc_cache`` hits, and with them the simulated seconds)
    now repeats exactly."""

    def census(self, graph):
        from repro.core import count_motifs

        # no full walk: every plan keeps its pre-filters, the walks the
        # re-sort orders
        options = PipelineOptions(
            num_ranks=2, include_full_walk=False, verification="enumeration"
        )
        counts = count_motifs(graph, 4, options, batched=True)
        document = counts.result.stats_document()
        return counts.by_name(induced=False), {
            "nlcc": document["nlcc"],
            "nlcc_cache": document["nlcc_cache"],
            "messages": document["messages"],
            "simulated_seconds": document["totals"]["simulated_seconds"],
        }

    def test_two_batched_censuses_in_one_process_count_alike(self, monkeypatch):
        import repro.core.search as search_module
        import repro.runtime.metrics as metrics_module

        graph = gnm_graph(100, 250, num_labels=1, seed=23)
        for i in range(300):  # triangle dust
            a, b, c = (1000 + 3 * i + j for j in range(3))
            for v in (a, b, c):
                graph.add_vertex(v, 0)
            for u, v in ((a, b), (b, c), (c, a)):
                graph.add_edge(u, v)

        # a tick small enough for this graph's walks to land in different
        # buckets, and proof that the re-sort then moves something
        monkeypatch.setattr(metrics_module, "COST_RESOLUTION_ROWS", 256)
        moved = []
        raw = search_module.reorder_measured

        def recording(constraints, measured):
            ordered = raw(constraints, measured)
            moved.append(ordered != list(constraints))
            return ordered

        monkeypatch.setattr(search_module, "reorder_measured", recording)
        first = self.census(graph)
        assert any(moved)
        second = self.census(graph)
        assert first[0] == second[0] and sum(first[0].values()) > 0
        assert first[1]["nlcc_cache"]["hits"] > 0
        assert first[1] == second[1]

