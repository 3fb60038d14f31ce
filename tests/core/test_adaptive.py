"""Tests for the array fixpoint's dense-round switch.

The switch is a rule, not an option: a semi-naive round whose worklist
covers most of a large scope runs dense.  The correctness contract is
absolute: it may only change *scheduling* (which rounds run dense),
never the fixed point or the match set, so every case is compared with
the reference backend, which never switches.
"""

from functools import lru_cache

from repro.core import PipelineOptions, run_pipeline
from repro.core.template import PatternTemplate
from repro.graph import Graph
from repro.graph.generators.random_labeled import gnm_graph


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


def run_with(graph, template, k, backend="array"):
    options = PipelineOptions(
        num_ranks=2, count_matches=True, backend=backend
    )
    result = run_pipeline(graph, template, k, options)
    return result, dict(options.metrics.counters())


class TestAdaptiveDenseSwitch:
    def test_kernel_shape_match_set_invariant(self):
        graph, template = kernel_shape_workload()
        reference, _ = run_with(graph, template, 0, backend="reference")
        array, _ = run_with(graph, template, 0)
        assert array.match_vectors == reference.match_vectors
        assert array.total_match_mappings() == reference.total_match_mappings()

    def test_nlcc_shape_match_set_invariant(self):
        graph, template = nlcc_shape_workload()
        reference, _ = run_with(graph, template, 0, backend="reference")
        array, _ = run_with(graph, template, 0)
        assert array.match_vectors == reference.match_vectors
        assert array.total_match_mappings() == reference.total_match_mappings()

    def test_cascade_switch_fires_and_changes_round_mix(self):
        graph, template = cascade_workload()
        reference, _ = run_with(graph, template, 0, backend="reference")
        array, counters = run_with(graph, template, 0)

        # identical results ...
        assert array.match_vectors == reference.match_vectors
        assert array.total_match_mappings() == reference.total_match_mappings()
        assert array.total_match_mappings() > 0

        # ... while a semi-naive round of the cascade ran dense
        assert counters["fixpoint.rounds_adaptive_dense"] >= 1.0
        assert counters["fixpoint.rounds_dense"] > counters[
            "fixpoint.rounds_adaptive_dense"
        ]

    def test_adaptive_is_deterministic(self):
        graph, template = cascade_workload(paths=300, cycles=30)
        first, first_counters = run_with(graph, template, 0)
        second, second_counters = run_with(graph, template, 0)
        assert first.match_vectors == second.match_vectors
        assert first_counters == second_counters


class TestCountsRepeatInOneProcess:
    """A run is a function of its input: two batched censuses in one
    process report the same ``nlcc_cache`` hits, messages and simulated
    seconds, whatever the process-wide caches hold by the second one."""

    def census(self, graph):
        from repro.core import count_motifs

        # the reference backend: every plan keeps its pre-filters
        options = PipelineOptions(num_ranks=2, backend="reference")
        counts = count_motifs(graph, 4, options, batched=True)
        document = counts.result.stats_document()
        return counts.by_name(induced=False), {
            "nlcc": document["nlcc"],
            "nlcc_cache": document["nlcc_cache"],
            "messages": document["messages"],
            "simulated_seconds": document["totals"]["simulated_seconds"],
        }

    def test_two_batched_censuses_in_one_process_count_alike(self):
        graph = gnm_graph(100, 250, num_labels=1, seed=23)
        for i in range(300):  # triangle dust
            a, b, c = (1000 + 3 * i + j for j in range(3))
            for v in (a, b, c):
                graph.add_vertex(v, 0)
            for u, v in ((a, b), (b, c), (c, a)):
                graph.add_edge(u, v)

        first = self.census(graph)
        second = self.census(graph)
        assert first[0] == second[0] and sum(first[0].values()) > 0
        assert first[1]["nlcc_cache"]["hits"] > 0
        assert first[1] == second[1]
