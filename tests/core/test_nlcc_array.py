"""Array-NLCC vs reference-NLCC equivalence (the batched token frontier).

Every test runs the same walk twice — the reference backend's dict token
visitors vs the array backend's batched frontier — and asserts identical
observable results: final state, checked/satisfied/recycled sets,
eliminations, completions, confirmed roles/edges, and (for full walks)
the exact match mappings.  The array walk may merge token rows
(``dedup_merged``) but must never change what the walk concludes.
"""

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    ArraySearchState,
    NlccCache,
    PatternTemplate,
    PipelineOptions,
    SearchState,
    generate_constraints,
    local_constraint_checking,
    non_local_constraint_checking,
    run_pipeline,
)
from repro.core.kernels import compile_kernel
from repro.core.ordering import order_constraints
from repro.graph.generators import gnm_graph
from repro.graph.graph import Graph
from repro.runtime import Engine, MessageStats, PartitionedGraph


def engine_for(graph, ranks=4):
    return Engine(PartitionedGraph(graph, ranks), MessageStats(ranks))


def state_snapshot(state):
    return (
        {v: frozenset(r) for v, r in state.candidates.items()},
        frozenset(state.active_edge_list()),
    )


def result_digest(result):
    """Everything an NlccResult observably concludes, order-insensitive.

    ``completed_mappings`` is compared as a multiset of frozen item-sets:
    the two executions discover paths in different orders, and sorting
    frozensets is not a total order (subset comparison), so a Counter is
    the only stable equality.
    """
    return (
        frozenset(result.checked),
        frozenset(result.satisfied),
        frozenset(result.recycled),
        result.eliminated_roles,
        result.completions,
        {v: frozenset(r) for v, r in result.confirmed_roles.items()},
        frozenset(result.confirmed_edges),
        Counter(frozenset(m.items()) for m in result.completed_mappings),
    )


def post_lcc_state(graph, template, engine, array):
    """The reference LCC fixed point, in array form when ``array``."""
    state = SearchState.initial(graph, template)
    local_constraint_checking(state, template.graph, engine)
    if array:
        return ArraySearchState.from_search_state(
            state, roles=compile_kernel(template.graph).roles
        )
    return state


def run_constraints(graph, template, constraints, array, cache=None,
                    recycle=False):
    """Fresh post-LCC state, then every constraint in order; returns
    (state snapshot, [result digests])."""
    engine = engine_for(graph)
    state = post_lcc_state(graph, template, engine, array)
    digests = []
    for constraint in constraints:
        result = non_local_constraint_checking(
            state, constraint, engine, cache=cache, recycle=recycle,
        )
        digests.append(result_digest(result))
    if array:
        state = state.to_search_state()
    return state_snapshot(state), digests


def all_constraints(graph, template):
    constraint_set = generate_constraints(template.graph, graph.label_counts())
    return order_constraints(constraint_set.non_local, graph.label_counts())


class TestWalkEquivalence:
    """Reference walk and array frontier agree constraint by constraint."""

    @pytest.mark.parametrize("seed", range(5))
    def test_c4_all_constraint_kinds(self, seed):
        # Two labels on a C4: cycle + path constraints and the full walk,
        # all three walk kinds in one sweep.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 1, 2: 1, 3: 0},
        )
        graph = gnm_graph(60, 150, num_labels=2, seed=seed)
        constraints = all_constraints(graph, template)
        assert {c.kind for c in constraints} >= {"cycle", "path", "tds_full"}
        dict_out = run_constraints(graph, template, constraints, False)
        array_out = run_constraints(graph, template, constraints, True)
        assert array_out == dict_out

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_distinct_labels(self, seed):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3}
        )
        graph = gnm_graph(50, 140, num_labels=3, seed=seed + 10)
        constraints = all_constraints(graph, template)
        dict_out = run_constraints(graph, template, constraints, False)
        array_out = run_constraints(graph, template, constraints, True)
        assert array_out == dict_out

    def test_edge_labeled_walk(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)],
            labels={0: 1, 1: 2, 2: 3},
            edge_labels={(0, 1): 7},
        )
        graph = Graph()
        import numpy as np

        rng = np.random.default_rng(3)
        for v in range(40):
            graph.add_vertex(v, int(rng.integers(3)) + 1)
        added = 0
        while added < 110:
            u, v = int(rng.integers(40)), int(rng.integers(40))
            if u != v and not graph.has_edge(u, v):
                label = None if rng.random() < 0.5 else 7
                graph.add_edge(u, v, label)
                added += 1
        constraints = all_constraints(graph, template)
        dict_out = run_constraints(graph, template, constraints, False)
        array_out = run_constraints(graph, template, constraints, True)
        assert array_out == dict_out


class TestHubStormDedup:
    """The dedup fold merges swapped interior rows without changing results."""

    def storm_graph(self):
        # A clique of one label: every vertex is a candidate for every C4
        # role, every interior pair of a closed walk exists in both orders.
        graph = Graph()
        n = 10
        for v in range(n):
            graph.add_vertex(v, 0)
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v)
        return graph

    def test_dedup_fires_and_results_match(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 0, 2: 0, 3: 0},
        )
        graph = self.storm_graph()
        constraints = all_constraints(graph, template)
        dict_out = run_constraints(graph, template, constraints, False)
        array_out = run_constraints(graph, template, constraints, True)
        assert array_out == dict_out

        # Rerun one cycle constraint directly to observe the merge counter:
        # in a single-label clique the two free interior positions of the
        # length-5 cycle walk occur in both orders for every vertex pair.
        engine = engine_for(graph)
        state = post_lcc_state(graph, template, engine, array=True)
        cycle = next(c for c in constraints if c.kind == "cycle")
        result = non_local_constraint_checking(
            state, cycle, engine, recycle=False
        )
        assert result.dedup_merged > 0
        assert result.satisfied == result.checked


class TestCacheParity:
    """Work recycling behaves identically under both executions."""

    def template_and_graph(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3}
        )
        graph = gnm_graph(50, 140, num_labels=3, seed=2)
        return template, graph

    @pytest.mark.parametrize("array", [False, True])
    def test_second_run_recycles(self, array):
        template, graph = self.template_and_graph()
        constraints = [
            c for c in all_constraints(graph, template) if c.kind == "cycle"
        ]
        cache = NlccCache()
        _snap1, first = run_constraints(
            graph, template, constraints, array, cache=cache,
            recycle=True,
        )
        _snap2, second = run_constraints(
            graph, template, constraints, array, cache=cache,
            recycle=True,
        )
        # first pass recycles nothing, second recycles every satisfied
        # initiator (digest fields: checked, satisfied, recycled, ...)
        assert all(digest[2] == frozenset() for digest in first)
        assert [d[2] for d in second] == [d[1] for d in first]

    def test_hit_miss_counters_match(self):
        template, graph = self.template_and_graph()
        constraints = [
            c for c in all_constraints(graph, template) if c.kind == "cycle"
        ]
        counters = {}
        for array in (False, True):
            cache = NlccCache()
            for _ in range(2):
                run_constraints(
                    graph, template, constraints, array, cache=cache,
                    recycle=True,
                )
            counters[array] = (cache.hits, cache.misses)
        assert counters[False] == counters[True]


class TestLazyInitiatorSets:
    """The array walk keeps checked / satisfied / recycled as dense index
    arrays; the vertex-id sets appear on first read and equal the
    reference walk's, and the counts the search loop reads decode
    nothing."""

    def run_both(self, seed, stride):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 1, 2: 1, 3: 0},
        )
        graph = gnm_graph(40, 110, num_labels=2, seed=seed)
        constraints = [
            c for c in all_constraints(graph, template) if c.kind != "tds_full"
        ]
        results = {}
        for array in (False, True):
            # a cache that vouches for every stride-th vertex, live or not
            cache = NlccCache()
            for constraint in constraints:
                cache.mark_satisfied(constraint.key, range(0, 60, stride))
            engine = engine_for(graph)
            state = post_lcc_state(graph, template, engine, array)
            results[array] = [
                non_local_constraint_checking(
                    state, constraint, engine, cache=cache
                )
                for constraint in constraints
            ]
        return results

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), stride=st.integers(2, 4))
    def test_decoded_sets_equal_the_dict_walks(self, seed, stride):
        results = self.run_both(seed, stride)
        for by_dict, by_array in zip(results[False], results[True]):
            assert by_array._checked is None
            assert by_array._satisfied is None
            assert by_array._recycled is None
            # the counts come off the array sizes
            assert by_array.recycled_count == len(by_dict.recycled)
            assert by_array.tokens_launched == by_dict.tokens_launched
            assert by_array._checked is None and by_array._recycled is None
            assert by_array.checked == by_dict.checked
            assert by_array.satisfied == by_dict.satisfied
            assert by_array.recycled == by_dict.recycled
            assert by_array.recycled <= by_array.satisfied <= by_array.checked
            # decoded once, then kept
            assert by_array.checked is by_array.checked
            assert by_array.satisfied is by_array.satisfied
            assert by_array.recycled is by_array.recycled

    def test_the_cases_recycle_and_eliminate(self):
        by_array = self.run_both(seed=5, stride=2)[True]
        assert any(r.recycled for r in by_array)
        assert any(r.satisfied - r.recycled for r in by_array)
        assert any(r.checked - r.satisfied for r in by_array)


@pytest.mark.usefixtures("complete_constraint_lists")
class TestPipelineEquivalence:
    """run_pipeline on the reference vs the array backend is observably
    identical when both run the same walks: the reference backend always
    checks the complete list, so the array backend is held to it here."""

    @pytest.mark.parametrize("k", [0, 1])
    def test_end_to_end(self, k):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 1, 2: 1, 3: 0},
        )
        graph = gnm_graph(80, 220, num_labels=2, seed=5)
        results = {}
        for backend in ("reference", "array"):
            options = PipelineOptions(
                num_ranks=4, count_matches=True, backend=backend
            )
            result = run_pipeline(graph, template, k, options)
            results[backend] = (
                {v: frozenset(p) for v, p in result.match_vectors.items()},
                result.total_match_mappings(),
                [
                    (o.proto_id, sorted(o.solution_vertices),
                     sorted(o.solution_edges), o.match_mappings,
                     o.distinct_matches, o.lcc_iterations,
                     o.post_lcc_vertices, o.post_lcc_edges)
                    for level in result.levels for o in level.outcomes
                ],
            )
        assert results["reference"] == results["array"]

    def test_stats_document_counters_without_tracer(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 1, 2: 1, 3: 0},
        )
        graph = gnm_graph(80, 220, num_labels=2, seed=5)
        docs = {}
        for backend in ("reference", "array"):
            options = PipelineOptions(
                num_ranks=4, count_matches=True, backend=backend
            )
            doc = run_pipeline(graph, template, 1, options).stats_document()
            docs[backend] = doc["nlcc"]
        for nlcc in docs.values():
            assert nlcc["tokens_launched"] > 0
            assert nlcc["completions"] > 0
        # everything except the array-only dedup counter agrees
        for field in ("constraints_checked", "roles_eliminated", "recycled",
                      "tokens_launched", "completions"):
            assert docs["reference"][field] == docs["array"][field]
        assert docs["reference"]["dedup_merged"] == 0
