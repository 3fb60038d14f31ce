"""Property-based tests (hypothesis) of the core guarantees.

The central property is the paper's headline claim: for *any* connected
labeled template, *any* background graph, and *any* edit-distance, the
pipeline's match vectors equal brute-force ground truth — 100% precision
and 100% recall.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core import (
    PatternTemplate,
    PipelineOptions,
    generate_prototypes,
    max_candidate_set,
    run_pipeline,
)
from repro.graph import is_connected
from repro.graph.graph import Graph
from repro.graph.isomorphism import (
    are_isomorphic,
    canonical_form,
    find_subgraph_isomorphisms,
)
from repro.runtime import Engine, MessageStats, PartitionedGraph

SLOW = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def connected_templates(draw, min_vertices=3, max_vertices=5, num_labels=3):
    """A random connected labeled template (duplicate labels allowed)."""
    n = draw(st.integers(min_vertices, max_vertices))
    labels = [draw(st.integers(0, num_labels - 1)) for _ in range(n)]
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, labels[v])
    # Random spanning tree guarantees connectivity.
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        graph.add_edge(parent, v)
    extra_pool = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not graph.has_edge(u, v)
    ]
    for edge in extra_pool:
        if draw(st.booleans()):
            graph.add_edge(*edge)
    return PatternTemplate(graph, name="random")


@st.composite
def labeled_graphs(draw, max_vertices=24, num_labels=3):
    n = draw(st.integers(4, max_vertices))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.integers(0, num_labels - 1)))
    max_edges = min(3 * n, n * (n - 1) // 2)
    m = draw(st.integers(n // 2, max_edges))
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def brute_force_vectors(graph, template, k):
    vectors = {}
    for proto in generate_prototypes(template, k):
        for mapping in find_subgraph_isomorphisms(proto.graph, graph):
            for v in mapping.values():
                vectors.setdefault(v, set()).add(proto.id)
    return vectors


class TestPipelineExactness:
    @SLOW
    @given(connected_templates(), labeled_graphs(), st.integers(0, 2))
    def test_precision_and_recall(self, template, graph, k):
        result = run_pipeline(graph, template, k, PipelineOptions(num_ranks=2))
        assert result.match_vectors == brute_force_vectors(graph, template, k)

    @SLOW
    @given(connected_templates(), labeled_graphs(), st.integers(0, 1))
    def test_counts_match_brute_force(self, template, graph, k):
        result = run_pipeline(
            graph, template, k, PipelineOptions(num_ranks=2, count_matches=True)
        )
        for proto in result.prototype_set:
            expected = sum(
                1 for _ in find_subgraph_isomorphisms(proto.graph, graph)
            )
            assert result.outcome_for(proto.id).match_mappings == expected

    @SLOW
    @given(connected_templates(max_vertices=4), labeled_graphs(max_vertices=18))
    def test_enumeration_mode_agrees_with_auto(self, template, graph):
        auto = run_pipeline(graph, template, 1, PipelineOptions(num_ranks=2))
        enum = run_pipeline(
            graph, template, 1,
            PipelineOptions(num_ranks=2, include_full_walk=False),
        )
        assert auto.match_vectors == enum.match_vectors


class TestSearchSpaceProperties:
    @SLOW
    @given(connected_templates(), labeled_graphs(), st.integers(0, 2))
    def test_max_candidate_set_superset(self, template, graph, k):
        engine = Engine(PartitionedGraph(graph, 2), MessageStats(2))
        mstar = max_candidate_set(graph, template, engine)
        for proto in generate_prototypes(template, k):
            for mapping in find_subgraph_isomorphisms(proto.graph, graph):
                for tv, gv in mapping.items():
                    assert mstar.is_active(gv)
                    assert tv in mstar.roles(gv) or any(
                        template.graph.label(tv) == template.graph.label(r)
                        for r in mstar.roles(gv)
                    )

    @SLOW
    @given(connected_templates(), labeled_graphs())
    def test_containment_rule(self, template, graph):
        """V*_{δ,p} is contained in the union of its children's V*."""
        k = min(2, template.max_meaningful_distance())
        result = run_pipeline(graph, template, k, PipelineOptions(num_ranks=2))
        for proto in result.prototype_set:
            children = proto.children()
            if not children:
                continue
            union_children = set()
            for child in children:
                union_children |= result.outcome_for(child.id).solution_vertices
            assert result.outcome_for(proto.id).solution_vertices <= union_children


class TestPrototypeProperties:
    @SLOW
    @given(connected_templates(max_vertices=5), st.integers(0, 3))
    def test_generation_invariants(self, template, k):
        prototype_set = generate_prototypes(template, k)
        for proto in prototype_set:
            assert is_connected(proto.graph)
            assert set(proto.graph.vertices()) == set(template.graph.vertices())
            assert proto.num_edges == template.num_edges - proto.distance
            for u, v in proto.graph.edges():
                assert template.graph.has_edge(u, v)

    @SLOW
    @given(connected_templates(max_vertices=5))
    def test_no_duplicates_within_level(self, template):
        prototype_set = generate_prototypes(template, 2)
        for level in prototype_set.levels:
            forms = [canonical_form(p.graph) for p in level]
            assert len(forms) == len(set(forms))

    @SLOW
    @given(connected_templates(max_vertices=5))
    def test_canonical_form_matches_isomorphism(self, template):
        prototype_set = generate_prototypes(template, 1)
        protos = prototype_set.all()
        for i, a in enumerate(protos):
            for b in protos[i + 1 :]:
                same_form = canonical_form(a.graph) == canonical_form(b.graph)
                assert same_form == are_isomorphic(a.graph, b.graph)


class TestStateInvariants:
    @SLOW
    @given(connected_templates(), labeled_graphs())
    def test_active_edges_symmetric_after_pipeline_stages(self, template, graph):
        from repro.core import SearchState
        from repro.core.lcc import local_constraint_checking

        state = SearchState.initial(graph, template)
        proto = generate_prototypes(template, 0).at(0)[0]
        engine = Engine(PartitionedGraph(graph, 2), MessageStats(2))
        local_constraint_checking(state, proto.graph, engine)
        for v in state.active_vertices():
            for u in state.active_neighbors(v):
                assert v in state.active_neighbors(u)
                assert state.is_active(u)
