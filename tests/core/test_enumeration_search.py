"""Tests for match enumeration, extension optimization and SEARCH_PROTOTYPE."""

import pytest

from repro.core import (
    ArraySearchState,
    PatternTemplate,
    SearchState,
    count_match_mappings,
    distinct_match_count,
    enumerate_matches,
    extend_from_child_matches,
    generate_constraints,
    generate_prototypes,
    search_prototype,
)
from repro.errors import PipelineError
from repro.graph import from_edges
from repro.graph.generators import planted_graph
from repro.graph.isomorphism import find_subgraph_isomorphisms
from repro.runtime import Engine, MessageStats, PartitionedGraph


def engine_for(graph, ranks=2):
    return Engine(PartitionedGraph(graph, ranks), MessageStats(ranks))


TEMPLATE_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
TEMPLATE_LABELS = [1, 2, 3, 4]


def template():
    return PatternTemplate.from_edges(
        TEMPLATE_EDGES, {i: l for i, l in enumerate(TEMPLATE_LABELS)}, name="tri+tail"
    )


def graph():
    return planted_graph(50, 120, TEMPLATE_EDGES, TEMPLATE_LABELS, copies=3, seed=11)


class TestEnumeration:
    def test_matches_agree_with_reference(self):
        t, g = template(), graph()
        proto = generate_prototypes(t, 0).at(0)[0]
        state = SearchState.initial(g, t)
        ours = {tuple(sorted(m.items())) for m in enumerate_matches(proto, state)}
        reference = {
            tuple(sorted(m.items()))
            for m in find_subgraph_isomorphisms(proto.graph, g)
        }
        assert ours == reference

    def test_role_filter_respected(self):
        t, g = template(), graph()
        proto = generate_prototypes(t, 0).at(0)[0]
        state = SearchState.initial(g, t)
        victim = next(iter(find_subgraph_isomorphisms(proto.graph, g)))[0]
        state.deactivate_vertex(victim)
        for mapping in enumerate_matches(proto, state):
            assert victim not in mapping.values()

    def test_count_and_distinct(self):
        t, g = template(), graph()
        proto = generate_prototypes(t, 0).at(0)[0]
        state = SearchState.initial(g, t)
        mappings = count_match_mappings(proto, state)
        assert distinct_match_count(proto, mappings) == mappings  # no automorphisms

    def test_distinct_count_divisibility_guard(self):
        t = PatternTemplate.from_edges([(0, 1)], labels={0: 0, 1: 0})
        proto = generate_prototypes(t, 0).at(0)[0]
        with pytest.raises(PipelineError):
            distinct_match_count(proto, 3)  # 2 automorphisms


class TestExtension:
    def test_extension_equals_direct_enumeration(self):
        t, g = template(), graph()
        ps = generate_prototypes(t, 1)
        root = ps.at(0)[0]
        state = SearchState.initial(g, t)
        for link in root.child_links:
            child_matches = list(enumerate_matches(link.child, state))
            extended = extend_from_child_matches(root, link.child, child_matches, g)
            direct = list(enumerate_matches(root, state))
            key = lambda m: tuple(sorted(m.items()))  # noqa: E731
            assert sorted(map(key, extended)) == sorted(map(key, direct))

    def test_extension_requires_link(self):
        t, g = template(), graph()
        ps = generate_prototypes(t, 1)
        stranger = ps.at(1)[0]
        with pytest.raises(PipelineError):
            extend_from_child_matches(stranger, ps.at(0)[0], [], g)


class TestSearchPrototype:
    def run_search(self, t, g, proto, **kwargs):
        state = ArraySearchState.from_search_state(
            SearchState.initial(g, t).for_prototype_search(proto),
            roles=sorted(proto.graph.vertices()),
        )
        return (
            search_prototype(
                state,
                proto,
                generate_constraints(proto.graph),
                engine_for(g),
                **kwargs,
            ),
            state,
        )

    def test_exact_solution_subgraph(self):
        t, g = template(), graph()
        proto = generate_prototypes(t, 0).at(0)[0]
        outcome, state = self.run_search(t, g, proto, count_matches=True)
        reference = list(find_subgraph_isomorphisms(proto.graph, g))
        expected = {v for m in reference for v in m.values()}
        assert outcome.solution_vertices == expected
        assert outcome.match_mappings == len(reference)

    def test_collect_matches(self):
        t, g = template(), graph()
        proto = generate_prototypes(t, 0).at(0)[0]
        outcome, _ = self.run_search(t, g, proto, collect_matches=True)
        assert outcome.matches
        for m in outcome.matches:
            for u, v in proto.graph.edges():
                assert g.has_edge(m[u], m[v])

    def test_tree_prototype_exact_without_walk(self):
        t = PatternTemplate.from_edges(
            [(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 3}
        )
        g = planted_graph(40, 80, t.edges(), [1, 2, 3], copies=2, seed=5)
        proto = generate_prototypes(t, 0).at(0)[0]
        outcome, _ = self.run_search(t, g, proto)
        assert outcome.counts.get("nlcc.constraints_checked", 0) == 0
        reference = {
            v for m in find_subgraph_isomorphisms(t.graph, g) for v in m.values()
        }
        assert outcome.solution_vertices == reference

    def test_empty_graph_short_circuits(self):
        t = template()
        g = from_edges([(0, 1)], labels={0: 9, 1: 9})
        proto = generate_prototypes(t, 0).at(0)[0]
        outcome, _ = self.run_search(t, g, proto, count_matches=True)
        assert outcome.solution_vertices == set()
        assert outcome.match_mappings == 0
        assert outcome.distinct_matches == 0
        # a cyclic prototype's walk never ran, yet it reports no match
        # whether or not it counts
        assert self.run_search(t, g, proto)[0].match_mappings == 0
        assert self.run_search(t, g, proto, collect_matches=True)[0].matches == []
