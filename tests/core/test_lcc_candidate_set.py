"""Tests for local constraint checking and max-candidate-set generation."""

import pytest

from repro.core import (
    PatternTemplate,
    SearchState,
    generate_prototypes,
    local_constraint_checking,
    max_candidate_set,
)
from repro.graph import from_edges
from repro.graph.isomorphism import find_subgraph_isomorphisms
from repro.runtime import Engine, MessageStats, PartitionedGraph


def engine_for(graph, ranks=2):
    return Engine(PartitionedGraph(graph, ranks), MessageStats(ranks))


def run_lcc(graph, template, k=0):
    proto = generate_prototypes(template, k).at(0)[0]
    state = SearchState.initial(graph, template)
    iterations = local_constraint_checking(state, proto.graph, engine_for(graph))
    return state, iterations


class TestLcc:
    def test_prunes_wrong_labels(self):
        template = PatternTemplate.from_edges([(0, 1)], labels={0: 1, 1: 2})
        graph = from_edges([(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 9})
        state, _ = run_lcc(graph, template)
        assert state.is_active(0)
        assert not state.is_active(2)

    def test_prunes_missing_neighbors(self):
        # Path template 1-2-3; vertex with label 2 but no 3-neighbor dies.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 3}
        )
        graph = from_edges(
            [(0, 1), (1, 2), (3, 4)], labels={0: 1, 1: 2, 2: 3, 3: 1, 4: 2}
        )
        state, _ = run_lcc(graph, template)
        assert state.is_active(1)
        assert not state.is_active(4)  # its only 2-labeled use lacks a 3-neighbor
        assert not state.is_active(3)  # cascades

    def test_iterative_cascade(self):
        # Chain where pruning the tail invalidates the whole chain.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)], labels={0: 1, 1: 2, 2: 3, 3: 4}
        )
        graph = from_edges(
            [(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 3}
        )  # no label-4 vertex at all
        state, iterations = run_lcc(graph, template)
        assert state.num_active_vertices == 0
        assert iterations >= 2

    def test_exact_on_distinct_label_tree(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (1, 3)], labels={0: 1, 1: 2, 2: 3, 3: 4}
        )
        from repro.graph.generators import planted_graph

        graph = planted_graph(50, 120, template.edges(), [1, 2, 3, 4], copies=3, seed=2)
        state, _ = run_lcc(graph, template)
        expected = set()
        for mapping in find_subgraph_isomorphisms(template.graph, graph):
            expected.update(mapping.values())
        assert set(state.active_vertices()) == expected

    def test_edge_pruning(self):
        template = PatternTemplate.from_edges([(0, 1)], labels={0: 1, 1: 2})
        graph = from_edges(
            [(0, 1), (0, 2)], labels={0: 1, 1: 2, 2: 2}
        )
        graph.add_vertex(3, 1)
        graph.add_edge(2, 3)
        state, _ = run_lcc(graph, template)
        # all 1-2 edges legitimate here; now test a wrong-pair edge
        graph2 = from_edges([(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 1})
        state2, _ = run_lcc(graph2, template)
        assert state2.edge_is_active(0, 1)
        assert state2.edge_is_active(1, 2)

    def test_messages_attributed_to_lcc_phase(self):
        template = PatternTemplate.from_edges([(0, 1)], labels={0: 1, 1: 2})
        graph = from_edges([(0, 1)], labels={0: 1, 1: 2})
        engine = engine_for(graph)
        state = SearchState.initial(graph, template)
        proto = generate_prototypes(template, 0).at(0)[0]
        local_constraint_checking(state, proto.graph, engine)
        assert engine.stats.phases["lcc"].messages > 0


class TestMaxCandidateSet:
    def template(self):
        return PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
        )

    def test_superset_of_all_prototype_matches(self):
        from repro.graph.generators import planted_graph

        template = self.template()
        graph = planted_graph(60, 150, template.edges(), [1, 2, 3, 4], copies=3, seed=4)
        mstar = max_candidate_set(graph, template, engine_for(graph))
        protos = generate_prototypes(template, 2)
        for proto in protos:
            for mapping in find_subgraph_isomorphisms(proto.graph, graph):
                for vertex in mapping.values():
                    assert mstar.is_active(vertex)

    def test_excludes_foreign_labels(self):
        template = self.template()
        graph = from_edges([(0, 1)], labels={0: 1, 1: 99})
        mstar = max_candidate_set(graph, template, engine_for(graph))
        assert not mstar.is_active(1)

    def test_excludes_isolated_candidates(self):
        template = self.template()
        graph = from_edges([(0, 1)], labels={0: 1, 1: 2})
        graph.add_vertex(5, 3)  # right label, no usable neighbors
        mstar = max_candidate_set(graph, template, engine_for(graph))
        assert not mstar.is_active(5)

    def test_weaker_than_lcc(self):
        """M* keeps vertices that only match *some* prototype, not H0."""
        template = self.template()
        # A 1-2 edge alone: survives in M* (each role keeps >=1 neighbor)
        # but can't match the full template.
        graph = from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (10, 11)],
                           labels={0: 1, 1: 2, 2: 3, 3: 4, 10: 1, 11: 2})
        mstar = max_candidate_set(graph, template, engine_for(graph))
        assert mstar.is_active(10)
        assert mstar.is_active(11)

    def test_mandatory_neighbors_enforced(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2)],
            labels={0: 1, 1: 2, 2: 3},
            mandatory_edges=[(1, 2)],
        )
        graph = from_edges([(0, 1), (2, 3), (3, 4)],
                           labels={0: 1, 1: 2, 2: 1, 3: 2, 4: 3})
        mstar = max_candidate_set(graph, template, engine_for(graph))
        # vertex 1 (label 2) has no label-3 neighbor -> mandatory check kills it
        assert not mstar.is_active(1)
        assert mstar.is_active(3)

    def test_single_vertex_template(self):
        template = PatternTemplate.from_edges([], labels={0: 7})
        graph = from_edges([(0, 1)], labels={0: 7, 1: 8})
        mstar = max_candidate_set(graph, template, engine_for(graph))
        assert mstar.is_active(0)
        assert not mstar.is_active(1)

    def test_messages_attributed_to_phase(self):
        template = self.template()
        graph = from_edges([(0, 1), (1, 2), (2, 0), (2, 3)],
                           labels={0: 1, 1: 2, 2: 3, 3: 4})
        engine = engine_for(graph)
        max_candidate_set(graph, template, engine)
        assert engine.stats.phases["max_candidate_set"].messages > 0
