"""Edge-branch tests: small behaviors not covered by the main suites."""

import pytest

from repro.core import (
    PatternTemplate,
    PipelineOptions,
    SearchState,
    generate_prototypes,
    run_pipeline,
)
from repro.errors import GraphError, PipelineError
from repro.graph import from_edges
from repro.graph.generators import planted_graph
from repro.graph.graph import Graph
from repro.runtime import CostModel, Engine, MessageStats, PartitionedGraph, Visitor


class TestCliGenerateRmat:
    def test_generate_rmat(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "r.edges"
        code = main(["generate", "rmat", str(output), "--size", "300"])
        assert code == 0
        assert output.exists()


class TestEngineContext:
    def test_context_exposes_graph_and_pgraph(self):
        g = from_edges([(0, 1)])
        pg = PartitionedGraph(g, 1)
        engine = Engine(pg)
        seen = {}

        def visit(ctx, vis):
            seen["graph"] = ctx.graph
            seen["pgraph"] = ctx.pgraph

        engine.do_traversal([Visitor(0)], visit)
        assert seen["graph"] is g
        assert seen["pgraph"] is pg


class TestCostModelEdgeCases:
    def test_empty_stats_costs_nothing(self):
        assert CostModel(barrier_cost=0.0).makespan(MessageStats(2)) == 0.0

    def test_barrier_cost_only(self):
        stats = MessageStats(1)
        stats.barrier()
        stats.barrier()
        model = CostModel(barrier_cost=0.5)
        assert model.makespan(stats) == pytest.approx(1.0)


class TestSingleVertexTemplatePipeline:
    def test_label_lookup_semantics(self):
        template = PatternTemplate.from_edges([], labels={0: 7})
        graph = from_edges([(0, 1), (1, 2)], labels={0: 7, 1: 8, 2: 7})
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=1))
        assert result.matched_vertices() == {0, 2}

    def test_isolated_vertices_match_single_vertex_template(self):
        template = PatternTemplate.from_edges([], labels={0: 7})
        graph = Graph()
        graph.add_vertex(5, 7)
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=1))
        assert result.matched_vertices() == {5}


class TestEmptyAndDegenerateInputs:
    def test_empty_background_graph(self):
        template = PatternTemplate.from_edges([(0, 1)], labels={0: 1, 1: 2})
        result = run_pipeline(Graph(), template, 1, PipelineOptions(num_ranks=2))
        assert result.match_vectors == {}
        assert result.candidate_set_vertices == 0

    def test_no_matching_labels_at_all(self):
        template = PatternTemplate.from_edges([(0, 1)], labels={0: 90, 1: 91})
        graph = from_edges([(0, 1)], labels={0: 1, 1: 2})
        result = run_pipeline(graph, template, 1, PipelineOptions(num_ranks=2))
        assert result.match_vectors == {}

    def test_template_larger_than_graph(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)], labels={0: 1, 1: 1, 2: 1, 3: 1}
        )
        graph = from_edges([(0, 1)], labels={0: 1, 1: 1})
        result = run_pipeline(graph, template, 1, PipelineOptions(num_ranks=1))
        assert result.match_vectors == {}


class TestStateEdgeCases:
    def test_for_prototype_search_on_empty_state(self):
        template = PatternTemplate.from_edges([(0, 1)], labels={0: 1, 1: 2})
        graph = from_edges([(0, 1)], labels={0: 1, 1: 2})
        empty = SearchState.empty(graph)
        proto = generate_prototypes(template, 0).at(0)[0]
        scoped = empty.for_prototype_search(proto)
        assert scoped.num_active_vertices == 0

    def test_union_with_empty(self):
        template = PatternTemplate.from_edges([(0, 1)], labels={0: 1, 1: 2})
        graph = from_edges([(0, 1)], labels={0: 1, 1: 2})
        state = SearchState.initial(graph, template)
        before = state.num_active_vertices
        state.union_with(SearchState.empty(graph))
        assert state.num_active_vertices == before


class TestMixedRolesVertices:
    def test_vertex_matching_multiple_roles(self):
        """One vertex participating as two different template vertices."""
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 1}
        )
        # Path 1-2-1-2-1: middle label-1 vertex plays both endpoint roles.
        graph = from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4)],
            labels={0: 1, 1: 2, 2: 1, 3: 2, 4: 1},
        )
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=2))
        assert 2 in result.matched_vertices()
        from repro.graph.isomorphism import find_subgraph_isomorphisms

        expected = {
            v
            for m in find_subgraph_isomorphisms(template.graph, graph)
            for v in m.values()
        }
        assert result.matched_vertices() == expected


class TestReloadInteractions:
    def test_reload_with_parallel_deployments(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        graph = planted_graph(40, 90, edges, [1, 2, 3], copies=2, seed=81)
        template = PatternTemplate.from_edges(
            edges, {0: 1, 1: 2, 2: 3}, name="t"
        )
        reference = run_pipeline(graph, template, 1, PipelineOptions(num_ranks=8))
        combo = run_pipeline(
            graph, template, 1,
            PipelineOptions(num_ranks=8, reload_ranks=4, parallel_deployments=2),
        )
        assert combo.match_vectors == reference.match_vectors

    def test_reload_larger_than_ranks_is_allowed(self):
        edges = [(0, 1)]
        graph = from_edges(edges, labels={0: 1, 1: 2})
        template = PatternTemplate.from_edges(edges, {0: 1, 1: 2})
        result = run_pipeline(
            graph, template, 0,
            PipelineOptions(num_ranks=2, reload_ranks=4),
        )
        assert result is not None


class TestGraphMiscellanea:
    def test_vertices_iteration_order_stable(self):
        g = Graph()
        for v in (5, 3, 9):
            g.add_vertex(v, 0)
        assert list(g.vertices()) == [5, 3, 9]

    def test_edge_label_of_absent_edge_is_none(self):
        g = from_edges([(0, 1)])
        assert g.edge_label(0, 2) is None

    def test_len_and_contains(self):
        g = from_edges([(0, 1)])
        assert len(g) == 2
        assert 0 in g and 7 not in g
