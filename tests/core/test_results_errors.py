"""Tests for result objects and the error hierarchy."""

import pytest

from repro.core import (
    PipelineOptions,
    SearchState,
    generate_constraints,
    generate_prototypes,
    run_pipeline,
    search_prototype,
)
from repro.core.results import LevelReport, PipelineResult, PrototypeSearchOutcome
from repro.core.template import PatternTemplate
from repro.errors import (
    CheckpointError,
    ConstraintError,
    EngineError,
    GraphError,
    MemoryLimitExceeded,
    PartitionError,
    PipelineError,
    PrototypeError,
    ReproError,
    TemplateError,
)
from repro.graph.generators import planted_graph
from repro.runtime import Engine, PartitionedGraph


class TestErrorHierarchy:
    @pytest.mark.parametrize("error_type", [
        GraphError, TemplateError, PrototypeError, ConstraintError,
        PartitionError, EngineError, PipelineError, CheckpointError,
        MemoryLimitExceeded,
    ])
    def test_all_derive_from_repro_error(self, error_type):
        if error_type is MemoryLimitExceeded:
            instance = error_type(100, 50, "test")
        else:
            instance = error_type("boom")
        assert isinstance(instance, ReproError)

    def test_memory_limit_carries_context(self):
        error = MemoryLimitExceeded(2048, 1024, where="superstep 3")
        assert error.used_bytes == 2048
        assert error.limit_bytes == 1024
        assert "superstep 3" in str(error)
        assert "2048" in str(error)


class TestResultObjects:
    def make_result(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        labels = [1, 2, 3]
        graph = planted_graph(30, 60, edges, labels, copies=2, seed=8)
        template = PatternTemplate.from_edges(
            edges, {i: l for i, l in enumerate(labels)}, name="tri"
        )
        return graph, run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=2, count_matches=True)
        )

    def test_outcome_repr(self):
        _graph, result = self.make_result()
        outcome = result.outcomes()[0]
        assert outcome.name in repr(outcome)
        assert isinstance(outcome, PrototypeSearchOutcome)

    def test_level_report_labels(self):
        _graph, result = self.make_result()
        for level in result.levels:
            assert level.labels_generated() == sum(
                len(o.solution_vertices) for o in level.outcomes
            )
            assert level.num_prototypes == len(level.outcomes)
            assert str(level.distance) in repr(level)

    def test_total_distinct_matches(self):
        _graph, result = self.make_result()
        assert result.total_distinct_matches() == sum(
            o.distinct_matches for o in result.outcomes()
        )

    def test_totals_none_when_not_counted(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        graph = planted_graph(30, 60, edges, [1, 2, 3], copies=1, seed=9)
        template = PatternTemplate.from_edges(
            edges, {0: 1, 1: 2, 2: 3}, name="tri"
        )
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=2))
        # Cyclic prototypes count for free via the full walk; force the
        # no-count path through a distinct-label tree.
        tree = PatternTemplate.from_edges([(0, 1)], labels={0: 1, 1: 2})
        tree_result = run_pipeline(graph, tree, 0, PipelineOptions(num_ranks=2))
        assert tree_result.total_match_mappings() is None

    def test_repr_roundtrip(self):
        _graph, result = self.make_result()
        assert "tri" in repr(result)
        assert isinstance(result, PipelineResult)

    def test_union_subgraph_edges_are_match_edges(self):
        graph, result = self.make_result()
        union = result.union_subgraph(graph)
        for u, v in union.edges():
            assert graph.has_edge(u, v)

    def test_has_matches_flag(self):
        _graph, result = self.make_result()
        for outcome in result.outcomes():
            assert outcome.has_matches == bool(outcome.solution_vertices)


class TestBatchSizeInvariance:
    """The asynchronous schedule must never change results."""

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1000])
    def test_results_stable_under_scheduling(self, batch_size):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        labels = [1, 2, 3, 4]
        graph = planted_graph(40, 90, edges, labels, copies=2, seed=10)
        template = PatternTemplate.from_edges(
            edges, {i: l for i, l in enumerate(labels)}, name="t"
        )
        protos = generate_prototypes(template, 1)

        def search(batch):
            # the reference state runs the visitor engine, whose rank
            # rotation ``batch_size`` sets
            engine = Engine(PartitionedGraph(graph, 3), batch_size=batch)
            found = []
            for proto in protos:
                state = SearchState.initial(graph, template)
                outcome = search_prototype(
                    state.for_prototype_search(proto), proto,
                    generate_constraints(proto.graph), engine,
                    count_matches=True,
                )
                found.append((
                    outcome.solution_vertices, outcome.solution_edges,
                    outcome.match_mappings,
                ))
            return found, engine.stats.total_messages

        assert search(batch_size) == search(64)
