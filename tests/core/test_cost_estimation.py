"""Tests for the constrained-walk cost/likelihood estimator."""

import pytest

from repro.core import (
    GraphStatistics,
    PipelineOptions,
    estimate_success_probability,
    estimate_walk_cost,
    order_constraints_by_cost,
    pruning_efficiency,
    run_pipeline,
)
from repro.core.constraints import (
    CYCLE_KIND,
    FULL_WALK_KIND,
    NonLocalConstraint,
)
from repro.core.template import PatternTemplate
from repro.graph import from_edges
from repro.graph.generators import planted_graph


def stats_of(edges, labels):
    return GraphStatistics.from_graph(
        from_edges(edges, labels={i: l for i, l in enumerate(labels)})
    )


def cyc(walk, labels):
    return NonLocalConstraint(CYCLE_KIND, walk, labels)


class TestGraphStatistics:
    def test_vertex_counts(self):
        stats = stats_of([(0, 1), (1, 2)], [5, 5, 7])
        assert stats.label_count(5) == 2
        assert stats.label_count(7) == 1
        assert stats.label_count(99) == 0

    def test_pair_edge_counts(self):
        stats = stats_of([(0, 1), (1, 2), (0, 2)], [1, 2, 2])
        assert stats.pair_edge_counts[(1, 2)] == 2
        assert stats.pair_edge_counts[(2, 2)] == 1

    def test_expected_branching(self):
        # Two label-1 vertices, three 1-2 edges total.
        stats = stats_of([(0, 2), (0, 3), (1, 2)], [1, 1, 2, 2])
        assert stats.expected_branching(1, 2) == pytest.approx(1.5)
        # Same-label edges count both endpoints.
        stats2 = stats_of([(0, 1)], [4, 4])
        assert stats2.expected_branching(4, 4) == pytest.approx(1.0)

    def test_branching_zero_for_absent_labels(self):
        stats = stats_of([(0, 1)], [1, 2])
        assert stats.expected_branching(9, 1) == 0.0
        assert stats.expected_branching(1, 9) == 0.0


class TestCostAndSuccess:
    def make_stats(self):
        # Dense 1-2 connectivity, sparse 1-3.
        return stats_of(
            [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)],
            [1, 1, 2, 2, 3],
        )

    def test_rarer_transitions_cost_less(self):
        stats = self.make_stats()
        dense = cyc((0, 1, 2, 0), (1, 2, 1, 1))
        sparse = cyc((0, 1, 2, 0), (1, 3, 1, 1))
        assert estimate_walk_cost(sparse, stats) < estimate_walk_cost(dense, stats)

    def test_impossible_walk_costs_nothing_downstream(self):
        stats = self.make_stats()
        impossible = cyc((0, 1, 2, 0), (1, 99, 1, 1))
        # the seed frontier (one row per initiator) and not a row more
        assert estimate_walk_cost(impossible, stats) == pytest.approx(
            stats.label_count(1)
        )
        assert estimate_success_probability(impossible, stats) == 0.0

    def test_success_probability_bounded(self):
        stats = self.make_stats()
        for constraint in (
            cyc((0, 1, 2, 0), (1, 2, 1, 1)),
            cyc((0, 1, 2, 0), (1, 3, 1, 1)),
        ):
            assert 0.0 <= estimate_success_probability(constraint, stats) <= 1.0

    def test_absent_initiator_label(self):
        stats = self.make_stats()
        constraint = cyc((0, 1, 2, 0), (99, 2, 1, 99))
        assert estimate_success_probability(constraint, stats) == 0.0
        assert pruning_efficiency(constraint, stats) == 0.0


class TestOrdering:
    def test_full_walk_always_last(self):
        stats = stats_of([(0, 1), (1, 2), (2, 0)], [1, 2, 3])
        full = NonLocalConstraint(FULL_WALK_KIND, (0, 1, 2, 0), (1, 2, 3, 1))
        cheap = cyc((0, 1, 2, 0), (1, 2, 3, 1))
        ordered = order_constraints_by_cost([full, cheap], stats)
        assert ordered[-1] is full

    def test_efficient_pruners_first(self):
        # likely-failing cheap constraint must precede the likely-passing one
        stats = stats_of(
            [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)],
            [1, 1, 2, 2, 3],
        )
        likely_fails = cyc((0, 1, 2, 0), (1, 3, 2, 1))   # needs rare 1-3 hop
        likely_holds = cyc((0, 1, 2, 0), (1, 2, 1, 1))   # dense transitions
        ordered = order_constraints_by_cost([likely_holds, likely_fails], stats)
        assert ordered[0] is likely_fails

    def test_deterministic(self):
        stats = stats_of([(0, 1), (1, 2), (2, 0)], [1, 2, 3])
        a = cyc((0, 1, 2, 0), (1, 2, 3, 1))
        b = cyc((1, 2, 0, 1), (2, 3, 1, 2))
        assert order_constraints_by_cost([a, b], stats) == order_constraints_by_cost(
            [b, a], stats
        )


class TestPipelineIntegration:
    def test_walk_cost_ordering_results_invariant(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        labels = [1, 2, 3, 4]
        graph = planted_graph(50, 120, edges, labels, copies=3, seed=21)
        template = PatternTemplate.from_edges(
            edges, {i: l for i, l in enumerate(labels)}, name="t"
        )
        reference = run_pipeline(graph, template, 1, PipelineOptions(num_ranks=2))
        cost_ordered = run_pipeline(
            graph, template, 1,
            PipelineOptions(num_ranks=2, constraint_ordering="walk-cost"),
        )
        assert cost_ordered.match_vectors == reference.match_vectors

    def test_invalid_ordering_rejected(self):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            PipelineOptions(constraint_ordering="magic")
