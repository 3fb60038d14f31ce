"""Integration tests: the full pipeline vs brute-force ground truth."""

import pytest

from repro.core import (
    PipelineOptions,
    generate_prototypes,
    naive_options,
    naive_search,
    run_pipeline,
)
from repro.core.patterns import rmat1_template, wdc1_template
from repro.core.template import PatternTemplate
from repro.errors import PipelineError
from repro.graph.generators import planted_graph
from repro.graph.isomorphism import find_subgraph_isomorphisms

TEMPLATE_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
TEMPLATE_LABELS = [1, 2, 3, 4]


def template():
    return PatternTemplate.from_edges(
        TEMPLATE_EDGES, {i: l for i, l in enumerate(TEMPLATE_LABELS)}, name="tri+tail"
    )


def graph(seed=11):
    return planted_graph(
        60, 150, TEMPLATE_EDGES, TEMPLATE_LABELS, copies=3, seed=seed
    )


def reference_vectors(g, t, k):
    """Brute-force per-vertex prototype membership."""
    vectors = {}
    for proto in generate_prototypes(t, k):
        for mapping in find_subgraph_isomorphisms(proto.graph, g):
            for v in mapping.values():
                vectors.setdefault(v, set()).add(proto.id)
    return vectors


class TestPrecisionRecall:
    """The paper's headline guarantee: 100% precision AND 100% recall."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_match_vectors_exact(self, k):
        g, t = graph(), template()
        result = run_pipeline(g, t, k, PipelineOptions(num_ranks=3))
        assert result.match_vectors == reference_vectors(g, t, k)

    def test_solution_edges_exact(self):
        g, t = graph(), template()
        result = run_pipeline(g, t, 1, PipelineOptions(num_ranks=3))
        for proto in result.prototype_set:
            expected_edges = set()
            for m in find_subgraph_isomorphisms(proto.graph, g):
                for u, v in proto.graph.edges():
                    a, b = m[u], m[v]
                    expected_edges.add((min(a, b), max(a, b)))
            assert result.outcome_for(proto.id).solution_edges == expected_edges

    def test_counts_exact(self):
        g, t = graph(), template()
        result = run_pipeline(
            g, t, 1, PipelineOptions(num_ranks=3, count_matches=True)
        )
        for proto in result.prototype_set:
            expected = sum(1 for _ in find_subgraph_isomorphisms(proto.graph, g))
            assert result.outcome_for(proto.id).match_mappings == expected


class TestOptionEquivalence:
    """Every optimization knob changes cost, never results."""

    BASE = dict(num_ranks=3)

    @pytest.mark.parametrize(
        "options",
        [
            PipelineOptions(num_ranks=3, work_recycling=False),
            PipelineOptions(num_ranks=3, use_containment=False),
            PipelineOptions(num_ranks=3, use_max_candidate_set=False),
            PipelineOptions(num_ranks=3, constraint_ordering=False),
            PipelineOptions(num_ranks=3, load_balance="reshuffle"),
            PipelineOptions(num_ranks=6, reload_ranks=2),
            PipelineOptions(num_ranks=6, parallel_deployments=3),
            PipelineOptions(num_ranks=3, delegate_degree_threshold=8),
            PipelineOptions(num_ranks=3, count_matches=True,
                            enumeration_optimization=True),
            PipelineOptions(num_ranks=1),
        ],
        ids=[
            "no-recycling", "no-containment", "no-mcs", "no-ordering",
            "reshuffle", "reload", "parallel", "delegates",
            "extension", "single-rank",
        ],
    )
    def test_results_invariant(self, options):
        g, t = graph(), template()
        reference = reference_vectors(g, t, 2)
        result = run_pipeline(g, t, 2, options)
        assert result.match_vectors == reference

    def test_reload_ranks_zero_disables_reload(self):
        """reload_ranks=0 is falsy: no rebalance cost, same deployment."""
        g, t = graph(), template()
        result = run_pipeline(
            g, t, 1, PipelineOptions(num_ranks=3, reload_ranks=0)
        )
        reference = run_pipeline(g, t, 1, PipelineOptions(num_ranks=3))
        assert result.match_vectors == reference.match_vectors
        # The reload must be fully off: no rebalancing infrastructure time
        # is charged (the old truthiness leak made this flag an int/None).
        assert result.total_infrastructure_seconds == 0.0
        assert (
            result.total_simulated_seconds == reference.total_simulated_seconds
        )

    def test_reload_ranks_nonzero_engages_reload(self):
        """A real reload target must charge rebalancing infrastructure."""
        g, t = graph(), template()
        result = run_pipeline(
            g, t, 1, PipelineOptions(num_ranks=6, reload_ranks=2)
        )
        assert result.total_infrastructure_seconds > 0.0

    def test_naive_equivalent(self):
        g, t = graph(), template()
        assert (
            naive_search(g, t, 2, PipelineOptions(num_ranks=3)).match_vectors
            == reference_vectors(g, t, 2)
        )


class TestReporting:
    def test_levels_run_bottom_up(self):
        g, t = graph(), template()
        result = run_pipeline(g, t, 1, PipelineOptions(num_ranks=2))
        assert [lvl.distance for lvl in result.levels] == [1, 0]

    def test_k_clamped_to_meaningful_distance(self):
        g, t = graph(), template()  # 4 vertices, 4 edges -> max distance 1
        result = run_pipeline(g, t, 5, PipelineOptions(num_ranks=2))
        assert [lvl.distance for lvl in result.levels] == [1, 0]

    def test_candidate_set_reported(self):
        g, t = graph(), template()
        result = run_pipeline(g, t, 1, PipelineOptions(num_ranks=2))
        assert result.candidate_set_vertices > 0
        assert result.candidate_set_seconds > 0

    def test_union_sizes_shrink_with_distance(self):
        t = wdc1_template()
        labels = [t.label(v) for v in sorted(t.graph.vertices())]
        g = planted_graph(200, 450, t.edges(), labels, copies=3, num_labels=12, seed=6)
        result = run_pipeline(g, t, 2, PipelineOptions(num_ranks=2))
        # deeper levels (more relaxed prototypes) match at least as much
        sizes = {lvl.distance: lvl.union_vertices for lvl in result.levels}
        assert sizes[2] >= sizes[1] >= sizes[0]

    def test_message_summary(self):
        g, t = graph(), template()
        result = run_pipeline(g, t, 1, PipelineOptions(num_ranks=2))
        summary = result.message_summary
        assert summary["total_messages"] > 0
        assert 0 <= summary["remote_fraction"] <= 1
        assert "max_candidate_set" in summary["phases"]

    def test_total_labels(self):
        g, t = graph(), template()
        result = run_pipeline(g, t, 1, PipelineOptions(num_ranks=2))
        assert result.total_labels_generated() == sum(
            len(v) for v in result.match_vectors.values()
        )

    def test_union_subgraph(self):
        g, t = graph(), template()
        result = run_pipeline(g, t, 1, PipelineOptions(num_ranks=2))
        union = result.union_subgraph(g)
        assert set(union.vertices()) == result.matched_vertices()

    def test_match_vector_accessors(self):
        g, t = graph(), template()
        result = run_pipeline(g, t, 1, PipelineOptions(num_ranks=2))
        some_vertex = next(iter(result.match_vectors))
        assert result.match_vector(some_vertex)
        assert result.match_vector(-999) == frozenset()
        root = result.prototype_set.at(0)[0]
        assert result.vertices_matching(root.id) <= result.matched_vertices()

    def test_level_for_and_outcome_for_missing(self):
        g, t = graph(), template()
        result = run_pipeline(g, t, 1, PipelineOptions(num_ranks=2))
        assert result.level_for(0).distance == 0
        with pytest.raises(KeyError):
            result.level_for(9)
        with pytest.raises(KeyError):
            result.outcome_for(10**6)

    def test_wall_and_simulated_times_positive(self):
        g, t = graph(), template()
        result = run_pipeline(g, t, 1, PipelineOptions(num_ranks=2))
        assert result.total_wall_seconds > 0
        assert result.total_simulated_seconds > 0


class TestOptionValidation:
    def test_bad_parallel(self):
        with pytest.raises(PipelineError):
            PipelineOptions(parallel_deployments=0)

    def test_bad_load_balance(self):
        with pytest.raises(PipelineError):
            PipelineOptions(load_balance="magic")

    def test_bad_cost_source(self):
        with pytest.raises(PipelineError):
            PipelineOptions(prototype_cost_source="oracle")

    def test_bad_backend(self):
        with pytest.raises(PipelineError, match="backend"):
            PipelineOptions(backend="kernel")

    def test_naive_options_disable_optimizations(self):
        opts = naive_options(PipelineOptions(num_ranks=7))
        assert opts.num_ranks == 7
        assert not opts.use_max_candidate_set
        assert not opts.use_containment
        assert not opts.work_recycling


class TestOptimizationEffects:
    """The paper's cost claims, at small scale: optimizations reduce work."""

    def test_hgt_fewer_messages_than_naive_on_selective_pattern(self):
        # WDC-1-like setting: selective labels, k=2, planted matches.
        t = wdc1_template()
        labels = [t.label(v) for v in sorted(t.graph.vertices())]
        edges = t.edges()
        g = planted_graph(300, 700, edges, labels, copies=3, num_labels=12, seed=3)
        hgt = run_pipeline(g, t, 2, PipelineOptions(num_ranks=4))
        nve = naive_search(g, t, 2, PipelineOptions(num_ranks=4))
        assert hgt.message_summary["total_messages"] < nve.message_summary[
            "total_messages"
        ]
        assert hgt.match_vectors == nve.match_vectors

    def test_recycling_reduces_nlcc_messages(self):
        t = rmat1_template(labels=[0, 1, 2, 3, 4, 5])
        labels = [t.label(v) for v in sorted(t.graph.vertices())]
        g = planted_graph(200, 500, t.edges(), labels, copies=3, num_labels=8, seed=4)
        with_recycling = run_pipeline(g, t, 2, PipelineOptions(num_ranks=2))
        without = run_pipeline(
            g, t, 2, PipelineOptions(num_ranks=2, work_recycling=False)
        )
        assert (
            with_recycling.message_summary["phases"]["nlcc"]["messages"]
            <= without.message_summary["phases"]["nlcc"]["messages"]
        )
        assert with_recycling.match_vectors == without.match_vectors

    def test_reshuffle_improves_simulated_time_under_skew(self):
        t = wdc1_template()
        labels = [t.label(v) for v in sorted(t.graph.vertices())]
        g = planted_graph(300, 700, t.edges(), labels, copies=4, num_labels=12, seed=5)
        balanced = run_pipeline(
            g, t, 1, PipelineOptions(num_ranks=4, load_balance="reshuffle")
        )
        plain = run_pipeline(g, t, 1, PipelineOptions(num_ranks=4))
        assert balanced.match_vectors == plain.match_vectors
        # reshuffled runs should not be drastically worse
        assert balanced.total_simulated_seconds < 3 * plain.total_simulated_seconds
