"""Tests for exploratory (top-down) search and motif counting."""

import dataclasses

import pytest

from repro.core import (
    PatternTemplate,
    PipelineOptions,
    count_motifs,
    exploratory_search,
    motif_prototypes,
    motif_template,
    run_pipeline,
    stopping_distance,
)
from repro.core import pipeline as pipeline_module
from repro.core.naive import naive_options
from repro.graph import from_edges
from repro.graph.generators import gnm_graph, planted_graph


def extended_options():
    """The census on the §4 match-extension path."""
    return PipelineOptions(num_ranks=2, enumeration_optimization=True)


class TestExploratorySearch:
    def template(self):
        # Diamond (4-cycle + chord): max meaningful distance 2.
        return PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            name="diamond",
        )

    def test_stops_at_first_matching_level(self):
        t = self.template()
        # Plant only a k=1 prototype (the plain 4-cycle, chord missing).
        g = planted_graph(
            80, 160, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 2, 3, 4],
            copies=2, num_labels=6, seed=7,
        )
        result = exploratory_search(g, t, options=PipelineOptions(num_ranks=2))
        stop = stopping_distance(result)
        assert stop is not None and stop >= 1
        assert [lvl.distance for lvl in result.levels] == list(range(stop + 1))

    def test_stops_immediately_on_exact_match(self):
        t = self.template()
        g = planted_graph(
            80, 160, t.edges(), [1, 2, 3, 4], copies=2, num_labels=6, seed=8
        )
        result = exploratory_search(g, t, options=PipelineOptions(num_ranks=2))
        assert stopping_distance(result) == 0
        assert len(result.levels) == 1

    def test_no_match_searches_all_levels(self):
        t = self.template()
        g = from_edges([(0, 1)], labels={0: 1, 1: 2})
        result = exploratory_search(g, t, options=PipelineOptions(num_ranks=2))
        assert stopping_distance(result) is None
        assert len(result.levels) == t.max_meaningful_distance() + 1

    def test_agrees_with_bottom_up_at_stop_level(self):
        t = self.template()
        g = planted_graph(
            80, 160, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 2, 3, 4],
            copies=2, num_labels=6, seed=9,
        )
        top = exploratory_search(g, t, options=PipelineOptions(num_ranks=2))
        stop = stopping_distance(top)
        bottom = run_pipeline(g, t, stop, PipelineOptions(num_ranks=2))
        for proto in top.prototype_set.at(stop):
            assert (
                top.outcome_for(proto.id).solution_vertices
                == bottom.outcome_for(proto.id).solution_vertices
            )

    def test_max_k_limits_relaxation(self):
        t = self.template()
        g = from_edges([(0, 1)], labels={0: 1, 1: 2})
        result = exploratory_search(g, t, max_k=1, options=PipelineOptions(num_ranks=2))
        assert len(result.levels) == 2

    def test_custom_stop_condition(self):
        t = self.template()
        g = from_edges([(0, 1)], labels={0: 1, 1: 2})
        result = exploratory_search(
            g, t, stop_condition=lambda level: True,
            options=PipelineOptions(num_ranks=2),
        )
        assert len(result.levels) == 1


class TestMotifs:
    def test_motif_template_unlabeled(self):
        t = motif_template(4)
        assert t.label_set() == {0}
        assert t.num_edges == 6

    def test_motif_prototype_counts(self):
        assert len(motif_prototypes(3)) == 2
        assert len(motif_prototypes(4)) == 6
        assert len(motif_prototypes(5)) == 21  # connected 5-vertex graphs

    def test_triangle_and_path_counts(self):
        # One triangle with a pendant: 1 triangle, 2 induced P3.
        g = from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], labels={v: 0 for v in range(4)})
        counts = count_motifs(g, 3, extended_options())
        by_edges = {p.num_edges: counts.induced[p.id] for p in counts.prototypes}
        assert by_edges[3] == 1  # the triangle {0,1,2}
        assert by_edges[2] == 2  # induced paths {0,2,3} and {1,2,3}

    def test_agreement_with_esu_baseline(self):
        from repro.baselines import arabesque_count_motifs
        from repro.graph.isomorphism import canonical_form

        g = gnm_graph(40, 90, num_labels=1, seed=13)
        counts = count_motifs(g, 4, extended_options())
        reference = arabesque_count_motifs(g, 4)
        ours = {canonical_form(p.graph): counts.induced[p.id] for p in counts.prototypes}
        for key, value in reference.counts.items():
            assert ours[key] == value
        assert counts.total_induced() == reference.total_embeddings()

    def test_noninduced_at_least_induced(self):
        g = gnm_graph(30, 60, num_labels=1, seed=14)
        counts = count_motifs(g, 3, extended_options())
        for proto in counts.prototypes:
            assert counts.noninduced[proto.id] >= counts.induced[proto.id]

    def test_by_name(self):
        g = gnm_graph(20, 30, num_labels=1, seed=15)
        counts = count_motifs(g, 3, extended_options())
        named = counts.by_name()
        assert set(named) == {p.name for p in counts.prototypes}

    @pytest.mark.parametrize("extension", [False, True])
    def test_census_extends_exactly_when_the_options_say(
        self, monkeypatch, extension
    ):
        # count_motifs reads enumeration_optimization like every driver: a
        # naive census searches every level instead of deriving it
        calls = []
        derive = pipeline_module._try_extension

        def spy(*args, **kwargs):
            calls.append(args[0].id)
            return derive(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "_try_extension", spy)
        options = dataclasses.replace(
            naive_options(PipelineOptions(count_matches=True)),
            enumeration_optimization=extension,
        )
        g = gnm_graph(30, 60, num_labels=1, seed=14)
        counts = count_motifs(g, 4, options)
        assert bool(calls) is extension
        assert counts.total_induced() > 0

    def test_spanning_subgraph_count(self):
        from repro.core.motifs import spanning_subgraph_count

        k3 = motif_template(3).graph
        p3 = motif_prototypes(3).at(1)[0].graph
        assert spanning_subgraph_count(p3, k3) == 3  # 3 paths span a triangle
        assert spanning_subgraph_count(k3, p3) == 0  # denser cannot fit
