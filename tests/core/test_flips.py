"""Tests for edge-flip template variants."""

import hashlib
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import PatternTemplate, PipelineOptions
from repro.core.flips import (
    _single_flips,
    envelope_template,
    generate_flip_variants,
    run_flip_pipeline,
)
from repro.errors import TemplateError
from repro.graph import are_isomorphic, is_connected
from repro.graph.generators import planted_graph
from repro.graph.isomorphism import canonical_form, find_subgraph_isomorphisms


def base_template():
    # Path 1-2-3-4: flips can re-wire it into stars and other trees.
    return PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 3)],
        labels={0: 1, 1: 2, 2: 3, 3: 4},
        name="p4",
    )


def flip_case(name):
    """The flip grid's two workloads: the path planted, or a star planted
    that only a flip of the path matches."""
    template = base_template()
    if name == "path":
        planted, edges, seed = template.edges(), 80, 19
    else:
        planted, edges, seed = [(1, 0), (1, 2), (1, 3)], 70, 23
    graph = planted_graph(
        40, edges, planted, [1, 2, 3, 4], copies=2, num_labels=5, seed=seed,
    )
    return graph, template


class TestVariantGeneration:
    def test_original_is_variant_zero(self):
        variants = generate_flip_variants(base_template(), flips=1)
        assert variants[0].graph == base_template().graph

    def test_all_connected_same_edge_count(self):
        template = base_template()
        for variant in generate_flip_variants(template, flips=2):
            assert is_connected(variant.graph)
            assert variant.num_edges == template.num_edges
            assert set(variant.graph.vertices()) == set(template.graph.vertices())

    def test_no_isomorphic_duplicates(self):
        variants = generate_flip_variants(base_template(), flips=1)
        for i, a in enumerate(variants):
            for b in variants[i + 1 :]:
                assert not are_isomorphic(a.graph, b.graph)

    def test_zero_flips(self):
        variants = generate_flip_variants(base_template(), flips=0)
        assert len(variants) == 1

    def test_negative_flips_rejected(self):
        with pytest.raises(TemplateError):
            generate_flip_variants(base_template(), flips=-1)

    def test_budget_enforced(self):
        with pytest.raises(TemplateError):
            generate_flip_variants(base_template(), flips=2, max_variants=2)

    def test_mandatory_edges_survive_flips(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            mandatory_edges=[(1, 2)],
        )
        for variant in generate_flip_variants(template, flips=2):
            assert variant.graph.has_edge(1, 2)



def mandatory_path(length):
    """The path 0-1-…-``length``, every label 0, edge (0, 1) mandatory."""
    return PatternTemplate.from_edges(
        [(i, i + 1) for i in range(length)], {i: 0 for i in range(length + 1)},
        mandatory_edges=[(0, 1)],
    )


def shapes_by_bfs(template, flips):
    """Brute force: every edge set within ``flips`` single flips, no
    dedup, reduced to its plain shapes at the end."""
    seen = {frozenset(template.edges()): template}
    frontier = [template]
    for _ in range(flips):
        following = []
        for variant in frontier:
            for flipped in _single_flips(variant):
                edges = frozenset(flipped.edges())
                if edges not in seen:
                    seen[edges] = flipped
                    following.append(flipped)
        frontier = following
    return {canonical_form(variant.graph) for variant in seen.values()}


class TestShapesBehindMandatoryEdges:
    """Two variants of one shape whose mandatory edges sit elsewhere allow
    different flips; merging them loses the shapes only one reaches."""

    @pytest.mark.parametrize("length, flips, shapes", [(4, 2, 3), (5, 3, 6)])
    def test_every_reachable_shape(self, length, flips, shapes):
        template = mandatory_path(length)
        variants = generate_flip_variants(template, flips=flips)
        forms = [canonical_form(v.graph) for v in variants]
        assert len(set(forms)) == len(forms) == shapes
        assert set(forms) == shapes_by_bfs(template, flips)
        assert variants[0] is template
        assert all(v.graph.has_edge(0, 1) for v in variants)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(3, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.integers(0, 2 ** n), min_size=n - 1, max_size=n - 1),
                st.integers(0, 2),
            )
        ),
        st.integers(1, 2),
    )
    def test_against_brute_force(self, drawn, flips):
        n, labels, parents, mandatory_count = drawn
        edges = [(parent % (v + 1), v + 1) for v, parent in enumerate(parents)]
        template = PatternTemplate.from_edges(
            edges, dict(enumerate(labels)),
            mandatory_edges=edges[:mandatory_count],
        )
        variants = generate_flip_variants(template, flips=flips)
        forms = [canonical_form(v.graph) for v in variants]
        assert len(set(forms)) == len(forms)
        assert set(forms) == shapes_by_bfs(template, flips)

class TestEnvelope:
    def test_envelope_covers_all_variants(self):
        template = base_template()
        variants = generate_flip_variants(template, flips=1)
        envelope = envelope_template(template, variants)
        for variant in variants:
            for u, v in variant.edges():
                assert envelope.graph.has_edge(u, v)

    def test_envelope_connected(self):
        template = base_template()
        variants = generate_flip_variants(template, flips=1)
        assert is_connected(envelope_template(template, variants).graph)


class TestFlipPipeline:
    def test_precision_and_recall_per_variant(self):
        graph, template = flip_case("path")
        result = run_flip_pipeline(
            graph, template, flips=1, options=PipelineOptions(num_ranks=2)
        )
        for variant in result.variants:
            expected = {
                v
                for m in find_subgraph_isomorphisms(variant.graph, graph)
                for v in m.values()
            }
            assert result.outcomes[variant.name].solution_vertices == expected

    def test_match_vectors_union(self):
        graph, template = flip_case("path")
        result = run_flip_pipeline(
            graph, template, flips=1, options=PipelineOptions(num_ranks=2)
        )
        expected = set()
        for outcome in result.outcomes.values():
            expected |= outcome.solution_vertices
        assert result.matched_vertices() == expected
        assert template.name in repr(result)

    def test_finds_flipped_structure_the_template_misses(self):
        """Plant a star; the path template only matches via a flip."""
        graph, template = flip_case("star")
        result = run_flip_pipeline(
            graph, template, flips=1, options=PipelineOptions(num_ranks=2)
        )
        with_matches = result.variants_with_matches()
        star_variants = [
            v.name for v in result.variants
            if any(v.graph.degree(w) == 3 for w in v.graph.vertices())
        ]
        assert any(name in with_matches for name in star_variants)

    @pytest.mark.parametrize("backend", ["array", "reference"])
    def test_options_reach_every_engine(self, backend):
        # tracer and metrics registry thread into the M* engine and every
        # variant's search, like the level drivers'
        from repro.runtime.trace import Tracer

        graph, template = flip_case("path")
        tracer = Tracer()
        options = PipelineOptions(num_ranks=2, tracer=tracer, backend=backend)
        result = run_flip_pipeline(graph, template, flips=1, options=options)
        assert len(tracer.find("prototype")) == len(result.variants)
        assert len(tracer.find("max_candidate_set")) == 1
        counters = options.metrics.snapshot()["counters"]
        assert counters["engine.traversals"] + counters.get(
            "engine.rounds_batched", 0
        ) > 0
        plain = run_flip_pipeline(
            graph, template, flips=1, options=PipelineOptions(num_ranks=2)
        )
        assert result.match_vectors == plain.match_vectors


def answer_digest(result):
    """Match vectors and every variant's solution subgraph, hashed."""
    document = {
        "vectors": sorted(
            (v, sorted(names)) for v, names in result.match_vectors.items()
        ),
        "variants": [
            (
                variant.name,
                sorted(result.outcomes[variant.name].solution_vertices),
                sorted(result.outcomes[variant.name].solution_edges),
            )
            for variant in result.variants
        ],
    }
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()[:16]


#: ``answer_digest`` of each case's answers; no backend or partition
#: option may move them
ANSWER_DIGESTS = {"path": "ee0817453aaa283b", "star": "5d87c209a0f62a80"}


class TestFlipsChargedLikeAnySearch:
    @pytest.mark.parametrize("backend", ["array", "reference"])
    def test_outcome_messages_are_its_engines_counts(self, backend, monkeypatch):
        import repro.core.pipeline as pipeline

        engine_counts = {}
        search = pipeline.search_prototype

        def recording(state, proto, plan, engine, **kwargs):
            outcome = search(state, proto, plan, engine, **kwargs)
            engine_counts[proto.name] = (
                engine.stats.total_messages, engine.stats.total_remote_messages
            )
            return outcome

        monkeypatch.setattr(pipeline, "search_prototype", recording)
        graph, template = flip_case("path")
        result = run_flip_pipeline(
            graph, template, flips=1,
            options=PipelineOptions(num_ranks=2, backend=backend),
        )
        assert set(engine_counts) == set(result.outcomes)
        for name, outcome in result.outcomes.items():
            charged = (outcome.messages, outcome.remote_messages)
            assert charged == engine_counts[name]
            assert outcome.messages > 0
        assert sum(o.remote_messages for o in result.outcomes.values()) > 0
        summary = result.message_summary
        assert summary["total_messages"] > sum(
            o.messages for o in result.outcomes.values()
        )  # plus the family's M*

    @pytest.mark.parametrize("backend", ["array", "reference"])
    def test_partition_strategy_reaches_the_searches(self, backend):
        graph, template = flip_case("path")
        hashed, blocked = (
            run_flip_pipeline(
                graph, template, flips=1,
                options=PipelineOptions(
                    num_ranks=2, backend=backend, partition_strategy=strategy
                ),
            )
            for strategy in ("hash", "block")
        )

        def remote(result):
            return sum(o.remote_messages for o in result.outcomes.values())

        assert remote(blocked) != remote(hashed)
        assert blocked.total_simulated_seconds != hashed.total_simulated_seconds
        assert blocked.match_vectors == hashed.match_vectors

    @pytest.mark.parametrize("case", sorted(ANSWER_DIGESTS))
    @pytest.mark.parametrize("backend", ["array", "reference"])
    @pytest.mark.parametrize("strategy", ["hash", "block"])
    @pytest.mark.parametrize("deployments", [1, 2])
    def test_answers_unchanged(self, case, backend, strategy, deployments):
        graph, template = flip_case(case)
        result = run_flip_pipeline(
            graph, template, flips=1,
            options=PipelineOptions(
                num_ranks=2, backend=backend, partition_strategy=strategy,
                parallel_deployments=deployments,
            ),
        )
        assert answer_digest(result) == ANSWER_DIGESTS[case]
