"""Searching ``G[M*]`` instead of ``G`` changes nothing one can observe.

Both in-process level drivers re-pack the run onto the ``induced_view`` of
``M*`` right after computing it (``pipeline.compact_scope``), and the
bottom-up sweep re-packs again onto level views as its unions prune.  The
rule is ``pipeline.AUX_VIEW_RATIO``: patched to 1.0 it compacts whenever
anything was pruned, to a tiny value never, so every case below runs one
query both ways and compares

* the answer — match vectors, per-prototype solution vertices / edges,
  mapping counts and the collected mappings themselves;
* the accounting — ``message_summary`` (total, remote, visits, barriers,
  control, per phase), per-outcome messages, LCC rounds and token counts,
  per-level union sizes and the simulated seconds derived from all that;

over driver × feature: ``run_pipeline``, ``exploratory_search``,
``run_batch`` / ``count_motifs(batched=True)`` × the enumeration
optimization (whose derived states must land on the view's CSR — the
defect this suite was written for), collected matches, edge labels,
wildcards, mandatory edges, a > 64-role template, block partitioning and
delegates, with level views nested on top.  Then the title's contract,
directly: precision and recall against the brute-force matcher with the
compaction on — also for a checkpointed run resumed after a crash at each
level, and for every edge-flip variant, on both backends.  Last, the runs that must *not* compact —
rebalanced, naive — say so and still agree (the rebalanced and naive ones
with brute force too), and the reshuffle's degree packing, read off the
bitmaps, equals the one of the materialized pruned graph.
"""

import contextlib
import tempfile
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    ArraySearchState,
    PatternTemplate,
    PipelineOptions,
    count_motifs,
    exploratory_search,
    generate_prototypes,
    max_candidate_arrays,
    resume_pipeline,
    run_pipeline,
    run_pipeline_with_checkpoints,
)
import repro.core.pipeline as pipeline_module
from repro.core.batch import BatchQuery, run_batch
from repro.core.results import NLCC_COUNTERS
from repro.core.flips import run_flip_pipeline
from repro.core.patterns import wdc1_template, wdc2_template, wdc3_template
from repro.core.template import clique_template
from repro.core.wildcards import WILDCARD, run_wildcard_pipeline
from repro.graph.generators import gnm_graph, planted_graph
from repro.graph.graph import Graph
from repro.graph.isomorphism import find_subgraph_isomorphisms
from repro.runtime import Engine, MessageStats, PartitionedGraph
from repro.runtime.partition import degree_packing, graph_degrees

#: ``pipeline.AUX_VIEW_RATIO`` values that force the M* and level views
#: on / off
ON = 1.0
OFF = 1e-9


@contextlib.contextmanager
def view_ratio(value):
    """Run the block with ``pipeline.AUX_VIEW_RATIO`` set to ``value``."""
    with mock.patch.object(pipeline_module, "AUX_VIEW_RATIO", value):
        yield


SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def planted_case(template, seed=3):
    """A labeled G(n, m) background with three planted template copies."""
    labels = [template.label(v) for v in sorted(template.graph.vertices())]
    graph = planted_graph(
        300, 700, template.edges(), labels, copies=3, num_labels=12, seed=seed
    )
    return graph, template


def edge_labeled_case():
    """A labeled triangle-with-tail template over an edge-labeled graph."""
    template = PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3)],
        {0: 0, 1: 1, 2: 2, 3: 0},
        edge_labels={(0, 1): 7, (2, 3): 8},
        name="tri-tail",
    )
    background = gnm_graph(160, 520, num_labels=4, seed=5)
    graph = Graph()
    for v in background.vertices():
        graph.add_vertex(v, background.label(v))
    for i, (u, v) in enumerate(sorted(background.edges())):
        graph.add_edge(u, v, (7, 8, None)[i % 3])
    base = 1000
    for copy in range(3):
        ids = [base + 10 * copy + r for r in range(4)]
        for r, v in enumerate(ids):
            graph.add_vertex(v, template.label(r))
        for u, v in template.edges():
            graph.add_edge(ids[u], ids[v], template.graph.edge_label(u, v))
    return graph, template


def mandatory_case():
    template = wdc2_template()
    mandatory = PatternTemplate(
        template.graph, mandatory_edges=[(2, 3), (0, 1)], name="WDC-2-mand"
    )
    return planted_case(mandatory, seed=8)


def wide_case():
    """66 roles: a C4 with mirrored labels dragging a 62-vertex tail."""
    tail = list(range(4, 66))
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]
    edges += [(v, v + 1) for v in tail[:-1]]
    labels = {0: 0, 1: 1, 2: 1, 3: 0, **{v: v for v in tail}}
    template = PatternTemplate.from_edges(edges, labels, name="wide")
    graph = gnm_graph(120, 260, num_labels=3, seed=2)
    for copy in range(2):
        offset = 1000 * (copy + 1)
        for v, label in labels.items():
            graph.add_vertex(offset + v, label)
        for u, v in edges:
            graph.add_edge(offset + u, offset + v)
        graph.add_edge(offset, copy)  # hang the copy off the background
    # a near-match: the C4 without its tail
    for v, label in ((5000, 0), (5001, 1), (5002, 1), (5003, 0)):
        graph.add_vertex(v, label)
    for u, v in ((5000, 5001), (5001, 5002), (5002, 5003), (5003, 5000)):
        graph.add_edge(u, v)
    return graph, template


def dusty_graph():
    """A dense single-label core plus isolated 'dust' edges.

    Every vertex has a neighbour, so the unlabeled clique's ``M*`` keeps
    all of them: the census drops the dust through its level views.
    """
    graph = gnm_graph(60, 200, num_labels=1, seed=13)
    for i in range(40):
        u, v = 500 + 2 * i, 501 + 2 * i
        graph.add_vertex(u, 0)
        graph.add_vertex(v, 0)
        graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# what "nothing moved" means
# ----------------------------------------------------------------------
def canonical_matches(matches):
    if matches is None:
        return None
    return sorted(sorted(mapping.items()) for mapping in matches)


def outcome_view(outcome):
    return {
        "proto": outcome.proto_id,
        "vertices": outcome.solution_vertices,
        "edges": outcome.solution_edges,
        "mappings": outcome.match_mappings,
        "distinct": outcome.distinct_matches,
        "matches": canonical_matches(outcome.matches),
        "messages": outcome.messages,
        "remote_messages": outcome.remote_messages,
        "simulated_seconds": outcome.simulated_seconds,
        "lcc_iterations": outcome.lcc_iterations,
        "post_lcc": (outcome.post_lcc_vertices, outcome.post_lcc_edges),
        "nlcc": {
            key: outcome.counts.get(counter, 0)
            for key, counter in NLCC_COUNTERS.items()
        },
    }


def run_view(result):
    return {
        "match_vectors": result.match_vectors,
        "candidate_set": (
            result.candidate_set_vertices, result.candidate_set_edges,
            result.candidate_set_seconds,
        ),
        "levels": [
            (
                level.distance, level.union_vertices, level.union_edges,
                level.post_lcc_vertices, level.post_lcc_edges,
                level.search_seconds,
                [outcome_view(o) for o in level.outcomes],
            )
            for level in result.levels
        ],
        "messages": result.message_summary,
        "nlcc_cache": result.nlcc_cache_stats,
        "simulated_seconds": result.total_simulated_seconds,
    }


def both_ways(run, **options):
    """``run(PipelineOptions)`` with the views forced on, then off."""
    with view_ratio(ON):
        on = run(PipelineOptions(**options))
    with view_ratio(OFF):
        off = run(PipelineOptions(**options))
    return on, off


def label_eligible_count(graph, template):
    """Vertices of ``graph`` whose label some role of ``template`` carries."""
    labels = {template.label(v) for v in template.vertices()}
    return sum(graph.label(v) in labels for v in graph.vertices())


def assert_view_between_mstar_and_labels(result, graph, template):
    """The searched view holds ``M*`` and sits inside the label view."""
    assert result.scope_view is not None
    assert (
        result.candidate_set_vertices
        <= result.scope_view[0]
        <= label_eligible_count(graph, template)
    )


def assert_compaction_is_invisible(on, off):
    assert off.scope_view is None
    assert on.scope_view is not None
    vertices, _edges = on.scope_view
    assert vertices == on.candidate_set_vertices > 0
    assert run_view(on) == run_view(off)


# ----------------------------------------------------------------------
# driver x feature, compaction on vs off
# ----------------------------------------------------------------------
BOTTOM_UP_FEATURES = {
    "default": {},
    "count": {"count_matches": True},
    "collect": {"collect_matches": True},
    "extension": {"enumeration_optimization": True, "count_matches": True},
    "extension-collect": {
        "enumeration_optimization": True, "collect_matches": True,
    },
    "block": {"partition_strategy": "block"},
    "delegates": {"delegate_degree_threshold": 8},
    "block-delegates": {
        "partition_strategy": "block", "delegate_degree_threshold": 6,
        "ranks_per_node": 2,
    },
    # no option of its own: ``both_ways`` builds a level view wherever
    # one is sound; this column also checks that run against brute force
    "aux-views": {"count_matches": True},
    "no-recycling": {"work_recycling": False},
    "walk-cost": {"constraint_ordering": "walk-cost"},
    "deployments": {"parallel_deployments": 2},
}


class TestBottomUp:
    @pytest.mark.parametrize("feature", sorted(BOTTOM_UP_FEATURES))
    def test_wdc1(self, feature):
        graph, template = planted_case(wdc1_template())
        on, off = both_ways(
            lambda options: run_pipeline(graph, template, 2, options),
            num_ranks=4, **BOTTOM_UP_FEATURES[feature],
        )
        assert on.matched_vertices()
        assert_compaction_is_invisible(on, off)
        if feature == "aux-views":
            assert on.aux_views_built > 0
            assert_precise_and_complete(on, brute_force(graph, template, 2))

    @pytest.mark.parametrize(
        "make_template, k",
        [(wdc1_template, 2), (wdc2_template, 2), (wdc3_template, 3)],
        ids=["WDC-1", "WDC-2", "WDC-3"],
    )
    def test_extension_chain_lands_on_the_view(self, make_template, k):
        # With the compaction in and `_try_extension` left on G's CSR this
        # died in `absorb_solution` (shapes (961,) vs (6000,)).
        graph, template = planted_case(make_template(), seed=4)
        on, off = both_ways(
            lambda options: run_pipeline(graph, template, k, options),
            num_ranks=4, enumeration_optimization=True, count_matches=True,
        )
        assert on.total_match_mappings() > 0
        assert_compaction_is_invisible(on, off)

    def test_aux_views_nest_on_the_mstar_view(self):
        # the default rule builds level views; a tiny ratio builds none
        graph, template = planted_case(wdc1_template())
        on = run_pipeline(graph, template, 2, PipelineOptions(num_ranks=4))
        with view_ratio(OFF):
            plain = run_pipeline(
                graph, template, 2, PipelineOptions(num_ranks=4)
            )
        # level views sit inside the M* view (or the label view it ran
        # on) and keep their own counters
        assert_view_between_mstar_and_labels(on, graph, template)
        assert on.aux_views_built > 0 and on.aux_view_reuse > 0
        assert all(
            size[0] <= on.scope_view[0] for size in on.aux_view_sizes
        )
        assert plain.aux_views_built == plain.aux_view_reuse == 0
        assert plain.scope_view is None
        assert run_view(on) == run_view(plain)

    def test_edge_labels(self):
        graph, template = edge_labeled_case()
        for extra in ({"count_matches": True},
                      {"enumeration_optimization": True, "collect_matches": True}):
            on, off = both_ways(
                lambda options: run_pipeline(graph, template, 1, options),
                num_ranks=3, **extra,
            )
            assert on.matched_vertices()
            assert_compaction_is_invisible(on, off)

    def test_mandatory_edges(self):
        graph, template = mandatory_case()
        on, off = both_ways(
            lambda options: run_pipeline(graph, template, 2, options),
            num_ranks=4, count_matches=True,
        )
        assert on.matched_vertices()
        assert_compaction_is_invisible(on, off)

    def test_more_than_64_roles(self):
        graph, template = wide_case()
        on, off = both_ways(
            lambda options: run_pipeline(graph, template, 1, options),
            num_ranks=4, count_matches=True,
        )
        assert len(on.matched_vertices()) >= 2 * 66
        assert_compaction_is_invisible(on, off)

    def test_wildcards(self):
        graph, base = planted_case(wdc1_template())
        labels = {v: base.label(v) for v in base.vertices()}
        labels[max(labels)] = WILDCARD
        template = PatternTemplate.from_edges(
            base.edges(), labels, name="WDC-1-wild"
        )
        on, off = both_ways(
            lambda options: run_wildcard_pipeline(graph, template, 1, options),
            num_ranks=4, count_matches=True,
        )
        assert on.match_vectors and on.match_vectors == off.match_vectors
        compacted = 0
        for name, result in on.per_instantiation.items():
            other = off.per_instantiation[name]
            assert other.scope_view is None
            assert run_view(result) == run_view(other)
            compacted += result.scope_view is not None
        assert compacted


EXPLORATORY_FEATURES = {
    name: BOTTOM_UP_FEATURES[name]
    for name in (
        "default", "count", "collect", "block", "delegates",
        "no-recycling", "walk-cost",
    )
}


class TestExploratory:
    @pytest.mark.parametrize("feature", sorted(EXPLORATORY_FEATURES))
    def test_wdc1(self, feature):
        graph, template = planted_case(wdc1_template())
        on, off = both_ways(
            lambda options: exploratory_search(
                graph, template, max_k=2, stop_condition=lambda level: False,
                options=options,
            ),
            num_ranks=4, **EXPLORATORY_FEATURES[feature],
        )
        assert len(on.levels) == 3 and on.matched_vertices()
        assert_compaction_is_invisible(on, off)

    def test_edge_labels_and_the_default_stop(self):
        graph, template = edge_labeled_case()
        on, off = both_ways(
            lambda options: exploratory_search(graph, template, options=options),
            num_ranks=3, count_matches=True,
        )
        assert_compaction_is_invisible(on, off)

    def test_more_than_64_roles(self):
        graph, template = wide_case()
        on, off = both_ways(
            lambda options: exploratory_search(
                graph, template, max_k=1, options=options
            ),
            num_ranks=4,
        )
        assert_compaction_is_invisible(on, off)


class TestBatched:
    def batch_view(self, batch):
        return {
            "items": {
                name: (
                    item.matched_vertices, item.match_mappings,
                    item.distinct_matches,
                )
                for name, item in batch.items.items()
            },
            "classes": {
                name: run_view(result)
                for name, result in batch.class_results.items()
            },
        }

    def assert_batches_agree(self, on, off):
        assert self.batch_view(on) == self.batch_view(off)

    # the views must stay invisible with NLCC work recycling (Obs. 2) on
    # and off
    @pytest.mark.parametrize("work_recycling", [False, True])
    def test_run_batch(self, work_recycling):
        graph, wdc1 = planted_case(wdc1_template())
        queries = [
            BatchQuery(wdc1, 2, name="wdc1-k2"),
            BatchQuery(wdc1, 1, name="wdc1-k1"),  # M* out of the shared memo
            BatchQuery(wdc2_template(), 1, name="wdc2-k1"),
        ]
        on, off = both_ways(
            lambda options: run_batch(graph, queries, options),
            num_ranks=4, count_matches=True,
            work_recycling=work_recycling,
        )
        assert on["wdc1-k2"].matched_vertices
        assert on.memo.hits >= 1
        assert all(r.scope_view is None for r in off.class_results.values())
        assert all(
            r.scope_view is not None for r in on.class_results.values()
        )
        self.assert_batches_agree(on, off)

    def test_motif_census(self):
        graph = dusty_graph()
        on, off = both_ways(
            lambda options: count_motifs(graph, 4, options, batched=True),
            num_ranks=2,
        )
        for induced in (False, True):
            assert on.by_name(induced=induced) == off.by_name(induced=induced)
        assert sum(on.by_name(induced=False).values()) > 0
        self.assert_batches_agree(on.batch, off.batch)


# ----------------------------------------------------------------------
# the contract itself, compaction on
# ----------------------------------------------------------------------
@st.composite
def small_templates(draw):
    """A connected template of 3-5 vertices, labels repeated on purpose."""
    n = draw(st.integers(3, 5))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.integers(0, 2)))
    for v in range(1, n):
        graph.add_edge(draw(st.integers(0, v - 1)), v)
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and draw(st.booleans()):
                graph.add_edge(u, v)
    return PatternTemplate(graph, name="random")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(4, 22))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.integers(0, 2)))
    for _ in range(draw(st.integers(n, 4 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def brute_force(graph, template, k):
    """``{proto id: (matched vertices, mapping count)}`` by backtracking."""
    truth = {}
    for proto in generate_prototypes(template, k):
        vertices, count = set(), 0
        for mapping in find_subgraph_isomorphisms(proto.graph, graph):
            vertices.update(mapping.values())
            count += 1
        truth[proto.id] = (vertices, count)
    return truth


def assert_precise_and_complete(result, truth, counted=True):
    for proto_id, (vertices, count) in truth.items():
        outcome = result.outcome_for(proto_id)
        found = outcome.solution_vertices
        assert found <= vertices, f"precision: {found - vertices} are no match"
        assert vertices <= found, f"recall: missed {vertices - found}"
        if counted:
            assert outcome.match_mappings == count


class TestAgainstBruteForce:
    @SLOW
    @given(
        small_templates(), small_graphs(), st.integers(0, 2),
        st.sampled_from(["count", "extension", "block"]),
    )
    def test_bottom_up(self, template, graph, k, feature):
        k = min(k, template.max_meaningful_distance())
        with view_ratio(ON):
            result = run_pipeline(
                graph, template, k,
                PipelineOptions(**{
                    "num_ranks": 2, "count_matches": True,
                    **BOTTOM_UP_FEATURES[feature],
                }),
            )
        truth = brute_force(graph, template, k)
        assert_precise_and_complete(result, truth)
        vectors = {}
        for proto_id, (vertices, _count) in truth.items():
            for v in vertices:
                vectors.setdefault(v, set()).add(proto_id)
        assert result.match_vectors == vectors
        # M* holds every match, so dropping nothing means no view — and a
        # view, when built, is exactly M*
        if result.candidate_set_vertices < graph.num_vertices:
            assert result.scope_view[0] == result.candidate_set_vertices
        else:
            assert result.scope_view is None

    @SLOW
    @given(small_templates(), small_graphs())
    def test_exploratory(self, template, graph):
        k = min(2, template.max_meaningful_distance())
        with view_ratio(ON):
            result = exploratory_search(
                graph, template, max_k=k, stop_condition=lambda level: False,
                options=PipelineOptions(num_ranks=2, count_matches=True),
            )
        assert_precise_and_complete(result, brute_force(graph, template, k))

    @SLOW
    @given(
        small_templates(), small_graphs(), st.integers(0, 2),
        st.sampled_from(["array", "reference"]),
    )
    def test_resumed_after_a_crash_at_every_level(
        self, template, graph, k, backend
    ):
        k = min(k, template.max_meaningful_distance())
        truth = brute_force(graph, template, k)
        for crash in range(generate_prototypes(template, k).max_distance, -1, -1):
            options = PipelineOptions(num_ranks=2, backend=backend)
            with view_ratio(ON), tempfile.TemporaryDirectory() as directory:
                with pytest.raises(RuntimeError, match="injected failure"):
                    run_pipeline_with_checkpoints(
                        graph, template, k, directory, options,
                        fail_after_level=crash,
                    )
                result = resume_pipeline(graph, template, directory, options)
            assert_precise_and_complete(result, truth, counted=False)

    @SLOW
    @given(
        small_templates(), small_graphs(),
        st.sampled_from(["array", "reference"]),
    )
    def test_flips(self, template, graph, backend):
        result = run_flip_pipeline(
            graph, template, flips=1,
            options=PipelineOptions(num_ranks=2, backend=backend),
        )
        for variant in result.variants:
            truth = {
                v
                for mapping in find_subgraph_isomorphisms(variant.graph, graph)
                for v in mapping.values()
            }
            found = result.outcomes[variant.name].solution_vertices
            assert found <= truth, f"precision: {found - truth} are no match"
            assert truth <= found, f"recall: missed {truth - found}"


# ----------------------------------------------------------------------
# runs that stay on G
# ----------------------------------------------------------------------
class TestRunsThatDoNotCompact:
    def reference(self, graph, template, k, **extra):
        with view_ratio(ON):
            return run_pipeline(
                graph, template, k, PipelineOptions(num_ranks=4, **extra)
            )

    @pytest.mark.parametrize(
        "extra",
        [
            {"reload_ranks": 4},
            {"reload_ranks": 2},
            {"search_space_reduction": False},
        ],
        ids=["reshuffle", "reload", "naive"],
    )
    def test_rebalanced_and_naive(self, extra):
        graph, template = planted_case(wdc1_template())
        compacted = self.reference(graph, template, 2, count_matches=True)
        assert compacted.scope_view is not None
        result = self.reference(
            graph, template, 2, count_matches=True, **extra
        )
        assert result.scope_view is None
        assert result.stats_document()["scope_view"] is None
        assert result.match_vectors == compacted.match_vectors
        for outcome in result.outcomes():
            other = compacted.outcome_for(outcome.proto_id)
            assert outcome.solution_edges == other.solution_edges
            assert outcome.match_mappings == other.match_mappings
        assert_precise_and_complete(result, brute_force(graph, template, 2))

    @pytest.mark.parametrize(
        "case",
        [
            lambda: planted_case(wdc1_template()),
            edge_labeled_case,
            mandatory_case,
            wide_case,
            lambda: (dusty_graph(), clique_template(3, labels=[0, 0, 0])),
        ],
        ids=["WDC-1", "edge-labels", "mandatory", "wide", "dusty"],
    )
    def test_reshuffle_packs_the_arrays_like_the_pruned_graph(self, case):
        # The reshuffle reads vertex order and degrees off the bitmaps;
        # the packing must equal the one of the materialized pruned graph,
        # on M* and on the unpruned label seeding (whose edges toward
        # non-candidates are alive in one direction only).
        graph, template = case()
        engine = Engine(PartitionedGraph(graph, 4), MessageStats(4))
        for scope in (
            ArraySearchState.initial(graph, template),
            max_candidate_arrays(graph, template, engine),
        ):
            vertices, degrees = scope.active_degrees()
            pruned = scope.to_search_state().to_graph()
            assert vertices == list(pruned.vertices())
            assert sum(degrees) == 2 * pruned.num_edges
            for ranks in (1, 3, 4):
                assert degree_packing(vertices, degrees, ranks) == (
                    degree_packing(*graph_degrees(pruned), ranks)
                )

    def test_reload_ranks_zero_is_no_reload(self):
        graph, template = planted_case(wdc1_template())
        result = self.reference(graph, template, 1, reload_ranks=0)
        assert result.scope_view is not None


# ----------------------------------------------------------------------
# which CSR did the run search?
# ----------------------------------------------------------------------
class TestScopeViewIsReported:
    def test_result_document_span_and_counters(self):
        from repro.runtime.trace import Tracer

        graph, template = planted_case(wdc1_template())
        tracer = Tracer()
        result = run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=4, tracer=tracer)
        )
        vertices, edges = result.scope_view
        # vertex-induced: M*'s vertices or, when M* kept more than
        # AUX_VIEW_RATIO of them, the label view's, and every background
        # edge among them — the alive ones and those Obs. 1 may readmit
        assert_view_between_mstar_and_labels(result, graph, template)
        assert edges >= result.candidate_set_edges
        document = result.stats_document()
        assert document["scope_view"] == [vertices, edges]
        counters = document["metrics"]["counters"]
        assert counters["scope_view.built"] == 1
        assert counters["scope_view.vertices"] == vertices
        assert counters["scope_view.edges"] == edges
        spans = [
            span for root in tracer.roots for span in root.children
            if span.name == "scope_view"
        ]
        assert len(spans) == 1
        assert spans[0].counters == {
            "scope_view.built": 1, "scope_view.vertices": vertices,
            "scope_view.edges": edges,
        }

    def test_default_ratio_leaves_a_mostly_kept_graph_alone(self):
        # unlabeled clique on an unlabeled graph: M* keeps whatever has a
        # neighbour, far more than AUX_VIEW_RATIO of G
        graph = gnm_graph(60, 200, num_labels=1, seed=13)
        result = run_pipeline(
            graph, clique_template(3, labels=[0, 0, 0]), 1, PipelineOptions()
        )
        assert result.candidate_set_vertices > 0.6 * graph.num_vertices
        assert result.scope_view is None
        assert "scope_view.built" not in (
            result.stats_document()["metrics"]["counters"]
        )
