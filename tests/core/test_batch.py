"""Parity tests for the template-library batch executor (core/batch.py).

The batch executor is pure performance work: sharing kernels, prototype
sets, the ``M*`` traversal and auxiliary pruned views across a template
library must never change an answer.  Every test here pins the batched
path to the loop-over-``run_pipeline`` baseline — identical matched
vertices, match-mapping counts and induced/non-induced motif counts — on
the same low-label-diversity shapes as the KERNEL-STRESS and NLCC-STRESS
benchmark workloads, including a graph whose vertex ids force non-trivial
old<->new remapping through :meth:`GraphCsr.induced_view`.
"""

import numpy as np
import pytest

from repro.core import (
    BatchQuery,
    PatternTemplate,
    PipelineOptions,
    TemplateLibrary,
    clique_template,
    count_motifs,
    count_motifs_sequential,
    csr_of,
    exploratory_search,
    generate_prototypes,
    run_batch,
    run_pipeline,
)
import repro.core.pipeline as pipeline_module
from repro.core.arraystate import ArraySearchState
from repro.errors import TemplateError
from repro.graph import from_edges
from repro.graph.csr import GraphCsr
from repro.graph.graph import canonical_edge
from repro.graph.generators import gnm_graph, plant_pattern, planted_graph
from repro.runtime.trace import Tracer

from test_compact_scope import assert_view_between_mstar_and_labels


def options(**overrides):
    base = dict(num_ranks=2, count_matches=True)
    base.update(overrides)
    return PipelineOptions(**base)


def sequential_answers(graph, queries, opts):
    """The per-template baseline the batch must reproduce exactly."""
    answers = {}
    for query in queries:
        result = run_pipeline(graph, query.template, query.k, opts)
        answers[query.name] = (
            result.matched_vertices(),
            result.total_match_mappings(),
            result.total_distinct_matches(),
        )
    return answers


def assert_batch_matches_sequential(graph, queries, opts):
    expected = sequential_answers(graph, queries, opts)
    batch = run_batch(graph, queries, opts)
    assert set(batch.items) == set(expected)
    for name, (vertices, mappings, distinct) in expected.items():
        item = batch[name]
        assert item.matched_vertices == vertices, name
        assert item.match_mappings == mappings, name
        assert item.distinct_matches == distinct, name
    return batch


# ---------------------------------------------------------------- shapes
def kernel_stress_graph():
    """Scaled KERNEL-STRESS shape: 4 uniform labels, long pruning cascade."""
    return gnm_graph(300, 950, num_labels=4, seed=7)


def stress_path_template(name="stress-path6"):
    """Path with cycling labels, as in the KERNEL-STRESS benchmark."""
    labels = {v: v % 4 for v in range(6)}
    edges = [(v, v + 1) for v in range(5)]
    return PatternTemplate.from_edges(edges, labels, name=name)


def stress_cycle_template(name="stress-cycle6"):
    """6-cycle with cycling labels: k > 0 stays meaningful (edges are
    removable without disconnecting, unlike the path's tree edges)."""
    labels = {v: v % 4 for v in range(6)}
    edges = [(v, (v + 1) % 6) for v in range(6)]
    return PatternTemplate.from_edges(edges, labels, name=name)


def nlcc_stress_graph():
    """Scaled NLCC-STRESS shape: two labels, multi-role candidates."""
    return gnm_graph(300, 900, num_labels=2, seed=13)


def nlcc_stress_template(name="stress-c4"):
    """The benchmark's C4 with mirrored repeated labels (0-1-1-0)."""
    labels = {0: 0, 1: 1, 2: 1, 3: 0}
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return PatternTemplate.from_edges(edges, labels, name=name)


def dusty_motif_graph():
    """Single-label core + triangle dust over non-contiguous vertex ids.

    The MOTIF-BATCH shape at test scale, with every vertex id passed
    through ``v -> 3 + 7 * v`` so the CSR rows never coincide with the
    vertex ids — any bookkeeping that confuses view rows with original
    ids changes the counts.
    """
    core = gnm_graph(40, 110, num_labels=1, seed=23)
    remap = {v: 3 + 7 * v for v in core.vertices()}
    graph = from_edges(
        [(remap[u], remap[v]) for u, v in core.edges()],
        labels={remap[v]: 0 for v in core.vertices()},
    )
    clique_edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    plant_pattern(graph, clique_edges, [0, 0, 0, 0], copies=2, seed=29)
    next_vertex = 3 + 7 * 40
    for _ in range(120):
        a, b, c = next_vertex, next_vertex + 7, next_vertex + 14
        for vertex in (a, b, c):
            graph.add_vertex(vertex, 0)
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(c, a)
        next_vertex += 21
    return graph


# ------------------------------------------------------------ compilation
class TestTemplateLibrary:
    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(TemplateError):
            TemplateLibrary([])
        template = stress_path_template()
        with pytest.raises(TemplateError):
            TemplateLibrary(
                [BatchQuery(template, 0, name="q"),
                 BatchQuery(template, 1, name="q")]
            )

    def test_rejects_negative_k_and_clamps_large_k(self):
        template = stress_path_template()
        with pytest.raises(TemplateError):
            BatchQuery(template, -1)
        query = BatchQuery(template, 99)
        assert query.k == template.max_meaningful_distance()

    def test_label_isomorphic_queries_share_a_class(self):
        first = PatternTemplate.from_edges(
            [(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0}, name="cherry"
        )
        # Same labeled structure over disjoint, shuffled vertex ids.
        second = PatternTemplate.from_edges(
            [(5, 9), (9, 7)], {5: 0, 9: 1, 7: 0}, name="cherry-renamed"
        )
        library = TemplateLibrary(
            [BatchQuery(first, 0), BatchQuery(second, 0)]
        )
        assert len(library.classes) == 1
        cls = library.classes[0]
        assert cls.num_queries == 2
        # The second query's iso maps onto the representative,
        # label-preservingly.
        iso = cls.isos[1]
        for v in second.vertices():
            assert second.label(v) == cls.representative.label(iso[v])

    def test_same_structure_different_k_stays_separate(self):
        template = stress_cycle_template()
        other = stress_cycle_template(name="stress-cycle6-k1")
        queries = [BatchQuery(template, 0), BatchQuery(other, 1)]
        assert queries[1].k == 1  # a cycle edge is removable
        library = TemplateLibrary(queries)
        assert len(library.classes) == 2
        assert len(library.root_classes()) == 2

    def test_family_absorbs_exact_motifs_into_clique_root(self):
        clique = clique_template(4, labels=[0, 0, 0, 0], name="clique4")
        path = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)], {v: 0 for v in range(4)}, name="path4"
        )
        cycle = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)], {v: 0 for v in range(4)},
            name="cycle4",
        )
        library = TemplateLibrary(
            [BatchQuery(t, 0) for t in (clique, path, cycle)]
        )
        assert len(library.classes) == 3
        assert len(library.families) == 1
        family = library.families[0]
        assert family.root.representative.name == "clique4"
        # path4 misses 3 of the clique's 6 edges; cycle4 misses 2.
        assert family.k_eff == 3
        assert set(family.members) == {c.name for c in library.classes}
        # Only the root runs a pipeline.
        assert [c.name for c in library.root_classes()] == [family.root.name]

    def test_absorption_can_be_disabled(self):
        clique = clique_template(4, labels=[0, 0, 0, 0], name="clique4")
        path = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)], {v: 0 for v in range(4)}, name="path4"
        )
        library = TemplateLibrary(
            [BatchQuery(clique, 0), BatchQuery(path, 0)],
            absorb_families=False,
        )
        assert library.families == []
        assert len(library.root_classes()) == 2


# --------------------------------------------------------------- parity
class TestBatchedSequentialParity:
    def test_kernel_stress_shape(self):
        graph = kernel_stress_graph()
        renamed = PatternTemplate.from_edges(
            [(v + 10, v + 11) for v in range(5)],
            {v + 10: v % 4 for v in range(6)},
            name="stress-path6-shifted",
        )
        queries = [
            BatchQuery(stress_path_template(), 0),
            BatchQuery(renamed, 0),
            BatchQuery(stress_cycle_template(), 0),
            BatchQuery(stress_cycle_template("stress-cycle6-k1"), 1),
        ]
        batch = assert_batch_matches_sequential(graph, queries, options())
        # The two exact path queries collapse into one class; the two
        # cycle classes differ only in k, so the second one's M* scope
        # comes out of the shared memo.
        stats = batch.stats_document()
        assert stats["classes"] == 3
        assert stats["mstar_memo"]["hits"] >= 1

    def test_nlcc_stress_shape(self):
        graph = nlcc_stress_graph()
        queries = [
            BatchQuery(nlcc_stress_template(), 0),
            BatchQuery(nlcc_stress_template("stress-c4-k1"), 1),
        ]
        assert_batch_matches_sequential(graph, queries, options())

    def test_family_absorption_parity_on_motif_queries(self):
        graph = gnm_graph(120, 420, num_labels=1, seed=31)
        clique = clique_template(4, labels=[0, 0, 0, 0], name="clique4")
        path = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)], {v: 0 for v in range(4)}, name="path4"
        )
        star = PatternTemplate.from_edges(
            [(0, 1), (0, 2), (0, 3)], {v: 0 for v in range(4)}, name="star4"
        )
        queries = [BatchQuery(t, 0) for t in (clique, path, star)]
        batch = assert_batch_matches_sequential(graph, queries, options())
        stats = batch.stats_document()
        assert stats["root_runs"] == 1
        assert all(batch[q.name].absorbed for q in queries)

    def test_aux_views_do_not_change_answers(self, monkeypatch):
        graph = dusty_motif_graph()
        clique = clique_template(4, labels=[0, 0, 0, 0], name="clique4")
        path = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)], {v: 0 for v in range(4)}, name="path4"
        )
        queries = [BatchQuery(clique, 0), BatchQuery(path, 0)]
        with monkeypatch.context() as patch:
            # a tiny ratio builds no view at all
            patch.setattr(pipeline_module, "AUX_VIEW_RATIO", 1e-9)
            plain = run_batch(graph, queries, options())
        viewed = assert_batch_matches_sequential(graph, queries, options())
        for query in queries:
            assert (
                viewed[query.name].matched_vertices
                == plain[query.name].matched_vertices
            )
            assert (
                viewed[query.name].match_mappings
                == plain[query.name].match_mappings
            )
        # The view path must actually have been exercised: the deepest
        # level prunes the dust away, later levels run on the view.
        totals = viewed.aux_view_totals()
        assert totals["built"] > 0
        assert totals["reuse"] > 0
        assert plain.aux_view_totals()["built"] == 0


class TestMotifCensusParity:
    @pytest.mark.parametrize("size", [3, 4])
    def test_batched_census_matches_sequential(self, size):
        graph = dusty_motif_graph()
        opts = PipelineOptions(num_ranks=2)
        batched = count_motifs(graph, size, opts, batched=True)
        sequential = count_motifs_sequential(graph, size, opts)
        single = count_motifs(graph, size, opts)
        for induced in (False, True):
            assert (
                batched.by_name(induced=induced)
                == sequential.by_name(induced=induced)
                == single.by_name(induced=induced)
            )

    def test_batched_census_reports_shared_work(self):
        graph = dusty_motif_graph()
        counts = count_motifs(
            graph, 4, PipelineOptions(num_ranks=2), batched=True
        )
        stats = counts.batch.stats_document()
        assert stats["queries"] == 6
        assert stats["root_runs"] == 1
        assert len(stats["families"]) == 1
        assert stats["aux_views"]["reuse"] > 0


# ------------------------------------------------- auxiliary view remap
class TestInducedViewRemapping:
    def graph(self):
        # Two triangles joined by a bridge, over sparse shuffled ids.
        edges = [
            (10, 52), (52, 97), (97, 10),
            (97, 203),
            (203, 310), (310, 401), (401, 203),
        ]
        vertices = {10, 52, 97, 203, 310, 401}
        return from_edges(edges, labels={v: 0 for v in vertices})

    def test_non_contiguous_ids_round_trip(self):
        csr = csr_of(self.graph())
        kept_ids = [97, 203, 310, 401]
        view = csr.induced_view(np.isin(csr.order, kept_ids))

        # Original ids survive; rows are renumbered densely.
        assert sorted(view.order.tolist()) == kept_ids
        assert view.num_vertices == 4
        assert view.graph.num_vertices == 4
        for row, vertex in enumerate(view.order.tolist()):
            assert view.index_of[vertex] == row

        # Vertex-induced edges: the (97, 203) bridge edge survives even
        # though 97's triangle was cut.
        view_edges = {
            canonical_edge(u, v) for u, v in view.graph.edges()
        }
        assert view_edges == {
            (97, 203), (203, 310), (203, 401), (310, 401),
        }

    def test_parent_maps_translate_rows_and_edges(self):
        csr = csr_of(self.graph())
        kept_ids = [97, 203, 310, 401]
        view = csr.induced_view(np.isin(csr.order, kept_ids))

        assert view.parent is csr
        assert (
            csr.order[view.parent_vertex_index].tolist()
            == view.order.tolist()
        )
        # Every kept directed edge maps to a parent edge position with
        # the same original endpoints.
        for pos in range(view.num_directed_edges):
            parent_pos = int(view.parent_edge_index[pos])
            assert int(csr.order[csr.src[parent_pos]]) == int(
                view.order[view.src[pos]]
            )
            assert int(csr.order[csr.indices[parent_pos]]) == int(
                view.order[view.indices[pos]]
            )
        # The mirror permutation still swaps endpoints inside the view.
        for pos in range(view.num_directed_edges):
            twin = int(view.mirror[pos])
            assert int(view.src[twin]) == int(view.indices[pos])
            assert int(view.indices[twin]) == int(view.src[pos])

    def test_mask_length_is_validated(self):
        csr = csr_of(self.graph())
        with pytest.raises(ValueError):
            csr.induced_view(np.ones(csr.num_vertices + 1, dtype=bool))


# ------------------------------------------- views cost no Python loop
class TestLazyViewMembers:
    """``view.graph`` / ``view.index_of`` exist once a dict consumer asks."""

    @pytest.fixture
    def dict_builds(self, monkeypatch):
        """The CSRs whose graph facade had to build its dicts."""
        built = []
        eager = GraphCsr.dict_members

        def spy(csr):
            built.append(csr)
            return eager(csr)

        monkeypatch.setattr(GraphCsr, "dict_members", spy)
        return built

    def case(self):
        graph = gnm_graph(90, 260, num_labels=3, seed=17)
        for i, (u, v) in enumerate(sorted(graph.edges())):
            if i % 4 == 0:
                graph.add_edge(u, v, 7)  # relabel: edge labels must survive
        csr = csr_of(graph)
        keep = np.zeros(csr.num_vertices, dtype=bool)
        keep[::2] = True
        return graph, csr, keep

    def test_members_equal_the_eager_values(self, dict_builds):
        graph, csr, keep = self.case()
        view = csr.induced_view(keep)
        nested = view.induced_view(
            np.arange(view.num_vertices) % 3 != 0
        )

        for child in (view, nested):
            ids = child.order.tolist()
            assert child.index_of == {v: i for i, v in enumerate(ids)}
            assert child.index_of is child.index_of  # built once
            assert child.graph is child.graph
            # the view is its graph's CSR: csr_of() never rebuilds one
            assert csr_of(child.graph) is child
            # sizes and labels answer from the view's arrays ...
            expected = graph.subgraph(ids)
            assert child.graph.num_vertices == expected.num_vertices
            assert child.graph.num_edges == expected.num_edges
            assert child.graph.label_counts() == expected.label_counts()
            assert child.graph.has_edge_labels
            assert child not in dict_builds
            # ... and the dicts, built once from them, are the subgraph's
            assert child.graph == expected
            assert list(child.graph.vertices()) == ids
            assert child.graph.neighbors(ids[0]) == expected.neighbors(ids[0])
            assert dict_builds.count(child) == 1
        # a view's graph is a facade over the view, never the root's dicts
        assert dict_builds == [view, nested]

    def test_array_states_do_not_build_them(self, dict_builds):
        graph, csr, keep = self.case()
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], {0: 0, 1: 1, 2: 2}, name="tri"
        )
        state = ArraySearchState.initial(graph, template)
        view = csr.induced_view(keep)
        on_view = state.restrict_to_view(view)
        proto = generate_prototypes(template, 1).at(1)[0]
        scoped = on_view.for_prototype_search(proto)
        union = ArraySearchState.empty(view)
        union.absorb_solution(*scoped.copy().solution_masks())
        scoped.deactivate_indices(np.arange(3))
        scoped.active_counts(), scoped.active_vertices()
        scoped.active_edge_list()
        assert not dict_builds and view._lazy == {}
        # ... and a dict consumer does
        exported = on_view.to_search_state()
        assert exported.graph is view.graph
        on_view.deactivate_vertex(int(view.order[0]))
        assert set(view._lazy) == {"graph", "index_of"}
        assert exported.graph.neighbors(int(view.order[1])) is not None
        assert dict_builds == [view]

    def test_unknown_attributes_still_raise(self):
        _graph, csr, keep = self.case()
        with pytest.raises(AttributeError):
            csr.induced_view(keep).no_such_member
        with pytest.raises(AttributeError):
            csr.no_such_member

    @pytest.mark.parametrize(
        "run",
        [
            lambda g, t, o: run_pipeline(g, t, 2, o),
            lambda g, t, o: exploratory_search(g, t, max_k=2, options=o),
        ],
        ids=["run_pipeline", "exploratory_search"],
    )
    def test_default_runs_never_read_them(self, dict_builds, run):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            {0: 0, 1: 1, 2: 2, 3: 1}, name="diamond",
        )
        graph = planted_graph(
            200, 500, template.edges(),
            [template.label(v) for v in sorted(template.graph.vertices())],
            copies=3, num_labels=6, seed=2,
        )
        result = run(graph, template, PipelineOptions(count_matches=True))
        assert result.matched_vertices()
        # the run did search a view: G[M*] or the label view M* ran on
        assert_view_between_mstar_and_labels(result, graph, template)
        assert not dict_builds


# -------------------------------------------------- fallback reporting
class TestArrayFallbackReporting:
    """Which backend ran.  A run leaves the array path only when the
    caller asks for the reference backend; the backend it ran lands in
    the result, its stats document, the ``pipeline`` span and every batch
    class result."""

    def case(self):
        graph = gnm_graph(80, 240, num_labels=2, seed=3)
        template = nlcc_stress_template()
        return graph, template

    def test_dict_path_reason_lands_in_result_and_stats(self):
        graph, template = self.case()
        result = run_pipeline(
            graph, template, 0,
            options(backend="reference", count_matches=False),
        )
        assert result.backend == "reference"
        assert result.stats_document()["backend"] == "reference"

    def test_enumeration_optimization_stays_on_array_path(self):
        # Regression for a removed fallback reason: the enumeration
        # optimization chains dense array match tables, so it no longer
        # forces the dict path — and the answers still match a run
        # without the optimization.
        graph, template = self.case()
        optimized = run_pipeline(
            graph, template, 1, options(enumeration_optimization=True)
        )
        assert optimized.backend == "array"
        plain = run_pipeline(graph, template, 1, options())
        assert optimized.matched_vertices() == plain.matched_vertices()
        assert (
            optimized.total_match_mappings() == plain.total_match_mappings()
        )

    def test_naive_mode_stays_on_array_path(self):
        # Regression for a removed fallback reason: naive mode starts
        # each prototype from ArraySearchState.initial instead of
        # dropping the whole run to dict form.
        graph, template = self.case()
        naive = run_pipeline(
            graph, template, 0, options(use_max_candidate_set=False)
        )
        assert naive.backend == "array"
        pruned = run_pipeline(graph, template, 0, options())
        assert naive.matched_vertices() == pruned.matched_vertices()
        assert naive.total_match_mappings() == pruned.total_match_mappings()

    def test_array_path_reports_no_reason(self):
        graph, template = self.case()
        document = run_pipeline(graph, template, 0, options()).stats_document()
        assert document["backend"] == "array"
        assert not any("fallback" in key for key in document)

    def test_tracer_span_carries_the_reason(self):
        graph, template = self.case()
        tracer = Tracer()
        run_pipeline(
            graph, template, 0,
            options(backend="reference", count_matches=False, tracer=tracer),
        )
        (pipeline,) = tracer.find("pipeline")
        assert pipeline.attrs["backend"] == "reference"

    def test_batch_stats_surface_per_class_reasons(self):
        graph, template = self.case()
        opts = options(backend="reference", count_matches=False)
        batch = run_batch(graph, [BatchQuery(template, 0)], opts)
        (result,) = batch.class_results.values()
        assert result.stats_document()["backend"] == "reference"
        (per_class,) = batch.stats_document()["per_class"]
        assert not any("fallback" in key for key in per_class)


class TestScheduleCostEstimates:
    def test_schedule_costs_pair_estimates_with_measured_wall(self):
        graph = kernel_stress_graph()
        queries = [
            BatchQuery(stress_path_template(), 0, name="path"),
            BatchQuery(stress_cycle_template(), 0, name="cycle"),
        ]
        batch = run_batch(graph, queries, options())
        document = batch.stats_document()
        entries = document["schedule_costs"]
        assert [e["name"] for e in entries] == document["schedule"]
        for entry in entries:
            assert entry["cost_estimate"] > 0
            assert entry["wall_seconds"] > 0

    def test_estimates_follow_lpt_order(self):
        graph = kernel_stress_graph()
        queries = [
            BatchQuery(stress_path_template(), 0, name="path"),
            BatchQuery(stress_cycle_template(), 0, name="cycle"),
        ]
        batch = run_batch(graph, queries, options())
        estimates = [
            e["cost_estimate"] for e in batch.stats_document()["schedule_costs"]
        ]
        assert estimates == sorted(estimates, reverse=True)

    def test_batch_folds_mstar_memo_counters_into_metrics(self):
        graph = kernel_stress_graph()
        # two label-isomorphic path queries share one class/root run
        queries = [
            BatchQuery(stress_path_template("p-a"), 0, name="a"),
            BatchQuery(stress_path_template("p-b"), 0, name="b"),
        ]
        opts = options()
        batch = run_batch(graph, queries, opts)
        counters = dict(opts.metrics.counters())
        memo = batch.stats_document()["mstar_memo"]
        assert counters["cache.mstar_memo.hits"] == memo["hits"]
        assert counters["cache.mstar_memo.misses"] == memo["misses"]

    def test_stats_document_embeds_metrics_snapshot(self):
        graph = kernel_stress_graph()
        queries = [BatchQuery(stress_path_template(), 0, name="path")]
        opts = options()
        batch = run_batch(graph, queries, opts)
        snapshot = batch.stats_document()["metrics"]
        assert snapshot == opts.metrics.snapshot()
        assert snapshot["counters"]["cache.mstar_memo.misses"] > 0
