"""Which constraints run is the plan's decision, and never the answer's.

A plan that ends in the full walk owes its answer to that walk alone, so
``ConstraintPlan.select`` may answer "the full walk alone" for a live
scope: when the estimated rows of the CC / PC / TDS pre-filters reach the
full walk's.  Guards:

* (a) differential — every driver × feature of ``test_compact_scope.py``
  (plus checkpointed restart and flips) run
  with the rule and again held to the complete list
  (``complete_constraint_lists``) gives the same match vectors,
  per-prototype solution sets, mapping counts, collected matches and level
  unions; and with the rule on, precision and recall against the
  brute-force matcher;
* (b) the graph the rule must *not* skip on: a triangle whose full walk
  fans out over a tail before it closes.  The pre-filters stay, the run
  builds the complete list's rows and sends its messages, and forcing the
  full walk alone builds over ten times the rows;
* (c) the graph it must skip on: the 12-edge WDC-4 prototype, 1 395
  pre-filters over 12 live vertices;
* (d) nothing is skipped without a full walk, from an explicit
  ``ConstraintSet``, or on the reference backend;
* (e) the decision is a function of counts: invariant under a vertex-id
  permutation, equal inline / top-down, and reported (outcome,
  stats document, registry counters, ``prototype`` span).

Everything is asserted on counts, never on seconds.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.core import (
    PatternTemplate,
    PipelineOptions,
    count_motifs,
    exploratory_search,
    generate_constraints,
    generate_prototypes,
    run_pipeline,
    wdc1_template,
    wdc2_template,
    wdc3_template,
    wdc4_template,
)
import repro.core.pipeline as pipeline_module
from repro.core.batch import BatchQuery, run_batch
from repro.core.constraints import ConstraintSelection, ConstraintSet
from repro.core.cost_estimation import GraphStatistics, estimate_walk_cost
from repro.core.flips import run_flip_pipeline
from repro.core.arraystate import ArraySearchState
from repro.core.ordering import ConstraintPlan, ConstraintPlanner
from repro.core.restart import resume_pipeline, run_pipeline_with_checkpoints
from repro.core.search import search_prototype
from repro.core.state import SearchState
from repro.core.wildcards import WILDCARD, run_wildcard_pipeline
from repro.graph.generators import plant_pattern, webgraph
from repro.graph.graph import Graph
from repro.runtime import Engine, MessageStats, PartitionedGraph
from repro.runtime.trace import Tracer

from test_adaptive import nlcc_shape_workload
from test_compact_scope import (
    BOTTOM_UP_FEATURES,
    OFF,
    ON,
    SLOW,
    brute_force,
    canonical_matches,
    dusty_graph,
    edge_labeled_case,
    mandatory_case,
    planted_case,
    small_graphs,
    small_templates,
    view_ratio,
    wide_case,
)


def never(level):
    return False


# ----------------------------------------------------------------------
# what "the same answer" means
# ----------------------------------------------------------------------
def outcome_answer(outcome):
    return {
        "vertices": outcome.solution_vertices,
        "edges": outcome.solution_edges,
        "mappings": outcome.match_mappings,
        "distinct": outcome.distinct_matches,
        "matches": canonical_matches(outcome.matches),
    }


def answer(result):
    return {
        "match_vectors": result.match_vectors,
        "levels": [
            (
                level.distance, level.union_vertices, level.union_edges,
                {o.proto_id: outcome_answer(o) for o in level.outcomes},
            )
            for level in result.levels
        ],
    }


def skipped(result):
    return result.stats_document()["nlcc"]["constraints_skipped"]


def checked(result):
    return result.stats_document()["nlcc"]["constraints_checked"]


def with_complete_lists(monkeypatch, run):
    """``run()`` with the rule, then held to every plan's complete list."""
    ruled = run()
    with monkeypatch.context() as patch:
        patch.setattr(ConstraintPlan, "select", ConstraintSet.select)
        complete = run()
    return ruled, complete


@pytest.fixture
def scopes_estimated(monkeypatch):
    """The array scopes ``GraphStatistics.from_scope`` was asked about."""
    seen = []
    raw = GraphStatistics.from_scope.__func__

    def recording(cls, astate, proto_graph):
        seen.append(astate)
        return raw(cls, astate, proto_graph)

    monkeypatch.setattr(GraphStatistics, "from_scope", classmethod(recording))
    return seen


def assert_same_answer_fewer_walks(ruled, complete, walks=True):
    assert answer(ruled) == answer(complete)
    assert skipped(complete) == 0
    if walks:
        assert skipped(ruled) > 0
        assert checked(ruled) < checked(complete)
    else:
        # nothing to decide: no prototype of the run has a cyclic plan,
        # or the run is on the reference backend
        assert (skipped(ruled), checked(ruled)) == (0, checked(complete))


# ----------------------------------------------------------------------
# (a) driver x feature, the rule against the complete list
# ----------------------------------------------------------------------
FEATURES = {
    **{
        name: BOTTOM_UP_FEATURES[name]
        for name in (
            "default", "count", "collect", "extension", "extension-collect",
            "block", "delegates", "no-recycling", "aux-views", "walk-cost",
        )
    },
    # the naïve baseline's unpruned scopes (no M*, no containment)
    "no-reduction": {"search_space_reduction": False},
}


def ratio(feature):
    """The ``pipeline.AUX_VIEW_RATIO`` a column runs at: "aux-views"
    builds a level view wherever one is sound, the others keep the rule."""
    return ON if feature == "aux-views" else pipeline_module.AUX_VIEW_RATIO


class TestBottomUp:
    @pytest.mark.parametrize("feature", sorted(FEATURES))
    def test_wdc1(self, monkeypatch, feature):
        graph, template = planted_case(wdc1_template())
        with view_ratio(ratio(feature)):
            ruled, complete = with_complete_lists(
                monkeypatch,
                lambda: run_pipeline(
                    graph, template, 2,
                    PipelineOptions(num_ranks=4, **FEATURES[feature]),
                ),
            )
        assert ruled.matched_vertices()
        # with the extension the k = 2 trees are searched (no walks) and
        # every level above is derived from their matches
        assert_same_answer_fewer_walks(
            ruled, complete,
            walks=not feature.startswith("extension"),
        )

    @pytest.mark.parametrize(
        "feature, make_template, k",
        [
            ("collect", wdc2_template, 2),
            ("collect", wdc3_template, 2),
            ("extension", wdc2_template, 2),
            ("extension-collect", wdc3_template, 3),
        ],
    )
    def test_other_templates(self, monkeypatch, feature, make_template, k):
        # WDC-2 / WDC-3 stay cyclic at the deepest level, so an extension
        # chain here starts from searches the rule decided
        graph, template = planted_case(make_template(), seed=4)
        ruled, complete = with_complete_lists(
            monkeypatch,
            lambda: run_pipeline(
                graph, template, k,
                PipelineOptions(num_ranks=4, **FEATURES[feature]),
            ),
        )
        assert ruled.total_match_mappings() > 0
        assert_same_answer_fewer_walks(ruled, complete)

    def test_edge_labels(self, monkeypatch):
        graph, template = edge_labeled_case()
        ruled, complete = with_complete_lists(
            monkeypatch,
            lambda: run_pipeline(
                graph, template, 1,
                PipelineOptions(num_ranks=3, collect_matches=True),
            ),
        )
        assert ruled.matched_vertices()
        assert_same_answer_fewer_walks(ruled, complete)

    def test_mandatory_edges(self, monkeypatch):
        graph, template = mandatory_case()
        ruled, complete = with_complete_lists(
            monkeypatch,
            lambda: run_pipeline(
                graph, template, 2,
                PipelineOptions(num_ranks=4, count_matches=True),
            ),
        )
        assert ruled.matched_vertices()
        assert_same_answer_fewer_walks(ruled, complete)

    def test_more_than_64_roles(self, monkeypatch, scopes_estimated):
        graph, template = wide_case()
        ruled, complete = with_complete_lists(
            monkeypatch,
            lambda: run_pipeline(
                graph, template, 1,
                PipelineOptions(num_ranks=4, count_matches=True),
            ),
        )
        assert len(ruled.matched_vertices()) >= 2 * 66
        # the statistics read the wide (n, n_words) role-mask layout, and
        # on these scopes a 130-hop full walk is dearer than the C4's
        # cycle and path walks: the list is kept
        assert scopes_estimated and all(
            astate.role_mask.ndim == 2 for astate in scopes_estimated
        )
        assert answer(ruled) == answer(complete)
        assert skipped(ruled) == 0 and checked(ruled) == checked(complete) > 0

    def test_wildcards(self, monkeypatch):
        graph, base = planted_case(wdc1_template())
        labels = {v: base.label(v) for v in base.vertices()}
        labels[max(labels)] = WILDCARD
        template = PatternTemplate.from_edges(
            base.edges(), labels, name="WDC-1-wild"
        )
        ruled, complete = with_complete_lists(
            monkeypatch,
            lambda: run_wildcard_pipeline(
                graph, template, 1,
                PipelineOptions(num_ranks=4, count_matches=True),
            ),
        )
        assert ruled.match_vectors
        assert ruled.match_vectors == complete.match_vectors
        for name, result in ruled.per_instantiation.items():
            assert answer(result) == answer(complete.per_instantiation[name])
        assert sum(map(skipped, ruled.per_instantiation.values())) > 0


class TestExploratory:
    @pytest.mark.parametrize(
        "feature",
        ["default", "count", "collect", "block", "delegates", "no-recycling"],
    )
    def test_wdc1(self, monkeypatch, feature):
        graph, template = planted_case(wdc1_template())
        ruled, complete = with_complete_lists(
            monkeypatch,
            lambda: exploratory_search(
                graph, template, max_k=2, stop_condition=never,
                options=PipelineOptions(num_ranks=4, **FEATURES[feature]),
            ),
        )
        assert len(ruled.levels) == 3 and ruled.matched_vertices()
        assert_same_answer_fewer_walks(ruled, complete)

    def test_more_than_64_roles_and_the_default_stop(
        self, monkeypatch, scopes_estimated
    ):
        graph, template = wide_case()
        ruled, complete = with_complete_lists(
            monkeypatch,
            lambda: exploratory_search(
                graph, template, max_k=1,
                options=PipelineOptions(num_ranks=4),
            ),
        )
        assert scopes_estimated
        assert answer(ruled) == answer(complete)
        assert skipped(ruled) == 0 and checked(ruled) == checked(complete) > 0


class TestBatched:
    def batch_answer(self, batch):
        return {
            "items": {
                name: (
                    item.matched_vertices, item.match_mappings,
                    item.distinct_matches,
                )
                for name, item in batch.items.items()
            },
            "classes": {
                name: answer(result)
                for name, result in batch.class_results.items()
            },
        }

    # views never built (tiny ratio) / built wherever sound (ratio 1.0)
    @pytest.mark.parametrize("aux_views", [False, True])
    def test_run_batch(self, monkeypatch, aux_views):
        graph, wdc1 = planted_case(wdc1_template())
        queries = [
            BatchQuery(wdc1, 2, name="wdc1-k2"),
            BatchQuery(wdc1, 1, name="wdc1-k1"),
            BatchQuery(wdc2_template(), 1, name="wdc2-k1"),
        ]
        with view_ratio(ON if aux_views else OFF):
            ruled, complete = with_complete_lists(
                monkeypatch,
                lambda: run_batch(
                    graph, queries,
                    PipelineOptions(num_ranks=4, count_matches=True),
                ),
            )
        assert ruled["wdc1-k2"].matched_vertices
        assert self.batch_answer(ruled) == self.batch_answer(complete)
        assert sum(map(skipped, ruled.class_results.values())) > 0
        assert not sum(map(skipped, complete.class_results.values()))

    def test_motif_census(self, monkeypatch):
        graph = dusty_graph()
        ruled, complete = with_complete_lists(
            monkeypatch,
            lambda: count_motifs(
                graph, 4, PipelineOptions(num_ranks=2), batched=True
            ),
        )
        for induced in (False, True):
            assert ruled.by_name(induced=induced) == (
                complete.by_name(induced=induced)
            )
        assert sum(ruled.by_name(induced=False).values()) > 0
        assert self.batch_answer(ruled.batch) == (
            self.batch_answer(complete.batch)
        )
        assert sum(map(skipped, ruled.batch.class_results.values())) > 0


class TestRestartAndFlips:
    def test_checkpointed_sweep_crash_and_resume(self, monkeypatch, tmp_path):
        graph, template = planted_case(wdc1_template())
        options = PipelineOptions(num_ranks=2, count_matches=True)

        def crash_and_resume(directory):
            directory.mkdir()
            with pytest.raises(RuntimeError, match="injected failure"):
                run_pipeline_with_checkpoints(
                    graph, template, 2, directory, options, fail_after_level=1
                )
            return resume_pipeline(graph, template, directory, options)

        plain = run_pipeline(graph, template, 2, options)
        ruled = crash_and_resume(tmp_path / "ruled")
        with monkeypatch.context() as patch:
            patch.setattr(ConstraintPlan, "select", ConstraintSet.select)
            complete = crash_and_resume(tmp_path / "complete")
        assert ruled.match_vectors == complete.match_vectors == plain.match_vectors
        for outcome in plain.outcomes():
            for other in (ruled, complete):
                resumed = other.outcome_for(outcome.proto_id)
                assert resumed.solution_vertices == outcome.solution_vertices
                assert resumed.solution_edges == outcome.solution_edges
        # the levels searched after the resume decided like the plain run
        assert 0 < skipped(ruled) <= skipped(plain)
        assert skipped(complete) == 0

    def test_flips_run_the_dict_tier_and_so_the_complete_list(self):
        graph, template = planted_case(wdc1_template())
        flipped = run_flip_pipeline(
            graph, template, flips=1,
            options=PipelineOptions(count_matches=True, backend="reference"),
        )
        assert flipped.matched_vertices()
        searched = [o for o in flipped.outcomes.values() if o.post_lcc_vertices]
        assert searched
        assert all(o.counts.get("plan.prefilters_skipped", 0) == 0 for o in flipped.outcomes.values())
        original = flipped.outcomes[flipped.variants[0].name]
        reference = run_pipeline(
            graph, template, 0, PipelineOptions(count_matches=True)
        ).outcomes()[0]
        assert reference.counts.get("plan.prefilters_skipped", 0) > 0
        assert original.solution_vertices == reference.solution_vertices
        assert original.solution_edges == reference.solution_edges
        assert original.match_mappings == reference.match_mappings

    def test_flips_on_the_array_backend_decide_like_the_pipeline(self):
        graph, template = planted_case(wdc1_template())
        flipped = run_flip_pipeline(
            graph, template, flips=1, options=PipelineOptions(count_matches=True)
        )
        complete = run_flip_pipeline(
            graph, template, flips=1,
            options=PipelineOptions(count_matches=True, backend="reference"),
        )
        assert flipped.match_vectors == complete.match_vectors
        for name, outcome in complete.outcomes.items():
            other = flipped.outcomes[name]
            assert other.solution_vertices == outcome.solution_vertices
            assert other.solution_edges == outcome.solution_edges
            assert other.match_mappings == outcome.match_mappings
        original = flipped.outcomes[flipped.variants[0].name]
        reference = run_pipeline(
            graph, template, 0, PipelineOptions(count_matches=True)
        ).outcomes()[0]
        assert original.counts.get("plan.prefilters_skipped", 0) == (
            reference.counts.get("plan.prefilters_skipped", 0)
        ) > 0


class TestAgainstBruteForce:
    """Precision and recall with the rule on, asserted separately."""

    @SLOW
    @given(
        small_templates(), small_graphs(), st.integers(0, 2),
        st.sampled_from(["count", "collect", "no-recycling", "walk-cost"]),
    )
    def test_bottom_up(self, template, graph, k, feature):
        k = min(k, template.max_meaningful_distance())
        result = run_pipeline(
            graph, template, k,
            PipelineOptions(**{
                "num_ranks": 2, "count_matches": True, **FEATURES[feature],
            }),
        )
        for proto_id, (vertices, count) in brute_force(graph, template, k).items():
            outcome = result.outcome_for(proto_id)
            found = outcome.solution_vertices
            assert found <= vertices, f"precision: {found - vertices} are no match"
            assert vertices <= found, f"recall: missed {vertices - found}"
            assert outcome.match_mappings == count

    @SLOW
    @given(small_templates(), small_graphs())
    def test_exploratory(self, template, graph):
        k = min(2, template.max_meaningful_distance())
        result = exploratory_search(
            graph, template, max_k=k, stop_condition=never,
            options=PipelineOptions(num_ranks=2, count_matches=True),
        )
        for proto_id, (vertices, count) in brute_force(graph, template, k).items():
            outcome = result.outcome_for(proto_id)
            found = outcome.solution_vertices
            assert found <= vertices, f"precision: {found - vertices} are no match"
            assert vertices <= found, f"recall: missed {vertices - found}"
            assert outcome.match_mappings == count


# ----------------------------------------------------------------------
# (b) the graph the rule keeps its pre-filters on
# ----------------------------------------------------------------------
TAIL_TEMPLATE = PatternTemplate.from_edges(
    [(0, 1), (1, 2), (0, 3), (3, 4), (4, 0)], {v: v for v in range(5)},
    name="triangle+tail",
)


def tail_graph(num_a=400, fan=10, closed_every=20):
    """``num_a`` A vertices, each with a B and a C neighbour that close a
    triangle for one A in ``closed_every`` (the others' B meets the next
    open A's C, so LCC alone prunes nothing), and all of them joined to
    every one of ``fan`` T vertices, each joined to every one of ``fan`` U
    vertices.  T is the rarest label, so the full walk starts there and
    crosses ``fan * fan * num_a`` rows of tail before the first hop of
    the triangle; the three cycle walks cost ``num_a`` rows a hop and
    leave one A in ``closed_every``.
    """
    graph = Graph()
    ids = iter(range(10 ** 6))

    def vertices(count, label):
        made = [next(ids) for _ in range(count)]
        for v in made:
            graph.add_vertex(v, label)
        return made

    a, b, c = vertices(num_a, 0), vertices(num_a, 3), vertices(num_a, 4)
    for i in range(num_a):
        graph.add_edge(a[i], b[i])
        graph.add_edge(a[i], c[i])
        if i % closed_every == 0:
            graph.add_edge(b[i], c[i])
    open_ = [i for i in range(num_a) if i % closed_every]
    for i, j in zip(open_, open_[1:] + open_[:1]):
        graph.add_edge(b[i], c[j])
    ts, us = vertices(fan, 1), vertices(fan, 2)
    for t in ts:
        for v in a:
            graph.add_edge(v, t)
        for u in us:
            graph.add_edge(t, u)
    return graph


def full_walk_alone(plan, astate=None):
    """What "full walk only, no estimate" would answer (measured and
    rejected: this graph is why)."""
    return ConstraintSelection(
        [plan.full_walk()], skipped=len(plan.non_local) - 1
    )


def run_counts(result):
    doc = result.stats_document()
    return {
        "rows_expanded": doc["metrics"]["counters"]["nlcc.rows_expanded"],
        "messages": doc["messages"]["total_messages"],
        "tokens_launched": doc["nlcc"]["tokens_launched"],
        "completions": doc["nlcc"]["completions"],
    }


class TestTheTailGraphKeepsItsPreFilters:
    def run(self):
        return run_pipeline(
            tail_graph(), TAIL_TEMPLATE, 0,
            PipelineOptions(num_ranks=4, count_matches=True),
        )

    def test_nothing_skipped_and_the_complete_lists_exact_walks(self, monkeypatch):
        ruled, complete = with_complete_lists(monkeypatch, self.run)
        assert answer(ruled) == answer(complete)
        assert ruled.total_match_mappings() == 20 * 10 * 10
        assert skipped(ruled) == skipped(complete) == 0
        assert checked(ruled) == checked(complete) == 4
        assert run_counts(ruled) == run_counts(complete)

    def test_the_full_walk_alone_builds_ten_times_the_rows(self, monkeypatch):
        ruled = self.run()
        monkeypatch.setattr(ConstraintPlan, "select", full_walk_alone)
        alone = self.run()
        assert answer(alone) == answer(ruled)
        assert (skipped(alone), checked(alone)) == (3, 1)
        rows, alone_rows = (
            run_counts(r)["rows_expanded"] for r in (ruled, alone)
        )
        assert alone_rows > 10 * rows
        assert run_counts(alone)["messages"] > 5 * run_counts(ruled)["messages"]

    def test_the_estimates_say_so(self):
        graph = tail_graph()
        tracer = Tracer()
        run_pipeline(
            graph, TAIL_TEMPLATE, 0, PipelineOptions(num_ranks=4, tracer=tracer)
        )
        (span,) = tracer.find("prototype")
        assert span.attrs["plan_decision"] == "complete-list"
        assert (
            span.attrs["plan_prefilter_rows"] < span.attrs["plan_full_walk_rows"]
        )


# ----------------------------------------------------------------------
# (c) the graph it skips on: clique-explore's surviving prototype
# ----------------------------------------------------------------------
def wdc4_case():
    """The ``clique-explore`` workload of ``benchmarks/e2e/workloads.py``
    (generator calls copied, nothing imported): a WDC-like webgraph with
    planted WDC-1..3 copies and two copies of the WDC-4 6-clique short of
    one triangle, explored top-down with the edges at vertices 4 and 5
    mandatory."""
    graph = webgraph(6000, num_labels=300, seed=42, label_exponent=1.05)
    for template in (wdc1_template(), wdc2_template(), wdc3_template()):
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        plant_pattern(
            graph, template.edges(), labels, copies=4,
            seed=sum(map(ord, template.name)),
        )
    clique = wdc4_template()
    labels = [clique.label(v) for v in sorted(clique.graph.vertices())]
    relaxed = [e for e in clique.edges() if e not in [(0, 1), (0, 2), (1, 2)]]
    plant_pattern(graph, relaxed, labels, copies=2, seed=99)
    edges = clique.edges()
    template = PatternTemplate.from_edges(
        edges, {v: clique.label(v) for v in clique.vertices()},
        mandatory_edges=[e for e in edges if e[1] >= 4], name="WDC-4",
    )
    return graph, template


class TestTheCliqueSkipsItsPreFilters:
    def test_wdc4_twelve_edge_prototype_runs_one_walk(self):
        graph, template = wdc4_case()
        tracer = Tracer()
        result = exploratory_search(
            graph, template, max_k=4,
            options=PipelineOptions(
                num_ranks=8, count_matches=True, tracer=tracer
            ),
        )
        assert result.total_match_mappings() == 2
        assert len(result.matched_vertices()) == 12
        planned = [o for o in result.outcomes() if o.post_lcc_vertices]
        assert [o.prototype.num_edges for o in planned] == [12]
        (outcome,) = planned
        assert outcome.counts.get("plan.prefilters_skipped", 0) == 1395
        assert outcome.counts.get("nlcc.constraints_checked", 0) == 1
        assert (skipped(result), checked(result)) == (1395, 1)
        assert len(tracer.find("nlcc")) == 1

        document = result.stats_document()
        assert document["nlcc"]["constraints_skipped"] == 1395
        counters = document["metrics"]["counters"]
        assert counters["plan.prefilters_skipped"] == 1395
        assert counters["plan.prefilters_kept"] == 0
        (span,) = [
            s for s in tracer.find("prototype") if "plan_decision" in s.attrs
        ]
        assert span.attrs["plan_decision"] == "full-walk-only"
        # two planted copies: every role has two holders, every directed
        # template edge two alive edges
        assert span.attrs["plan_full_walk_rows"] < 12
        # the rows added up before the decision: they reached the full
        # walk's before the 1 395 pre-filters were built
        assert (
            span.attrs["plan_prefilter_rows"]
            >= span.attrs["plan_full_walk_rows"]
        )
        assert span.counters["plan.prefilters_skipped"] == 1395


# ----------------------------------------------------------------------
# (d) who never skips
# ----------------------------------------------------------------------
class TestNothingIsSkipped:
    @pytest.mark.parametrize(
        "tier", [{"backend": "reference"}], ids=["baseline-dict"]
    )
    def test_on_a_dict_tier(self, tier):
        graph, template = planted_case(wdc1_template())
        default = run_pipeline(
            graph, template, 2, PipelineOptions(num_ranks=4, count_matches=True)
        )
        result = run_pipeline(
            graph, template, 2,
            PipelineOptions(num_ranks=4, count_matches=True, **tier),
        )
        assert skipped(result) == 0
        assert checked(result) == checked(default) + skipped(default)
        assert answer(result)["match_vectors"] == default.match_vectors

    def test_with_an_explicit_constraint_set(self):
        graph, template = planted_case(wdc1_template())
        proto = next(iter(generate_prototypes(template, 0)))
        frequencies = graph.label_counts()
        explicit = generate_constraints(proto.graph, frequencies)
        assert explicit.full_walk() is not None and len(explicit.non_local) > 1

        def search(constraint_set):
            scope = ArraySearchState.initial(graph, template)
            engine = Engine(PartitionedGraph(graph, 2), MessageStats(2))
            return search_prototype(
                scope, proto, constraint_set, engine, count_matches=True
            )

        as_given = search(explicit)
        planned = search(ConstraintPlanner(graph).plan(proto.graph))
        assert as_given.counts.get("plan.prefilters_skipped", 0) == 0
        assert as_given.counts.get("nlcc.constraints_checked", 0) == len(explicit.non_local)
        assert planned.counts.get("plan.prefilters_skipped", 0) == len(explicit.non_local) - 1
        assert planned.counts.get("nlcc.constraints_checked", 0) == 1
        assert outcome_answer(as_given) == outcome_answer(planned)
        assert as_given.match_mappings > 0


# ----------------------------------------------------------------------
# (e) a function of counts, and reported
# ----------------------------------------------------------------------
def permuted(graph, seed):
    """``graph`` under a random bijection of its vertex ids."""
    ids = sorted(graph.vertices())
    rng = np.random.default_rng(seed)
    image = dict(zip(ids, rng.permutation(len(ids)).tolist()))
    copy = Graph()
    for v in rng.permutation(ids).tolist():
        copy.add_vertex(image[v], graph.label(v))
    for u, v in graph.edges():
        copy.add_edge(image[u], image[v])
    return copy, image


def decisions(result, tracer):
    """Per prototype: what was skipped and checked, and what decided it."""
    by_proto = {
        span.attrs["proto"]: (
            span.attrs.get("plan_decision"),
            span.attrs.get("plan_prefilter_rows"),
            span.attrs.get("plan_full_walk_rows"),
        )
        for span in tracer.find("prototype")
    }
    return {
        o.proto_id: (
            o.counts.get("plan.prefilters_skipped", 0), o.counts.get("nlcc.constraints_checked", 0),
            by_proto[o.proto_id],
        )
        for o in result.outcomes()
    }


class TestTheDecisionIsAFunctionOfCounts:
    @pytest.mark.parametrize(
        "make_case",
        [
            lambda: (*planted_case(wdc2_template()), 2),
            lambda: (*nlcc_shape_workload(), 1),
            lambda: (tail_graph(), TAIL_TEMPLATE, 0),
        ],
        ids=["WDC-2", "hubs", "tail"],
    )
    def test_invariant_under_a_vertex_id_permutation(self, make_case):
        graph, template, k = make_case()

        def traced(background):
            tracer = Tracer()
            result = run_pipeline(
                background, template, k,
                PipelineOptions(num_ranks=4, count_matches=True, tracer=tracer),
            )
            return result, decisions(result, tracer)

        result, decided = traced(graph)
        assert any(estimates[0] for _, _, estimates in decided.values())
        for seed in (1, 2):
            other_graph, image = permuted(graph, seed)
            other, other_decided = traced(other_graph)
            assert other_decided == decided
            assert other.match_vectors == {
                image[v]: protos for v, protos in result.match_vectors.items()
            }

    def test_both_decisions_occur_in_one_run(self, monkeypatch):
        # the mirrored-label C4 on a hub graph (a small ``token-storm``):
        # the first k = 1 prototype keeps its four path walks, the other
        # three plans answer "the full walk alone"
        graph, template = nlcc_shape_workload()

        def run():
            tracer = Tracer()
            result = run_pipeline(
                graph, template, 1,
                PipelineOptions(num_ranks=4, count_matches=True, tracer=tracer),
            )
            return result, tracer

        (ruled, tracer), (complete, complete_tracer) = with_complete_lists(
            monkeypatch, run
        )
        assert answer(ruled) == answer(complete)
        made = decisions(ruled, tracer)
        assert sorted(d[2][0] for d in made.values()) == [
            "complete-list", "full-walk-only", "full-walk-only",
            "full-walk-only",
        ]
        # the plan that was kept is the first one searched: it walks what
        # the complete list walks, constraint for constraint
        kept = ruled.levels[0].outcomes[0]
        assert made[kept.proto_id][:2] == (0, 5)
        (kept_span,) = [
            s for s in tracer.find("prototype")
            if s.attrs["proto"] == kept.proto_id
        ]
        (same_span,) = [
            s for s in complete_tracer.find("prototype")
            if s.attrs["proto"] == kept.proto_id
        ]
        per_walk = (
            "nlcc.rows_expanded", "messages", "nlcc.tokens_launched",
            "nlcc.completions",
        )
        assert [
            [walk.counters[name] for name in per_walk]
            for walk in kept_span.find("nlcc")
        ] == [
            [walk.counters[name] for name in per_walk]
            for walk in same_span.find("nlcc")
        ]
        assert kept.messages == complete.outcome_for(kept.proto_id).messages

    def test_inline_and_top_down_decide_alike(self):
        graph, template = planted_case(wdc2_template())
        # top-down cuts every scope from M*, bottom-up only its deepest
        # level's: one bottom-up run per k hands each prototype the same
        # starting scope as the top-down run
        knobs = dict(num_ranks=4, count_matches=True, work_recycling=False)

        def decided(outcomes):
            return {
                o.proto_id: (
                    o.counts.get("plan.prefilters_skipped", 0), o.counts.get("nlcc.constraints_checked", 0)
                )
                for o in outcomes
            }

        inline = [
            run_pipeline(graph, template, k, PipelineOptions(**knobs))
            for k in range(3)
        ]
        top_down = exploratory_search(
            graph, template, max_k=2, stop_condition=never,
            options=PipelineOptions(**knobs),
        )
        deepest = [r.level_for(k).outcomes for k, r in enumerate(inline)]
        assert sum(o.counts.get("plan.prefilters_skipped", 0)
                   for level in deepest for o in level) > 0
        assert decided(o for level in deepest for o in level) == decided(
            top_down.outcomes()
        )
        for result in (*inline, top_down):
            counters = result.stats_document()["metrics"]["counters"]
            assert counters["plan.prefilters_skipped"] == skipped(result)


class TestScopeStatistics:
    """``GraphStatistics.from_scope`` against a count by hand."""

    @pytest.mark.parametrize("min_words", [1, 2], ids=["single-word", "wide"])
    def test_counts_match_the_dict_state(self, min_words):
        graph, template = planted_case(wdc1_template())
        state = SearchState.initial(graph, template)
        # an uneven scope: drop a role here, a vertex and an edge there
        some = sorted(state.candidates)
        state.deactivate_vertex(some[0])
        role = next(iter(state.candidates[some[1]]))
        state.candidates[some[1]].discard(role)
        u = some[2]
        state.deactivate_edge(u, next(iter(state.active_edges[u])))
        astate = ArraySearchState.from_search_state(
            state, roles=sorted(template.graph.vertices()), min_words=min_words
        )
        assert (astate.role_mask.ndim == 2) == (min_words == 2)
        stats = GraphStatistics.from_scope(astate, template.graph)

        candidates = state.candidates
        for r in template.graph.vertices():
            assert stats.label_count(r) == sum(
                r in roles for roles in candidates.values()
            )
        for a, b in template.graph.edges():
            for here, there in ((a, b), (b, a)):
                assert stats.directed_edges(here, there) == sum(
                    here in candidates[u] and there in candidates.get(v, ())
                    for u, nbrs in state.active_edges.items()
                    for v in nbrs
                )
        assert stats.num_vertices == state.num_active_vertices

    def test_an_active_vertex_without_roles_counts_for_no_role(self):
        graph, template = planted_case(wdc1_template())
        astate = ArraySearchState.initial(graph, template)
        before = GraphStatistics.from_scope(astate, template.graph)
        holder = int(np.flatnonzero(astate.vertex_active)[0])
        astate.role_mask[holder] = 0  # still active, as a level union leaves it
        after = GraphStatistics.from_scope(astate, template.graph)
        assert after.num_vertices == before.num_vertices
        assert sum(after.vertex_counts.values()) < sum(before.vertex_counts.values())

    def test_a_revisit_hop_is_a_probe_not_an_expansion(self):
        # triangle 0-1-2 over role counts 4 / 6 / 8 and 12 alive edges a
        # direction: rows 4 -> 12 -> 18, then one probe per row
        stats = GraphStatistics(
            18, {0: 4, 1: 6, 2: 8},
            {(0, 1): 12, (1, 0): 12, (1, 2): 9, (2, 1): 9, (2, 0): 16, (0, 2): 16},
            key="walk",
        )
        from repro.core.constraints import CYCLE_KIND, NonLocalConstraint

        cycle = NonLocalConstraint(CYCLE_KIND, (0, 1, 2, 0), (7, 7, 7, 7))
        assert estimate_walk_cost(cycle, stats) == 4 + 12 + 18 + 18
        # ... and what survives it is the chance a given pair is joined
        longer = NonLocalConstraint(CYCLE_KIND, (0, 1, 2, 0, 1, 0), (7,) * 6)
        survive = 18 * 16 / (8 * 4)
        assert estimate_walk_cost(longer, stats) == pytest.approx(
            52 + survive + survive * 12 / (4 * 6)
        )
