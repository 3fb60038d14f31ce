"""Constraints are planned once, and only for prototypes that survive LCC.

Guards around :class:`repro.core.ordering.ConstraintPlan`:

* (i) walks are built only for a prototype whose post-LCC scope is
  non-empty, and the eager builder runs once for each such prototype
  whose plan keeps its complete list, never for the others;
* (ii) a plan's list equals, element for element, what the drivers used to
  build eagerly (``order_constraints`` / ``order_constraints_by_cost`` over
  ``generate_constraints(...).non_local``) — and, for two templates, the
  lists pinned from the commit before the planner existed, so orienting a
  walk *before* constructing it cannot drift;
* (iii) exactness is answered without a build, the full walk with one;
* (iv) bottom-up and top-down outcomes on small versions of the six
  Fig. 7 stream rows equal the values pinned from that commit;
* (v) one cycle enumeration per built plan;
* every driver checks the same keys in the same order under each
  ``constraint_ordering`` (``"walk-cost"`` used to reach one driver only);
* an exploratory run reports its compile-cache traffic.

``fixtures/constraint_plan_parent.json`` was written by running the
reference computations below against the parent commit's ``src``.  Two
things in it were re-recorded when the plan began to choose which
constraints run (``ConstraintPlan.select``; its own tests are in
``test_constraint_selection.py``), each by a script that asserted what
must not move: the checked-constraint and message columns of
``outcomes`` (prototype ids, solution digests and mapping counts equal;
every plan of the six cases answers "the full walk alone" — the rows as
first recorded live on as ``outcomes_complete_list`` and are what a plan
held to its whole list must still produce), and the ``"walk-cost"``
order of WDC-2 (the estimate became revisit-aware: the same constraints,
permuted, the full walk still last).
"""

import collections
import hashlib
import json
from pathlib import Path

import pytest

import repro.core.constraints as constraints_module
import repro.core.search as search_module
from repro.core import (
    ConstraintPlanner,
    PipelineOptions,
    exploratory_search,
    generate_constraints,
    generate_prototypes,
    run_pipeline,
)
from repro.core.constraints import FULL_WALK_KIND
from repro.core.cost_estimation import GraphStatistics, order_constraints_by_cost
from repro.core.flips import run_flip_pipeline
from repro.core.kernels import clear_kernel_cache
from repro.core.ordering import order_constraints
from repro.core.patterns import (
    imdb1_template,
    rdt1_template,
    rmat1_template,
    wdc1_template,
    wdc2_template,
    wdc3_template,
)
from repro.core.restart import run_pipeline_with_checkpoints
from repro.core.template import PatternTemplate, clique_template
from repro.graph.generators import (
    imdb_graph,
    planted_graph,
    reddit_graph,
    rmat_graph,
)

PINS = json.loads(
    (Path(__file__).parent / "fixtures" / "constraint_plan_parent.json").read_text()
)
ORDERINGS = (True, False, "walk-cost")


def never(level):
    return False


def stream_cases():
    """Small (name, graph, template, k) versions of the six Fig. 7 rows."""
    rmat = rmat_graph(scale=7, edge_factor=8, seed=5)
    counts = rmat.label_counts()
    top6 = sorted(counts, key=lambda label: (-counts[label], label))[:6]
    cases = [("RMAT-1", rmat, rmat1_template(labels=top6), 2)]
    for factory in (wdc1_template, wdc2_template, wdc3_template):
        template = factory()
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        graph = planted_graph(
            300, 700, template.edges(), labels, copies=3, num_labels=12, seed=3
        )
        cases.append((template.name, graph, template, 2))
    cases.append((
        "RDT-1",
        reddit_graph(
            num_authors=120, num_subreddits=8, posts_per_author=1.5,
            comments_per_post=3.0, planted_rdt1=4, seed=20,
        ),
        rdt1_template(), 1,
    ))
    cases.append((
        "IMDB-1",
        imdb_graph(
            num_movies=60, num_genres=6, num_actresses=60, num_actors=60,
            num_directors=20, cast_size=3, planted_imdb1=3, seed=31,
        ),
        imdb1_template(), 2,
    ))
    return cases


CASES = {case[0]: case for case in stream_cases()}


def clique_case():
    """A 5-clique whose planted copies lack two edges: matches at k = 2."""
    template = clique_template(5, labels=[0, 1, 2, 3, 4], name="K5")
    relaxed = [e for e in template.edges() if e not in [(0, 1), (2, 3)]]
    graph = planted_graph(
        200, 500, relaxed, [0, 1, 2, 3, 4], copies=2, num_labels=6, seed=7
    )
    return graph, template


def eager_reference(graph, proto_graph, ordering, stats):
    """The list the drivers built before the planner, step for step."""
    frequencies = graph.label_counts()
    non_local = generate_constraints(proto_graph, frequencies).non_local
    if ordering == "walk-cost":
        return order_constraints_by_cost(non_local, stats)
    return order_constraints(non_local, frequencies, optimize=bool(ordering))


def proto_key(proto_graph):
    return tuple(sorted(proto_graph.edges()))


# ----------------------------------------------------------------------
# (i) one build per surviving prototype, none for the others
# ----------------------------------------------------------------------
@pytest.fixture
def builds(monkeypatch):
    """Counts ``generate_constraints`` calls per prototype graph."""
    calls = collections.Counter()
    raw = constraints_module.generate_constraints

    def counting(proto_graph, *args, **kwargs):
        calls[proto_key(proto_graph)] += 1
        return raw(proto_graph, *args, **kwargs)

    monkeypatch.setattr(constraints_module, "generate_constraints", counting)
    return calls


@pytest.fixture
def constructed(monkeypatch):
    """Counts ``NonLocalConstraint`` constructions per prototype graph."""
    calls = collections.Counter()
    raw_init = constraints_module.NonLocalConstraint.__init__

    def counting(self, kind, walk, labels, proto_graph=None):
        calls[proto_key(proto_graph)] += 1
        raw_init(self, kind, walk, labels, proto_graph)

    monkeypatch.setattr(
        constraints_module.NonLocalConstraint, "__init__", counting
    )
    return calls


def survivors(result):
    return {
        proto_key(outcome.prototype.graph): 1
        for outcome in result.outcomes()
        if outcome.post_lcc_vertices
    }


def keepers(outcomes):
    """The surviving prototypes whose plan kept its complete list."""
    return {
        proto_key(outcome.prototype.graph): 1
        for outcome in outcomes
        if outcome.post_lcc_vertices
        and not outcome.counts.get("plan.prefilters_skipped", 0)
    }


class TestPlannedOnlyWhenScopeSurvivesLcc:
    """Walks are built only for a scope that survived LCC; the eager
    builder runs only for a plan that keeps its complete list (a plan
    answering "the full walk alone" builds walks up to its decision)."""

    def test_exploratory_search(self, builds, constructed):
        graph, template = clique_case()
        result = exploratory_search(graph, template)
        searched = len(result.outcomes())
        assert result.matched_vertices()
        assert builds == keepers(result.outcomes())
        assert constructed.keys() <= survivors(result).keys()
        assert 0 < len(constructed) < searched

    @pytest.mark.parametrize(
        "name, some_die_in_lcc", [("WDC-1", False), ("RMAT-1", True)]
    )
    def test_run_pipeline(self, builds, constructed, name, some_die_in_lcc):
        _, graph, template, k = CASES[name]
        result = run_pipeline(graph, template, k)
        alive = survivors(result)
        assert builds == keepers(result.outcomes())
        assert constructed.keys() <= alive.keys()
        assert builds or constructed
        assert (len(alive) < len(result.outcomes())) == some_die_in_lcc

    def test_checkpointed_sweep_and_flips_plan_lazily_too(
        self, builds, constructed, tmp_path
    ):
        _, graph, template, k = CASES["RMAT-1"]
        result = run_pipeline_with_checkpoints(graph, template, k, tmp_path)
        assert builds == keepers(result.outcomes())
        assert constructed.keys() <= survivors(result).keys()
        builds.clear()
        constructed.clear()
        flipped = run_flip_pipeline(graph, template, flips=1)
        outcomes = list(flipped.outcomes.values())
        alive = [o for o in outcomes if o.post_lcc_vertices]
        assert sum(builds.values()) == len(keepers(outcomes))
        assert len(constructed) <= len(alive) < len(outcomes)


# ----------------------------------------------------------------------
# (ii) the plan's list is the eager list
# ----------------------------------------------------------------------
def plan_lists(name, ordering):
    _, graph, template, k = CASES[name]
    planner = ConstraintPlanner(graph, ordering)
    return [
        (proto, planner.plan(proto.graph).non_local)
        for proto in generate_prototypes(template, k)
    ]


class TestPlanEqualsEagerList:
    @pytest.mark.parametrize("ordering", ORDERINGS, ids=str)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_element_for_element(self, name, ordering):
        _, graph, template, k = CASES[name]
        stats = GraphStatistics.from_graph(graph)
        for proto, plan in plan_lists(name, ordering):
            reference = eager_reference(graph, proto.graph, ordering, stats)
            assert [(c.kind, c.walk, c.labels, c.key) for c in plan] == [
                (c.kind, c.walk, c.labels, c.key) for c in reference
            ]
            assert all(c.proto_graph is proto.graph for c in plan)

    @pytest.mark.parametrize("ordering", ORDERINGS, ids=str)
    @pytest.mark.parametrize("name", sorted(PINS["plans"]))
    def test_pinned_from_parent(self, name, ordering):
        planned = [
            [[c.kind, list(c.walk)] for c in plan]
            for _, plan in plan_lists(name, ordering)
        ]
        assert planned == PINS["plans"][name][str(ordering)]

    def test_orientation_happens_before_construction(self, monkeypatch):
        _, graph, template, _ = CASES["WDC-2"]
        constructed = []
        raw_init = constraints_module.NonLocalConstraint.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            raw_init(self, *args, **kwargs)

        monkeypatch.setattr(
            constraints_module.NonLocalConstraint, "__init__", counting_init
        )
        plan = ConstraintPlanner(graph, True).plan(template.graph)
        assert not constructed
        planned = plan.non_local
        assert len(constructed) == len(planned)
        # the pinned lists show this template has walks that get reversed
        unoriented = ConstraintPlanner(graph, False).plan(template.graph)
        assert {c.walk for c in plan.non_local} != {
            c.walk for c in unoriented.non_local
        }


# ----------------------------------------------------------------------
# (iii) exactness without a build, the full walk with one
# ----------------------------------------------------------------------
class TestPlanAnswers:
    def test_exactness_needs_no_build(self, builds):
        graph = CASES["WDC-1"][1]
        planner = ConstraintPlanner(graph)
        tree = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (1, 3)], {0: 1, 1: 2, 2: 3, 3: 4}
        ).graph
        twin_tree = PatternTemplate.from_edges(
            [(0, 1), (1, 2)], {0: 1, 1: 2, 2: 1}
        ).graph
        cyclic = wdc1_template().graph
        plans = [planner.plan(g) for g in (tree, twin_tree, cyclic)]
        assert [p.exact_without_full_walk for p in plans] == [True, False, False]
        assert not builds

    def test_full_walk_builds_once(self, builds):
        graph = CASES["WDC-1"][1]
        cyclic = wdc1_template().graph
        plan = ConstraintPlanner(graph).plan(cyclic)
        walk = plan.full_walk()
        assert walk.kind == FULL_WALK_KIND
        assert walk is plan.non_local[-1] is plan.full_walk()
        assert builds == {proto_key(cyclic): 1}
        eager = generate_constraints(cyclic, graph.label_counts())
        assert plan.exact_without_full_walk == eager.exact_without_full_walk

    def test_no_full_walk_when_provably_exact(self):
        graph = CASES["WDC-1"][1]
        tree = PatternTemplate.from_edges([(0, 1)], {0: 1, 1: 2}).graph
        plan = ConstraintPlanner(graph).plan(tree)
        assert plan.full_walk() is None and plan.non_local == []

    def test_walk_statistics_collected_once_and_on_demand(self, monkeypatch):
        _, graph, template, k = CASES["WDC-1"]
        collected = []
        raw = GraphStatistics.from_graph.__func__

        def counting(cls, background):
            collected.append(background)
            return raw(cls, background)

        monkeypatch.setattr(GraphStatistics, "from_graph", classmethod(counting))
        protos = list(generate_prototypes(template, k))
        for ordering, expected in ((True, 0), (False, 0), ("walk-cost", 1)):
            del collected[:]
            planner = ConstraintPlanner(graph, ordering)
            plans = [planner.plan(proto.graph) for proto in protos]
            assert not collected
            for plan in plans:
                plan.non_local
            assert len(collected) == expected


# ----------------------------------------------------------------------
# (iv) outcomes pinned from the parent
# ----------------------------------------------------------------------
def digest(items):
    return hashlib.sha1(json.dumps(sorted(items)).encode()).hexdigest()[:12]


def outcome_rows(result):
    return [
        [
            o.prototype.id,
            digest(o.solution_vertices),
            digest([list(edge) for edge in o.solution_edges]),
            o.match_mappings,
            o.counts.get("nlcc.constraints_checked", 0),
            o.messages,
        ]
        for o in sorted(result.outcomes(), key=lambda o: o.prototype.id)
    ]


def driver_outcomes(name, driver):
    _, graph, template, k = CASES[name]
    if driver == "top-down":
        result = exploratory_search(
            graph, template, max_k=k, stop_condition=never,
            options=PipelineOptions(count_matches=True),
        )
    else:
        result = run_pipeline(
            graph, template, k, PipelineOptions(count_matches=True)
        )
    return outcome_rows(result)


class TestOutcomesPinnedFromParent:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bottom_up(self, name):
        assert driver_outcomes(name, "bottom-up") == (
            PINS["outcomes"][name]["bottom-up"]
        )

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_top_down(self, name):
        assert driver_outcomes(name, "top-down") == (
            PINS["outcomes"][name]["top-down"]
        )

    @pytest.mark.parametrize("driver", ["bottom-up", "top-down"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_complete_lists_still_give_the_parents_counts(
        self, complete_constraint_lists, name, driver
    ):
        # the rows as first recorded, checked-constraint and message
        # columns included: a plan held to its whole list walks what the
        # parent commit walked
        assert driver_outcomes(name, driver) == (
            PINS["outcomes_complete_list"][name][driver]
        )


# ----------------------------------------------------------------------
# (v) one cycle enumeration per built plan
# ----------------------------------------------------------------------
def test_cycles_enumerated_once_per_built_plan(monkeypatch):
    graph = CASES["WDC-2"][1]
    entered = []
    raw = constraints_module.simple_cycles_upto

    def counting(*args, **kwargs):
        entered.append(args)
        return raw(*args, **kwargs)

    monkeypatch.setattr(constraints_module, "simple_cycles_upto", counting)
    plan = ConstraintPlanner(graph).plan(wdc2_template().graph)
    assert not entered
    kinds = {c.kind for c in plan.non_local}
    assert {"cycle", "path", "tds", FULL_WALK_KIND} <= kinds
    plan.non_local, plan.full_walk()
    assert len(entered) == 1


# ----------------------------------------------------------------------
# one ordering choice for every driver
# ----------------------------------------------------------------------
@pytest.fixture
def checked_keys(monkeypatch):
    """Per-prototype sequences of the constraint keys NLCC was handed;
    ``read()`` drains them."""
    log = []
    raw = search_module.non_local_constraint_checking

    def recording(state, constraint, *args, **kwargs):
        log.append((proto_key(constraint.proto_graph), repr(constraint.key)))
        return raw(state, constraint, *args, **kwargs)

    monkeypatch.setattr(search_module, "non_local_constraint_checking", recording)

    def read():
        sequences = collections.defaultdict(list)
        for proto, key in log:
            sequences[proto].append(key)
        log.clear()
        return dict(sequences)

    return read


class TestEveryDriverChecksInTheSameOrder:
    def both_drivers(self, checked_keys, ordering):
        _, graph, template, k = CASES["WDC-2"]
        # every scope cut from M* and every level searched, so the two
        # drivers hand each prototype the same starting scope
        knobs = dict(
            constraint_ordering=ordering, use_containment=False,
            work_recycling=False,
        )
        run_pipeline(graph, template, k, PipelineOptions(**knobs))
        inline = checked_keys()
        exploratory_search(
            graph, template, max_k=k, stop_condition=never,
            options=PipelineOptions(**knobs),
        )
        top_down = checked_keys()
        assert inline and inline == top_down

        stats = GraphStatistics.from_graph(graph)
        for proto in generate_prototypes(template, k):
            sequence = inline.get(proto_key(proto.graph), [])
            reference = eager_reference(graph, proto.graph, ordering, stats)
            yield sequence, [repr(c.key) for c in reference]

    @pytest.mark.parametrize("ordering", ORDERINGS, ids=str)
    def test_inline_and_top_down_agree(self, checked_keys, ordering):
        # ... and that order is the eager reference's: the whole list,
        # cut where the scope emptied, or its last element — the full
        # walk — alone
        for sequence, keys in self.both_drivers(checked_keys, ordering):
            assert sequence in (keys[: len(sequence)], keys[-1:])

    @pytest.mark.parametrize("ordering", ORDERINGS, ids=str)
    def test_complete_lists_agree_too(
        self, checked_keys, complete_constraint_lists, ordering
    ):
        # every WDC-2 plan answers "the full walk alone"; held to the
        # complete list, the drivers still walk it in one order
        lengths = set()
        for sequence, keys in self.both_drivers(checked_keys, ordering):
            assert sequence == keys[: len(sequence)]
            lengths.add(len(sequence))
        assert max(lengths) > 1

    def test_walk_cost_is_a_different_order_here(self, checked_keys):
        # without this the parametrised test could not tell a driver that
        # ignores "walk-cost" from one that honours it
        _, graph, template, k = CASES["WDC-2"]
        sequences = {}
        for ordering in (True, "walk-cost"):
            exploratory_search(
                graph, template, max_k=k, stop_condition=never,
                options=PipelineOptions(
                    constraint_ordering=ordering, work_recycling=False
                ),
            )
            sequences[ordering] = checked_keys()
        assert sequences[True] != sequences["walk-cost"]


# ----------------------------------------------------------------------
# exploratory runs report their compile-cache traffic
# ----------------------------------------------------------------------
def test_exploratory_run_reports_compile_cache_counters():
    # the kernel cache is the one process-wide compile cache, and every
    # search goes through it
    graph, template = clique_case()
    clear_kernel_cache()
    cold = exploratory_search(graph, template)
    warm = exploratory_search(graph, template)
    cold_counters = cold.stats_document()["metrics"]["counters"]
    warm_counters = warm.stats_document()["metrics"]["counters"]
    assert cold_counters["cache.kernel.misses"] > 0
    assert warm_counters["cache.kernel.hits"] >= cold_counters["cache.kernel.misses"]
    assert "cache.kernel.misses" not in warm_counters
