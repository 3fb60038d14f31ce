"""Tests for non-local constraint checking (token walks)."""

from repro.core import (
    NlccCache,
    PatternTemplate,
    SearchState,
    full_walk_constraint,
    generate_prototypes,
    local_constraint_checking,
    non_local_constraint_checking,
)
from repro.core.constraints import CYCLE_KIND, NonLocalConstraint, cycle_constraints
from repro.graph import from_edges
from repro.runtime import Engine, MessageStats, PartitionedGraph


def engine_for(graph, ranks=2):
    return Engine(PartitionedGraph(graph, ranks), MessageStats(ranks))


def triangle_template():
    return PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3}
    )


def prepared_state(graph, template):
    state = SearchState.initial(graph, template)
    proto = generate_prototypes(template, 0).at(0)[0]
    local_constraint_checking(state, proto.graph, engine_for(graph))
    return state


class TestCycleChecking:
    def test_eliminates_false_cycle_candidates(self):
        # 1-2-3 path closing back to a *different* label-1 vertex: LCC keeps
        # everything, the cycle check kills it.
        template = triangle_template()
        graph = from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
            labels={0: 1, 1: 2, 2: 3, 3: 1, 4: 2, 5: 3},
        )
        state = prepared_state(graph, template)
        assert state.num_active_vertices == 6  # LCC alone cannot prune a C6
        constraint = cycle_constraints(template.graph)[0]
        result = non_local_constraint_checking(
            state, constraint, engine_for(graph)
        )
        assert result.eliminated_roles > 0
        # After re-running LCC everything would cascade away; the direct
        # check already removed the constraint's source role everywhere.
        assert len(result.satisfied) == 0

    def test_keeps_true_cycles(self):
        template = triangle_template()
        graph = from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3}
        )
        state = prepared_state(graph, template)
        constraint = cycle_constraints(template.graph)[0]
        result = non_local_constraint_checking(state, constraint, engine_for(graph))
        assert result.eliminated_roles == 0
        assert len(result.satisfied) == 1

    def test_identity_enforced_distinct_vertices(self):
        # A "triangle" 1-2-1 where the walk would need to reuse a vertex.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 1}
        )
        graph = from_edges([(0, 1)], labels={0: 1, 1: 2})
        state = SearchState.initial(graph, template)
        constraint = cycle_constraints(template.graph)[0]
        result = non_local_constraint_checking(state, constraint, engine_for(graph))
        assert len(result.satisfied) == 0


class TestWorkRecycling:
    def test_cache_skips_token_initiation(self):
        template = triangle_template()
        graph = from_edges([(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3})
        constraint = cycle_constraints(template.graph)[0]
        cache = NlccCache()

        state1 = prepared_state(graph, template)
        engine1 = engine_for(graph)
        first = non_local_constraint_checking(
            state1, constraint, engine1, cache=cache
        )
        assert first.recycled == set()
        assert first.recycled_count == 0
        # the dict walk feeds the cache's id arrays too
        assert cache.satisfied(constraint.key).tolist() == sorted(first.satisfied)
        messages_first = engine1.stats.phases["nlcc"].messages

        state2 = prepared_state(graph, template)
        engine2 = engine_for(graph)
        second = non_local_constraint_checking(
            state2, constraint, engine2, cache=cache
        )
        assert second.recycled == second.satisfied != set()
        assert second.recycled_count == len(second.recycled)
        assert second.tokens_launched == 0
        assert cache.satisfied(constraint.key).tolist() == sorted(first.satisfied)
        assert engine2.stats.phases["nlcc"].messages < messages_first

    def test_recycle_disabled(self):
        template = triangle_template()
        graph = from_edges([(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3})
        constraint = cycle_constraints(template.graph)[0]
        cache = NlccCache()
        cache.mark_satisfied(constraint.key, [0])
        state = prepared_state(graph, template)
        result = non_local_constraint_checking(
            state, constraint, engine_for(graph), cache=cache, recycle=False
        )
        assert result.recycled == set()

    def test_full_walk_never_recycled(self):
        template = triangle_template()
        graph = from_edges([(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3})
        walk = full_walk_constraint(template.graph)
        cache = NlccCache()
        cache.mark_satisfied(walk.key, list(graph.vertices()))
        state = prepared_state(graph, template)
        result = non_local_constraint_checking(
            state, walk, engine_for(graph), cache=cache
        )
        assert result.recycled == set()
        assert result.completions > 0


class TestFullWalkReduction:
    def test_reduces_to_exact_solution(self):
        template = triangle_template()
        graph = from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
            labels={0: 1, 1: 2, 2: 3, 3: 2, 4: 1},
        )
        state = prepared_state(graph, template)
        walk = full_walk_constraint(template.graph)
        non_local_constraint_checking(state, walk, engine_for(graph))
        assert set(state.active_vertices()) == {0, 1, 2}
        assert state.num_active_edges == 3

    def test_completions_count_mappings(self):
        # Unlabeled triangle: 6 mappings per triangle instance.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 0, 1: 0, 2: 0}
        )
        graph = from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
            labels={v: 0 for v in range(6)},
        )
        state = SearchState.initial(graph, template)
        walk = full_walk_constraint(template.graph)
        result = non_local_constraint_checking(state, walk, engine_for(graph))
        assert result.completions == 12  # 2 triangles x 6 automorphisms

    def test_confirmed_roles_recorded(self):
        template = triangle_template()
        graph = from_edges([(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3})
        state = prepared_state(graph, template)
        walk = full_walk_constraint(template.graph)
        result = non_local_constraint_checking(state, walk, engine_for(graph))
        assert result.confirmed_roles[0] == {0}
        assert result.confirmed_roles[1] == {1}


class TestMessageAccounting:
    def test_tokens_counted_in_nlcc_phase(self):
        template = triangle_template()
        graph = from_edges([(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3})
        state = prepared_state(graph, template)
        engine = engine_for(graph)
        constraint = cycle_constraints(template.graph)[0]
        non_local_constraint_checking(state, constraint, engine)
        assert engine.stats.phases["nlcc"].messages > 0

    def test_token_identity_check_prunes_walk_space(self):
        # Walks cannot revisit distinct-role vertices, so the number of
        # token messages stays bounded by simple-path growth.
        template = triangle_template()
        graph = from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3}
        )
        state = prepared_state(graph, template)
        engine = engine_for(graph)
        constraint = NonLocalConstraint(CYCLE_KIND, (0, 1, 2, 0), (1, 2, 3, 1))
        non_local_constraint_checking(state, constraint, engine)
        # seed bcast (2 active nbrs) + hop2 + closing hop, single triangle
        assert engine.stats.phases["nlcc"].messages <= 12
