"""Tests for SearchState and the NLCC work-recycling cache."""

import numpy as np
import pytest

from repro.core import NlccCache, PatternTemplate, SearchState, generate_prototypes
from repro.graph import from_edges


def template():
    return PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3}, name="tri"
    )


def background():
    return from_edges(
        [(10, 11), (11, 12), (12, 10), (12, 13), (13, 14)],
        labels={10: 1, 11: 2, 12: 3, 13: 1, 14: 9},
    )


class TestInitialState:
    def test_candidates_by_label(self):
        state = SearchState.initial(background(), template())
        assert state.roles(10) == {0}
        assert state.roles(13) == {0}
        assert not state.is_active(14)  # label 9 not in template

    def test_full_adjacency_initially_active(self):
        # Alg. 4 initializes epsilon(v) to the raw adjacency: edges to
        # non-candidate neighbors stay until LCC eliminates them.
        state = SearchState.initial(background(), template())
        assert state.edge_is_active(10, 11)
        assert state.edge_is_active(13, 14)

    def test_counts(self):
        state = SearchState.initial(background(), template())
        assert state.num_active_vertices == 4
        # num_active_edges only counts candidate-candidate edges.
        assert state.num_active_edges == 4


class TestMutation:
    def test_deactivate_vertex_removes_edges(self):
        state = SearchState.initial(background(), template())
        state.deactivate_vertex(12)
        assert not state.is_active(12)
        assert not state.edge_is_active(11, 12)
        assert 12 not in state.active_neighbors(10)

    def test_deactivate_edge_is_symmetric(self):
        state = SearchState.initial(background(), template())
        state.deactivate_edge(10, 11)
        assert 11 not in state.active_neighbors(10)
        assert 10 not in state.active_neighbors(11)

    def test_remove_role_keeps_vertex_with_other_roles(self):
        state = SearchState.initial(background(), template())
        state.candidates[10] = {0, 1}
        state.remove_role(10, 0)
        assert state.roles(10) == {1}

    def test_remove_last_role_deactivates(self):
        state = SearchState.initial(background(), template())
        state.remove_role(10, 0)
        assert not state.is_active(10)

    def test_remove_role_of_inactive_vertex_is_noop(self):
        state = SearchState.initial(background(), template())
        state.remove_role(14, 0)
        assert not state.is_active(14)


class TestViews:
    def test_copy_independent(self):
        state = SearchState.initial(background(), template())
        clone = state.copy()
        clone.deactivate_vertex(10)
        assert state.is_active(10)

    def test_to_graph(self):
        state = SearchState.initial(background(), template())
        g = state.to_graph()
        assert g.num_vertices == 4
        assert g.has_edge(10, 11)
        assert g.label(10) == 1

    def test_active_edge_list_canonical(self):
        state = SearchState.initial(background(), template())
        edges = state.active_edge_list()
        assert all(u < v for u, v in edges)
        assert len(edges) == state.num_active_edges

    def test_union_with(self):
        state_a = SearchState.initial(background(), template())
        state_b = state_a.copy()
        state_a.deactivate_vertex(10)
        state_b.deactivate_vertex(13)
        state_a.union_with(state_b)
        assert state_a.is_active(10)
        assert state_a.is_active(13)
        assert state_a.edge_is_active(10, 11)

    def test_empty(self):
        state = SearchState.empty(background())
        assert state.num_active_vertices == 0


class TestForPrototypeSearch:
    def test_roles_reset_by_label(self):
        state = SearchState.initial(background(), template())
        state.candidates[10] = set()  # corrupt roles; vertex still "active"
        state.candidates[10] = {0}
        protos = generate_prototypes(template(), 1)
        scoped = state.for_prototype_search(protos.at(0)[0])
        assert scoped.roles(10) == {0}

    def test_edges_filtered_by_prototype_adjacency(self):
        protos = generate_prototypes(template(), 1)
        child = protos.at(1)[0]  # a path: one triangle edge removed
        state = SearchState.initial(background(), template())
        scoped = state.for_prototype_search(child)
        missing = child.removed_edges()[0]
        lab_a = template().graph.label(missing[0])
        lab_b = template().graph.label(missing[1])
        for u, v in scoped.active_edge_list():
            pair = tuple(sorted((scoped.graph.label(u), scoped.graph.label(v))))
            assert pair != tuple(sorted((lab_a, lab_b)))

    def test_readmission_restores_background_edges(self):
        protos = generate_prototypes(template(), 1)
        root = protos.at(0)[0]
        state = SearchState.initial(background(), template())
        # Simulate a union state that lost edge (10, 11).
        state.deactivate_edge(10, 11)
        scoped = state.for_prototype_search(root, readmit_label_pairs=[(1, 2)])
        assert scoped.edge_is_active(10, 11)

    def test_no_readmission_without_pair(self):
        protos = generate_prototypes(template(), 1)
        root = protos.at(0)[0]
        state = SearchState.initial(background(), template())
        state.deactivate_edge(10, 11)
        scoped = state.for_prototype_search(root)
        assert not scoped.edge_is_active(10, 11)


class TestReadmitLabelPairs:
    """Obs. 1 readmission edge cases, on the dict and array states alike."""

    def path_template(self):
        # 1 - 2 - 3 path: the label pair (1, 3) is NOT adjacent.
        return PatternTemplate.from_edges(
            [(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 3}, name="path"
        )

    def path_background(self):
        # Triangle 10-11-12 plus the chord-less pair: the (10, 12)
        # background edge carries the non-adjacent label pair (1, 3).
        return from_edges(
            [(10, 11), (11, 12), (10, 12)],
            labels={10: 1, 11: 2, 12: 3},
        )

    def scoped_pair(self, state, proto, pairs):
        """The dict scoping and its array twin, as comparable snapshots."""
        from repro.core import ArraySearchState

        astate = ArraySearchState.from_search_state(state)
        scoped = state.for_prototype_search(proto, readmit_label_pairs=pairs)
        ascoped = astate.for_prototype_search(proto, readmit_label_pairs=pairs)
        exported = ascoped.to_search_state()
        assert exported.candidates == scoped.candidates
        assert sorted(exported.active_edge_list()) == sorted(
            scoped.active_edge_list()
        )
        return scoped

    def test_readmit_pair_must_be_prototype_adjacent(self):
        # (1, 3) is a background edge's pair but not a path-adjacent one:
        # asking for its readmission must be a no-op.
        proto = generate_prototypes(self.path_template(), 0).at(0)[0]
        state = SearchState.initial(self.path_background(), self.path_template())
        state.deactivate_edge(10, 12)
        scoped = self.scoped_pair(state, proto, [(1, 3)])
        assert not scoped.edge_is_active(10, 12)

    def test_readmit_pair_is_unordered(self):
        proto = generate_prototypes(template(), 1).at(0)[0]
        state = SearchState.initial(background(), template())
        state.deactivate_edge(10, 11)  # labels (1, 2)
        scoped = self.scoped_pair(state, proto, [(2, 1)])
        assert scoped.edge_is_active(10, 11)

    def test_no_readmission_to_inactive_vertices(self):
        proto = generate_prototypes(template(), 1).at(0)[0]
        state = SearchState.initial(background(), template())
        state.deactivate_vertex(13)  # label 1; edge (12, 13) has pair (1, 3)
        scoped = self.scoped_pair(state, proto, [(1, 3)])
        assert not scoped.edge_is_active(12, 13)
        assert not scoped.is_active(13)

    def test_readmission_is_idempotent_for_live_edges(self):
        # Readmitting a pair whose edges are already active changes nothing.
        proto = generate_prototypes(template(), 1).at(0)[0]
        state = SearchState.initial(background(), template())
        plain = state.for_prototype_search(proto)
        readmitted = self.scoped_pair(state, proto, [(1, 2), (2, 3), (1, 3)])
        assert readmitted.candidates == plain.candidates
        assert sorted(readmitted.active_edge_list()) == sorted(
            plain.active_edge_list()
        )


class TestNlccCache:
    def test_miss_then_hit(self):
        cache = NlccCache()
        assert not cache.is_satisfied("k", 5)
        cache.mark_satisfied("k", [5])
        assert cache.is_satisfied("k", 5)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_separate_keys(self):
        cache = NlccCache()
        cache.mark_satisfied("a", [1])
        assert not cache.is_satisfied("b", 1)

    def test_size(self):
        cache = NlccCache()
        cache.mark_satisfied("a", [1, 2])
        cache.mark_satisfied("b", [3])
        assert cache.size() == (2, 3)
        assert cache.known_constraints() == {"a", "b"}
        # duplicates and re-marked ids are stored once
        cache.mark_satisfied("a", [2, 2, 7])
        assert cache.size() == (2, 4)
        # marking nothing still registers the constraint, as the set did
        cache.mark_satisfied("c", [])
        assert cache.size() == (3, 4)
        assert cache.known_constraints() == {"a", "b", "c"}

    def test_satisfied_is_one_sorted_unique_int64_array(self):
        cache = NlccCache()
        cache.mark_satisfied("k", [9, 3, 3, 5])
        cache.mark_satisfied("k", {5, 1, 12})
        cache.mark_satisfied("k", np.array([12, 0, 9], dtype=np.int64))
        cache.mark_satisfied("k", iter([4]))
        ids = cache.satisfied("k")
        assert isinstance(ids, np.ndarray) and ids.dtype == np.int64
        assert ids.tolist() == [0, 1, 3, 4, 5, 9, 12]
        # an empty merge keeps the stored array as it is
        cache.mark_satisfied("k", [])
        cache.mark_satisfied("k", np.zeros(0, dtype=np.int64))
        assert cache.satisfied("k") is ids

    def test_satisfied_arrays_are_read_only(self):
        cache = NlccCache()
        cache.mark_satisfied("k", [2, 1])
        with pytest.raises(ValueError):
            cache.satisfied("k")[0] = 5
        with pytest.raises(ValueError):
            cache.satisfied("never seen")[:] = 0
        # the caller's array is copied, not adopted
        mine = np.array([8, 6], dtype=np.int64)
        cache.mark_satisfied("mine", mine)
        mine[0] = 100
        assert cache.satisfied("mine").tolist() == [6, 8]

    def test_unknown_key_is_an_empty_array(self):
        cache = NlccCache()
        ids = cache.satisfied("never seen")
        assert ids.shape == (0,) and ids.dtype == np.int64
        assert cache.known_constraints() == set()
        assert cache.size() == (0, 0)

    def test_is_satisfied_counts_every_probe(self):
        cache = NlccCache()
        cache.mark_satisfied("k", [4, 10, 6])
        probes = [(3, False), (4, True), (5, False), (6, True),
                  (10, True), (11, False)]
        for vertex, expected in probes:
            assert cache.is_satisfied("k", vertex) is expected
        assert not cache.is_satisfied("other", 4)
        assert (cache.hits, cache.misses) == (3, 4)
        # bulk accounting adds to the same counters; reads touch neither
        cache.record_bulk(hits=2, misses=5)
        cache.satisfied("k")
        assert (cache.hits, cache.misses) == (5, 9)
