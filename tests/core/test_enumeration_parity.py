"""Parity properties for the vectorized match enumerator and wide masks.

``enumerate_matches_array`` is pure performance work: on every input the
mapping *set* it produces must be bit-exact with the reference backend's
dict backtracker (:func:`enumerate_matches`), including edge-labeled and
wildcard pattern edges — only the enumeration order may differ.  Likewise the multi-word
``(n, n_words)`` role-mask layout must reach the same fixed point as the
single-word fast path on the same seeds.  These tests pin both contracts
on the randomized workloads of ``test_kernels.py``.
"""

import numpy as np
import pytest

from repro.core import (
    ArraySearchState,
    PatternTemplate,
    SearchState,
    compile_kernel,
    generate_prototypes,
    local_constraint_checking,
    max_candidate_set,
)
from repro.core.arraystate import array_kernel_fixpoint
from repro.core.enumeration import (
    enumerate_matches,
    enumerate_matches_array,
)
from repro.core.kernels import TABLE_MAX_ROLES, cached_kernel
from repro.graph.generators import planted_graph
from repro.graph.graph import Graph

from test_kernels import engine_for, random_case


def mapping_set(mappings):
    return {frozenset(m.items()) for m in mappings}


def verification_state(seed, proto_index, k=1):
    """A (prototype, pruned dict state) pair as search.py verifies it."""
    graph, template = random_case(seed)
    engine = engine_for(graph)
    state = max_candidate_set(graph, template, engine)
    protos = generate_prototypes(template, k).all()
    proto = protos[proto_index % len(protos)]
    scoped = state.for_prototype_search(proto)
    local_constraint_checking(scoped, proto.graph, engine_for(graph))
    return proto, scoped


def astate_for(proto, state, min_words=1):
    kernel = cached_kernel(proto.graph)
    return ArraySearchState.from_search_state(
        state, roles=kernel.roles, min_words=min_words
    )


class TestEnumerationParity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("proto_index", range(3))
    def test_mapping_sets_identical(self, seed, proto_index):
        proto, state = verification_state(seed, proto_index)
        expected = mapping_set(enumerate_matches(proto, state))
        match_set = enumerate_matches_array(proto, astate_for(proto, state))
        assert mapping_set(match_set.mappings()) == expected
        assert len(match_set) == len(expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_wide_masks_enumerate_identically(self, seed):
        # Forcing the (n, 2)-word layout on a <=64-role prototype must
        # not change the mapping set: the wide branches of the frontier
        # walk see the same candidacies through a different addressing.
        proto, state = verification_state(seed, proto_index=0)
        expected = mapping_set(enumerate_matches(proto, state))
        astate = astate_for(proto, state, min_words=2)
        assert astate.n_words == 2
        match_set = enumerate_matches_array(proto, astate)
        assert mapping_set(match_set.mappings()) == expected

    def test_limit_truncates_within_the_full_set(self):
        proto, state = verification_state(0, proto_index=0)
        full = mapping_set(enumerate_matches(proto, state))
        if len(full) < 2:
            pytest.skip("seed produced too few matches to truncate")
        limited = enumerate_matches_array(
            proto, astate_for(proto, state), limit=1
        )
        assert len(limited) == 1
        assert mapping_set(limited.mappings()) <= full

    def test_empty_scope_enumerates_nothing(self):
        proto, state = verification_state(1, proto_index=0)
        for vertex in list(state.candidates):
            state.deactivate_vertex(vertex)
        assert list(enumerate_matches(proto, state)) == []
        assert len(enumerate_matches_array(proto, astate_for(proto, state))) == 0


class TestEdgeLabelEnumerationParity:
    def background(self, seed):
        """Random 3-label graph; half the edges carry an edge label."""
        rng = np.random.default_rng(seed)
        graph = Graph()
        n = 24
        for v in range(n):
            graph.add_vertex(v, int(rng.integers(3)) + 1)
        added = 0
        while added < 70:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and not graph.has_edge(u, v):
                label = None if rng.random() < 0.5 else int(rng.integers(2)) + 6
                graph.add_edge(u, v, label)
                added += 1
        return graph

    def template(self, wanted=7):
        # one labeled edge, two wildcard (None) edges
        return PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)],
            labels={0: 1, 1: 2, 2: 3},
            edge_labels={(0, 1): wanted},
            name="el-parity",
        )

    def pruned(self, graph, template):
        proto = generate_prototypes(template, 0).at(0)[0]
        state = SearchState.initial(graph, template)
        local_constraint_checking(state, proto.graph, engine_for(graph))
        return proto, state

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("min_words", [1, 2])
    def test_labeled_and_wildcard_edges_identical(self, seed, min_words):
        graph = self.background(seed)
        proto, state = self.pruned(graph, self.template())
        expected = mapping_set(enumerate_matches(proto, state))
        match_set = enumerate_matches_array(
            proto, astate_for(proto, state, min_words=min_words)
        )
        assert mapping_set(match_set.mappings()) == expected

    def test_ghost_edge_label_yields_no_matches(self):
        # The template wants edge label 42, which no graph edge carries:
        # both enumerators must agree on the empty set.
        graph = self.background(0)
        proto, state = self.pruned(graph, self.template(wanted=42))
        assert list(enumerate_matches(proto, state)) == []
        assert len(enumerate_matches_array(proto, astate_for(proto, state))) == 0


def fixpoint_report(graph, template, kernel, min_words, **kwargs):
    """Run the array fixpoint from label seeding; return all it reported.

    That is the state (masks as ``(n, words)``, activity, aliveness), the
    round count, every rank-by-rank message matrix and visit vector
    handed to the engine, the engine's stats, and the ``fixpoint.*``
    metrics (five counters and the worklist histogram).
    """
    engine = engine_for(graph)
    rounds = []
    record = engine.record_batched_rounds

    def recording(matrices, visits, *args, **kw):
        rounds.extend(zip(matrices.tolist(), visits.tolist()))
        record(matrices, visits, *args, **kw)

    engine.record_batched_rounds = recording
    astate = ArraySearchState.initial(graph, template, min_words=min_words)
    assert astate.n_words == min_words
    iterations = array_kernel_fixpoint(astate, kernel, engine, **kwargs)
    assert len(rounds) == iterations  # one (matrix, visits) pair per round
    snapshot = engine.metrics.snapshot()
    metrics = {
        name: value
        for kind in ("counters", "histograms")
        for name, value in snapshot[kind].items()
        if name.startswith("fixpoint.")
    }
    assert len(metrics) == 6
    return {
        "masks": astate.role_mask.reshape(graph.num_vertices, -1),
        "vertex_active": astate.vertex_active,
        "edge_alive": astate.edge_alive,
        "iterations": iterations,
        "rounds": rounds,
        "supersteps": engine.stats.total_barriers,
        "stats": engine.stats.summary(),
        "intervals": engine.stats.intervals,
        "metrics": metrics,
    }


def edge_labeled_case(seed):
    suite = TestEdgeLabelEnumerationParity()
    return suite.background(seed), suite.template()


def cascade_case(_seed):
    """The dense-round switch's 2 200-vertex cascade; it has one shape."""
    from test_adaptive import cascade_workload

    return cascade_workload()


def eleven_role_case(seed):
    """A one-word template past ``TABLE_MAX_ROLES``: both layouts run the
    per-bit refinement, one word against two."""
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3),
        (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
    ]
    labels = [role % 4 for role in range(11)]
    template = PatternTemplate.from_edges(edges, dict(enumerate(labels)))
    graph = planted_graph(
        60, 170, edges, labels, copies=2, num_labels=4, seed=seed
    )
    return graph, template


def isolated_role_case(seed):
    """``random_case`` with one more role that has no template edge.

    A template must be connected, so the role is added to its graph after
    validation; under ``M*`` the label match alone keeps it.
    """
    graph, template = random_case(seed)
    template.graph.add_vertex(max(template.vertices()) + 1, 2)
    return graph, template


#: mode -> (case factory, seeds, fixpoint keyword arguments given the kernel)
FIXPOINT_MODES = {
    "lcc": (random_case, range(8), lambda kernel, n: {}),
    "mstar": (
        random_case,
        range(8),
        lambda kernel, n: {"mandatory_masks": kernel.mandatory_masks([])},
    ),
    "mstar-mandatory": (
        random_case,
        range(8),
        lambda kernel, n: {
            "mandatory_masks": kernel.mandatory_masks([(0, 1)])
        },
    ),
    "edge-labeled": (edge_labeled_case, range(8), lambda kernel, n: {}),
    "warm": (
        random_case,
        range(8),
        lambda kernel, n: {
            "warm_mask": np.random.default_rng(n).random(n) < 0.5
        },
    ),
    "full-rounds": (
        random_case, range(8), lambda kernel, n: {"delta": False}
    ),
    # the dense-round switch has no keyword: it fires on this cascade
    "adaptive": (cascade_case, range(1), lambda kernel, n: {}),
    # the role tables' selection: past TABLE_MAX_ROLES both sides loop
    "lcc-11-roles": (eleven_role_case, range(4), lambda kernel, n: {}),
    "mstar-isolated": (
        isolated_role_case,
        range(4),
        lambda kernel, n: {
            "mandatory_masks": kernel.mandatory_masks([(0, 1)])
        },
    ),
}


class TestWideFixpointParity:
    """The ``(n, 2)``-word layout of a <= 64-role template runs the very
    same fixpoint as the single-word layout: same fixed point, rounds,
    messages, supersteps and metrics, in every mode of the fixpoint."""

    @pytest.mark.parametrize("mode, seed", [
        (mode, seed)
        for mode, (_, seeds, _) in sorted(FIXPOINT_MODES.items())
        for seed in seeds
    ])
    def test_multi_word_fixpoint_matches_single_word(self, mode, seed):
        make_case, _, make_kwargs = FIXPOINT_MODES[mode]
        graph, template = make_case(seed)
        kernel = compile_kernel(template.graph)
        kwargs = make_kwargs(kernel, graph.num_vertices)
        narrow, wide = (
            fixpoint_report(graph, template, kernel, words, **kwargs)
            for words in (1, 2)
        )
        assert np.array_equal(narrow["masks"], wide["masks"][:, :1])
        assert not wide["masks"][:, 1].any()
        for key in ("vertex_active", "edge_alive"):
            assert np.array_equal(narrow[key], wide[key])
        for key in (
            "iterations", "rounds", "supersteps", "stats", "intervals",
            "metrics",
        ):
            assert narrow[key] == wide[key], key
        if mode == "edge-labeled":
            assert kernel.edge_labeled
        if mode == "adaptive":
            assert narrow["metrics"]["fixpoint.rounds_adaptive_dense"] > 0
        if mode == "lcc-11-roles":
            assert len(kernel.roles) > TABLE_MAX_ROLES
        if mode == "mstar-isolated":
            assert 0 in kernel.neighbor_masks.values()
        # the fixpoint did real work on every case of the grid
        assert narrow["iterations"] > 1
