"""Equivalence tests for the bitmask role kernels (core/kernels.py).

The kernels drive the array backend's fixpoints, which are pure
performance work: every test here pins them to the set-based reference —
identical fixed points, identical iteration counts, and (for full rounds,
``delta=False``) identical message counts; the semi-naive rounds only
ever send fewer.
"""

import functools
import operator

import numpy as np
import pytest

from repro.core import (
    ArraySearchState,
    PatternTemplate,
    PipelineOptions,
    SearchState,
    array_kernel_fixpoint,
    compile_kernel,
    generate_prototypes,
    local_constraint_checking,
    max_candidate_arrays,
    max_candidate_set,
    run_pipeline,
)
from repro.core.kernels import TABLE_MAX_ROLES
from repro.graph.graph import Graph
from repro.graph.generators import planted_graph
from repro.runtime import Engine, MessageStats, PartitionedGraph


def engine_for(graph, ranks=3):
    return Engine(PartitionedGraph(graph, ranks), MessageStats(ranks))


#: template shapes with label collisions so vertices hold several roles
def template_pool():
    return [
        PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            name="tri+tail",
        ),
        PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)],
            labels={0: 1, 1: 2, 2: 1, 3: 2},
            name="alt-path",  # repeated labels: candidates hold 2 roles
        ),
        PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 1, 1: 1, 2: 2, 3: 2},
            name="square",
        ),
        PatternTemplate.from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 2)],
            labels={0: 1, 1: 2, 2: 2, 3: 3},
            name="fan",
        ),
    ]


def random_case(seed):
    template = template_pool()[seed % 4]
    labels = [template.label(v) for v in sorted(template.graph.vertices())]
    graph = planted_graph(
        40, 110, template.edges(), labels, copies=2, num_labels=4, seed=seed
    )
    return graph, template


def lcc_snapshot(graph, template, mode):
    """LCC fixed point, rounds and stats of one execution ``mode``:
    ``"reference"`` (set-based rounds), ``"array"`` (semi-naive array
    rounds) or ``"array-full"`` (array rounds with ``delta=False``)."""
    proto = generate_prototypes(template, 0).at(0)[0]
    engine = engine_for(graph)
    if mode == "reference":
        state = SearchState.initial(graph, template)
        iterations = local_constraint_checking(state, proto.graph, engine)
    else:
        astate = ArraySearchState.initial(graph, template)
        iterations = array_kernel_fixpoint(
            astate, compile_kernel(proto.graph), engine,
            delta=mode == "array",
        )
        state = astate.to_search_state()
    return (
        dict(state.candidates),
        sorted(state.active_edge_list()),
        iterations,
        engine.stats,
    )


class TestRoleKernelTables:
    def template(self):
        return template_pool()[0]

    def test_role_bits_are_a_bijection(self):
        kernel = compile_kernel(self.template().graph)
        bits = set(kernel.role_bit.values())
        assert len(bits) == len(kernel.roles)
        assert all(bit & (bit - 1) == 0 for bit in bits)  # powers of two
        for role, bit in kernel.role_bit.items():
            assert kernel.bit_role[bit] == role

    def test_mask_roundtrip(self):
        kernel = compile_kernel(self.template().graph)
        for subset in ({0}, {1, 3}, {0, 1, 2, 3}, set()):
            assert kernel.roles_of(kernel.mask_of(subset)) == subset
        assert kernel.mask_of(kernel.roles) == kernel.full_mask

    def test_neighbor_masks_mirror_template_adjacency(self):
        template = self.template()
        kernel = compile_kernel(template.graph)
        for role in kernel.roles:
            mask = kernel.neighbor_masks[kernel.role_bit[role]]
            assert kernel.roles_of(mask) == set(template.graph.neighbors(role))

    def test_label_role_masks(self):
        template = template_pool()[1]  # labels 1,2,1,2
        kernel = compile_kernel(template.graph)
        assert kernel.roles_of(kernel.label_role_masks[1]) == {0, 2}
        assert kernel.roles_of(kernel.label_role_masks[2]) == {1, 3}

    def test_mandatory_masks(self):
        template = self.template()
        kernel = compile_kernel(template.graph)
        masks = kernel.mandatory_masks([(2, 3)])
        assert kernel.roles_of(masks[kernel.role_bit[2]]) == {3}
        assert kernel.roles_of(masks[kernel.role_bit[3]]) == {2}
        assert masks[kernel.role_bit[0]] == 0

    def test_edge_labeled_tables_split_by_label(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)],
            labels={0: 1, 1: 2, 2: 3},
            edge_labels={(0, 1): 7},
        )
        kernel = compile_kernel(template.graph)
        assert kernel.edge_labeled
        bit0 = kernel.role_bit[0]
        assert kernel.roles_of(kernel.any_neighbor_masks[bit0]) == {2}
        assert kernel.roles_of(kernel.labeled_neighbor_masks[bit0][7]) == {1}


def random_kernel_graph(rng, roles):
    """A random labelled graph on ``roles`` vertices (isolated ones too)."""
    graph = Graph()
    for role in range(roles):
        graph.add_vertex(role, int(rng.integers(3)))
    for u in range(roles):
        for v in range(u + 1, roles):
            if rng.random() < 0.4:
                graph.add_edge(u, v)
    return graph


class TestWholeMaskTables:
    """``role_tables`` is the per-bit role rule, tabulated: for every mask
    below ``2**roles`` its entries equal the rule applied bit by bit."""

    @staticmethod
    def per_bit(kernel, mandatory, witnessed):
        survive = 0
        for b in range(len(kernel.roles)):
            nm = kernel.neighbor_masks[1 << b]
            if mandatory is None:
                ok = nm & ~witnessed == 0
            else:
                ok = nm == 0 or (
                    mandatory[1 << b] & ~witnessed == 0 and nm & witnessed
                )
            if ok:
                survive |= 1 << b
        return survive

    @pytest.mark.parametrize("seed", range(12))
    def test_tables_equal_the_per_bit_rules(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_kernel_graph(rng, int(rng.integers(1, 9)))
        kernel = compile_kernel(graph)
        edges = list(graph.edges())
        mandatory = kernel.mandatory_masks(
            [edge for edge in edges if rng.random() < 0.5]
        )
        masks = range(1 << len(kernel.roles))
        for rule in (None, mandatory):
            survive, union = kernel.role_tables(rule)
            assert survive.dtype == union.dtype == np.uint64
            assert survive.tolist() == [
                self.per_bit(kernel, rule, w) for w in masks
            ]
            assert union.tolist() == [
                functools.reduce(
                    operator.or_,
                    (kernel.neighbor_masks[1 << b]
                     for b in range(len(kernel.roles)) if s >> b & 1),
                    0,
                )
                for s in masks
            ]

    def test_tables_are_built_once_per_rule(self):
        kernel = compile_kernel(template_pool()[0].graph)
        mandatory = kernel.mandatory_masks([(2, 3)])
        lcc = kernel.role_tables()
        mstar = kernel.role_tables(mandatory)
        assert kernel.role_tables()[0] is lcc[0]
        assert kernel.role_tables(dict(mandatory))[0] is mstar[0]
        assert mstar[1] is lcc[1]  # one union table serves both rules

    def test_tables_are_read_only(self):
        # a cached kernel's tables are shared by every fixpoint call over
        # it: a store into one must fail, not leak into the next run
        kernel = compile_kernel(template_pool()[0].graph)
        mandatory = kernel.mandatory_masks([(2, 3)])
        for rule in (None, mandatory):
            for table in kernel.role_tables(rule):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 1
                with pytest.raises(ValueError):
                    table |= np.uint64(1)

    def test_too_many_roles_keep_the_per_bit_path(self):
        roles = TABLE_MAX_ROLES + 1
        graph = Graph()
        for role in range(roles):
            graph.add_vertex(role, 0)
        for role in range(1, roles):
            graph.add_edge(role - 1, role)
        with pytest.raises(ValueError):
            compile_kernel(graph).role_tables()


class TestLccEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_fixed_point_identical(self, seed):
        graph, template = random_case(seed)
        base = lcc_snapshot(graph, template, "reference")
        full = lcc_snapshot(graph, template, "array-full")
        dlta = lcc_snapshot(graph, template, "array")
        # Same candidates, same active edges, same number of rounds.
        assert full[:3] == base[:3]
        assert dlta[:3] == base[:3]

    @pytest.mark.parametrize("seed", range(8))
    def test_message_counts(self, seed):
        graph, template = random_case(seed)
        base = lcc_snapshot(graph, template, "reference")
        full = lcc_snapshot(graph, template, "array-full")
        dlta = lcc_snapshot(graph, template, "array")
        # Full array rounds replay the reference broadcast schedule.
        assert full[3].total_messages == base[3].total_messages
        assert full[3].total_visits == base[3].total_visits
        # Delta only ever *skips* re-broadcasts.
        assert dlta[3].total_messages <= base[3].total_messages

    def test_isolated_candidate_eliminated_in_round_one(self):
        # A right-labeled vertex with no active edges receives no witnesses;
        # the delta path must still evaluate (and kill) it in round 1.
        template = template_pool()[0]
        graph = Graph()
        for v, lab in [(0, 1), (1, 2), (2, 3), (3, 4), (9, 3)]:
            graph.add_vertex(v, lab)
        for u, v in [(0, 1), (1, 2), (2, 0), (2, 3)]:
            graph.add_edge(u, v)
        kernel = compile_kernel(template.graph)
        for delta in (False, True):
            state = ArraySearchState.initial(graph, template)
            array_kernel_fixpoint(
                state, kernel, engine_for(graph), delta=delta
            )
            assert not state.is_active(9)
            assert state.is_active(2)


class TestEdgeLabeledEquivalence:
    def background(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        graph = Graph()
        n = 24
        for v in range(n):
            graph.add_vertex(v, int(rng.integers(3)) + 1)
        added = 0
        while added < 60:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and not graph.has_edge(u, v):
                label = None if rng.random() < 0.5 else int(rng.integers(2)) + 6
                graph.add_edge(u, v, label)
                added += 1
        return graph

    @pytest.mark.parametrize("seed", range(6))
    def test_labeled_fixed_point_identical(self, seed):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)],
            labels={0: 1, 1: 2, 2: 3},
            edge_labels={(0, 1): 7},
            name="el",
        )
        graph = self.background(seed)
        base = lcc_snapshot(graph, template, "reference")
        full = lcc_snapshot(graph, template, "array-full")
        dlta = lcc_snapshot(graph, template, "array")
        assert full[:3] == base[:3]
        assert dlta[:3] == base[:3]
        assert full[3].total_messages == base[3].total_messages


class TestMaxCandidateSetEquivalence:
    def mcs_snapshot(self, graph, template, mode):
        engine = engine_for(graph)
        if mode == "reference":
            state = max_candidate_set(graph, template, engine)
        elif mode == "array":
            state = max_candidate_arrays(
                graph, template, engine
            ).to_search_state()
        else:  # full array rounds, under the template's mandatory masks
            kernel = compile_kernel(template.graph)
            astate = ArraySearchState.initial(graph, template)
            array_kernel_fixpoint(
                astate, kernel, engine, delta=False,
                mandatory_masks=kernel.mandatory_masks(
                    template.mandatory_edges
                ),
            )
            state = astate.to_search_state()
        return (
            dict(state.candidates),
            sorted(state.active_edge_list()),
            engine.stats,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_mstar_identical(self, seed):
        graph, template = random_case(seed)
        base = self.mcs_snapshot(graph, template, "reference")
        full = self.mcs_snapshot(graph, template, "array-full")
        dlta = self.mcs_snapshot(graph, template, "array")
        assert full[:2] == base[:2]
        assert dlta[:2] == base[:2]
        assert full[2].total_messages == base[2].total_messages
        assert dlta[2].total_messages <= base[2].total_messages

    def test_mandatory_edges_identical(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            mandatory_edges=[(2, 3)],
        )
        labels = [1, 2, 3, 4]
        graph = planted_graph(
            40, 110, template.edges(), labels, copies=2, num_labels=4, seed=3
        )
        base = self.mcs_snapshot(graph, template, "reference")
        for mode in ("array-full", "array"):
            other = self.mcs_snapshot(graph, template, mode)
            assert other[:2] == base[:2]


class TestPipelineEquivalence:
    """End-to-end: the backend never changes any result field."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_full_pipeline_identical(self, k, seed):
        template = template_pool()[0]  # triangle -> NLCC cycle constraints
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        graph = planted_graph(
            50, 130, template.edges(), labels, copies=3, num_labels=4, seed=seed
        )
        base, result = [
            run_pipeline(
                graph, template, k,
                PipelineOptions(num_ranks=3, count_matches=True, backend=backend),
            )
            for backend in ("reference", "array")
        ]
        assert result.match_vectors == base.match_vectors
        for proto in base.prototype_set:
            ours = result.outcome_for(proto.id)
            ref = base.outcome_for(proto.id)
            assert ours.solution_vertices == ref.solution_vertices
            assert ours.solution_edges == ref.solution_edges
            assert ours.match_mappings == ref.match_mappings
            assert ours.lcc_iterations == ref.lcc_iterations
