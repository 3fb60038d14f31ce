"""Tests for non-local constraint generation."""

import pytest

from repro.core import (
    PatternTemplate,
    cycle_constraints,
    full_walk_constraint,
    generate_constraints,
    is_edge_monocyclic,
    path_constraints,
    tds_constraints,
)
from repro.core.constraints import (
    CYCLE_KIND,
    FULL_WALK_KIND,
    PATH_KIND,
    TDS_KIND,
    NonLocalConstraint,
    has_duplicate_labels,
    is_tree,
)
from repro.errors import ConstraintError
from repro.graph import from_edges


def graph_of(edges, labels):
    return from_edges(edges, labels={i: l for i, l in enumerate(labels)})


TRIANGLE = graph_of([(0, 1), (1, 2), (2, 0)], [1, 2, 3])
SQUARE = graph_of([(0, 1), (1, 2), (2, 3), (3, 0)], [1, 2, 1, 3])
TREE = graph_of([(0, 1), (1, 2), (1, 3)], [1, 2, 3, 4])
SHARED_EDGE_CYCLES = graph_of(
    [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 3)], [0, 1, 2, 3, 4, 5]
)


class TestWalkValidity:
    def test_closed_walk_required(self):
        with pytest.raises(ConstraintError):
            NonLocalConstraint("cycle", (0, 1, 2), (1, 2, 3))

    def test_minimum_length(self):
        with pytest.raises(ConstraintError):
            NonLocalConstraint("cycle", (0, 0), (1, 1))

    def test_walk_properties(self):
        c = NonLocalConstraint("cycle", (0, 1, 2, 0), (1, 2, 3, 1))
        assert c.length == 3
        assert c.source == 0


class TestConstraintIdentity:
    def test_same_shape_same_key(self):
        a = NonLocalConstraint(CYCLE_KIND, (0, 1, 2, 0), (5, 6, 7, 5))
        b = NonLocalConstraint(CYCLE_KIND, (3, 9, 4, 3), (5, 6, 7, 5))
        assert a.key == b.key

    def test_label_mismatch_different_key(self):
        a = NonLocalConstraint(CYCLE_KIND, (0, 1, 2, 0), (5, 6, 7, 5))
        b = NonLocalConstraint(CYCLE_KIND, (0, 1, 2, 0), (5, 7, 6, 5))
        assert a.key != b.key

    def test_identity_pattern_matters(self):
        # Same labels, but one walk revisits a vertex mid-way.
        a = NonLocalConstraint(PATH_KIND, (0, 1, 2, 1, 0), (5, 6, 5, 6, 5))
        b = NonLocalConstraint(PATH_KIND, (0, 1, 0, 1, 0), (5, 6, 5, 6, 5))
        assert a.key != b.key

    def test_shared_across_prototypes(self):
        """The Fig. 3(b) property: equal cycles in different prototypes share keys."""
        from repro.core import generate_prototypes
        from repro.core.patterns import wdc1_template

        ps = generate_prototypes(wdc1_template(), 1)
        root_keys = {c.key for c in cycle_constraints(ps.at(0)[0].graph)}
        shared = 0
        for proto in ps.at(1):
            keys = {c.key for c in cycle_constraints(proto.graph)}
            shared += len(keys & root_keys)
        assert shared > 0


class TestCycleConstraints:
    def test_triangle_rooted_everywhere(self):
        constraints = cycle_constraints(TRIANGLE)
        assert len(constraints) == 3  # one per root vertex
        assert {c.source for c in constraints} == {0, 1, 2}

    def test_walks_traverse_template_edges(self):
        for c in cycle_constraints(SQUARE):
            for i in range(len(c.walk) - 1):
                assert SQUARE.has_edge(c.walk[i], c.walk[i + 1])

    def test_tree_has_none(self):
        assert cycle_constraints(TREE) == []


class TestPathConstraints:
    def test_generated_for_duplicate_labels(self):
        constraints = path_constraints(SQUARE)  # vertices 0 and 2 share label 1
        assert len(constraints) == 2  # rooted at each twin
        for c in constraints:
            assert c.walk[0] == c.walk[-1]
            assert SQUARE.label(c.walk[0]) == SQUARE.label(c.walk[len(c.walk) // 2])

    def test_none_for_distinct_labels(self):
        assert path_constraints(TRIANGLE) == []

    def test_walk_is_there_and_back(self):
        c = path_constraints(SQUARE)[0]
        half = len(c.walk) // 2
        assert list(c.walk[:half + 1])[::-1] == list(c.walk[half:])


class TestTdsConstraints:
    def test_generated_for_shared_edge_cycles(self):
        constraints = tds_constraints(SHARED_EDGE_CYCLES)
        assert constraints, "cycles sharing an edge must produce a TDS walk"
        for c in constraints:
            assert c.kind == TDS_KIND
            assert c.walk[0] == c.walk[-1]

    def test_none_for_edge_monocyclic(self):
        assert tds_constraints(TRIANGLE) == []


class TestFullWalk:
    def test_covers_every_edge(self):
        for graph in (TRIANGLE, SQUARE, TREE, SHARED_EDGE_CYCLES):
            c = full_walk_constraint(graph)
            walked = {
                tuple(sorted((c.walk[i], c.walk[i + 1])))
                for i in range(len(c.walk) - 1)
            }
            assert walked == {tuple(sorted(e)) for e in graph.edges()}

    def test_walk_uses_only_template_edges(self):
        c = full_walk_constraint(SHARED_EDGE_CYCLES)
        for i in range(len(c.walk) - 1):
            assert SHARED_EDGE_CYCLES.has_edge(c.walk[i], c.walk[i + 1])

    def test_closed(self):
        c = full_walk_constraint(SQUARE, root=2)
        assert c.walk[0] == c.walk[-1] == 2

    def test_empty_graph_rejected(self):
        from repro.graph.graph import Graph

        with pytest.raises(ConstraintError):
            full_walk_constraint(Graph())


class TestClassification:
    def test_edge_monocyclic(self):
        assert is_edge_monocyclic(TRIANGLE)
        assert is_edge_monocyclic(TREE)
        assert not is_edge_monocyclic(SHARED_EDGE_CYCLES)
        k4 = graph_of([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [0, 1, 2, 3])
        assert not is_edge_monocyclic(k4)

    def test_is_tree(self):
        assert is_tree(TREE)
        assert not is_tree(TRIANGLE)

    def test_duplicate_labels(self):
        assert has_duplicate_labels(SQUARE)
        assert not has_duplicate_labels(TRIANGLE)


class TestGenerateConstraints:
    def test_distinct_tree_skips_full_walk(self):
        cs = generate_constraints(TREE)
        assert cs.exact_without_full_walk
        assert cs.full_walk() is None
        assert cs.non_local == []

    def test_cyclic_gets_full_walk(self):
        cs = generate_constraints(TRIANGLE)
        assert cs.full_walk() is not None

    def test_duplicate_label_tree_gets_full_walk_and_paths(self):
        twin_tree = graph_of([(0, 1), (1, 2)], [5, 6, 5])
        cs = generate_constraints(twin_tree)
        kinds = {c.kind for c in cs.non_local}
        assert PATH_KIND in kinds
        assert FULL_WALK_KIND in kinds

    def test_rarest_label_root(self):
        freq = {1: 100, 2: 5, 3: 50}
        cs = generate_constraints(TRIANGLE, label_frequencies=freq)
        assert cs.full_walk().walk[0] == 1  # vertex 1 carries label 2 (rarest)
