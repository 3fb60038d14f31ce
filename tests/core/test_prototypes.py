"""Tests for prototype generation — counts, links, dedup, invariants."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import find, given, settings

from repro.core import PatternTemplate, clique_template, generate_prototypes
from repro.core import prototypes as prototypes_module
from repro.core.motifs import motif_prototypes
from repro.core.prototypes import (
    keyed_labelling,
    matching_isomorphism,
    prototype_key,
)
from repro.core.patterns import (
    imdb1_template,
    rdt1_template,
    rmat1_template,
    wdc1_template,
    wdc3_template,
    wdc4_template,
)
from repro.errors import PrototypeError
from repro.graph import are_isomorphic, automorphism_count, is_connected
from repro.graph.graph import Graph, canonical_edge


def fig3_template():
    """Triangle + square sharing a vertex: Fig. 3(a) of the paper."""
    return wdc1_template()


class TestPaperCounts:
    """Prototype counts the paper states explicitly — hard ground truth."""

    def test_fig3_counts(self):
        counts = generate_prototypes(fig3_template(), 2).level_counts()
        assert counts == [1, 7, 12]  # "7 at distance k=1 and 12 more at k=2"

    def test_rmat1_counts(self):
        ps = generate_prototypes(rmat1_template(), 2)
        assert ps.level_counts() == [1, 7, 16]
        assert len(ps) == 24  # "a total of 24 prototypes; 16 of which at k=2"

    def test_rmat1_disconnects_beyond_k2(self):
        ps = generate_prototypes(rmat1_template(), 5)
        assert ps.max_distance == 2  # "up to k=2 (before getting disconnected)"

    def test_wdc3_counts(self):
        ps = generate_prototypes(wdc3_template(), 4)
        assert len(ps.at(3)) == 61  # "WDC-3 has 61, k=3 prototypes"
        assert len(ps) >= 100  # "100+, up to k=4, prototypes"

    def test_wdc4_6clique_counts(self):
        ps = generate_prototypes(wdc4_template(), 4)
        assert len(ps) == 1941  # "searching over 1,900 prototypes"
        assert len(ps.at(4)) == 1365  # "1,365 prototypes at distance k=4"

    def test_rdt1_counts(self):
        assert len(generate_prototypes(rdt1_template(), 1)) == 5

    def test_imdb1_counts(self):
        assert len(generate_prototypes(imdb1_template(), 2)) == 7

    def test_motif_counts(self):
        three = generate_prototypes(clique_template(3, labels=[0, 0, 0]), 1)
        assert len(three) == 2  # "three vertices can form two possible motifs"
        four = generate_prototypes(clique_template(4, labels=[0] * 4), 3)
        assert len(four) == 6  # "up to six motifs are possible for four vertices"


class TestInvariants:
    def test_all_prototypes_connected(self):
        for proto in generate_prototypes(rmat1_template(), 2):
            assert is_connected(proto.graph)

    def test_vertex_set_preserved(self):
        template = rmat1_template()
        for proto in generate_prototypes(template, 2):
            assert set(proto.graph.vertices()) == set(template.graph.vertices())

    def test_edges_subset_of_template(self):
        template = rmat1_template()
        for proto in generate_prototypes(template, 2):
            for u, v in proto.graph.edges():
                assert template.graph.has_edge(u, v)

    def test_distance_equals_removed_edges(self):
        template = rmat1_template()
        for proto in generate_prototypes(template, 2):
            assert len(proto.removed_edges()) == proto.distance
            assert proto.num_edges == template.num_edges - proto.distance

    def test_no_isomorphic_duplicates_within_level(self):
        ps = generate_prototypes(clique_template(4, labels=[0] * 4), 3)
        for level in ps.levels:
            for i, a in enumerate(level):
                for b in level[i + 1 :]:
                    assert not are_isomorphic(a.graph, b.graph)

    def test_level_zero_is_template(self):
        template = fig3_template()
        root = generate_prototypes(template, 2).at(0)[0]
        assert root.graph == template.graph


class TestLinks:
    def test_children_one_level_down(self):
        ps = generate_prototypes(fig3_template(), 2)
        for proto in ps:
            for link in proto.child_links:
                assert link.child.distance == proto.distance + 1
                assert link.parent is proto

    def test_every_deeper_prototype_has_a_parent(self):
        ps = generate_prototypes(fig3_template(), 2)
        for distance in range(1, ps.max_distance + 1):
            for proto in ps.at(distance):
                assert proto.parent_links

    def test_link_iso_maps_parent_minus_edge_onto_child(self):
        ps = generate_prototypes(clique_template(4, labels=[0] * 4), 2)
        for proto in ps:
            for link in proto.child_links:
                reduced = proto.graph.copy()
                reduced.remove_edge(*link.removed_edge)
                for u, v in reduced.edges():
                    assert link.child.graph.has_edge(link.iso[u], link.iso[v])
                assert len(set(link.iso.values())) == reduced.num_vertices

    def test_parents_children_helpers(self):
        ps = generate_prototypes(fig3_template(), 1)
        root = ps.at(0)[0]
        assert len(root.children()) == 7
        assert all(root in c.parents() for c in ps.at(1))


class TestMandatoryEdges:
    def make(self):
        return PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            mandatory_edges=[(2, 3)],
        )

    def test_mandatory_edges_never_removed(self):
        for proto in generate_prototypes(self.make(), 3):
            assert proto.graph.has_edge(2, 3)

    def test_mandatory_reduces_prototype_count(self):
        with_mand = generate_prototypes(self.make(), 2)
        free = generate_prototypes(
            PatternTemplate.from_edges(
                [(0, 1), (1, 2), (2, 0), (2, 3)],
                labels={0: 1, 1: 2, 2: 3, 3: 4},
            ),
            2,
        )
        assert len(with_mand) <= len(free)

    def test_mandatory_aware_dedup(self):
        # Symmetric square where one edge is mandatory: removals adjacent vs
        # opposite to the mandatory edge must not be merged.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 0, 2: 0, 3: 0},
            mandatory_edges=[(0, 1)],
        )
        level1 = generate_prototypes(template, 1).at(1)
        assert len(level1) == 2  # remove an adjacent edge vs the opposite edge

    def test_mandatory_edge_labels_split_dedup(self):
        # Square whose two mandatory edges carry different labels: removing
        # either optional edge leaves a path whose labels read in a
        # different order, so the two children must not merge.
        graph = Graph()
        for v in range(4):
            graph.add_vertex(v, 0)
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 2, 2)
        graph.add_edge(2, 3)
        graph.add_edge(3, 0)
        template = PatternTemplate(graph, mandatory_edges=[(0, 1), (1, 2)])
        level1 = generate_prototypes(template, 1).at(1)
        assert len(level1) == 2
        assert not are_isomorphic(level1[0].graph, level1[1].graph)



def assert_link_isomorphisms(tree):
    """Every ``ChildLink.iso`` is a label-, edge-label- and
    mandatory-preserving isomorphism of ``parent − removed edge`` onto the
    child."""
    mandatory = tree.template.mandatory_edges
    for proto in tree:
        for link in proto.child_links:
            reduced = proto.graph.copy()
            reduced.remove_edge(*link.removed_edge)
            child, iso = link.child.graph, link.iso
            assert sorted(iso) == sorted(reduced.vertices())
            assert sorted(iso.values()) == sorted(child.vertices())
            assert reduced.num_edges == child.num_edges
            for v in reduced.vertices():
                assert child.label(iso[v]) == reduced.label(v)
            for u, v in reduced.edges():
                image = canonical_edge(iso[u], iso[v])
                assert child.has_edge(*image)
                assert child.edge_label(*image) == reduced.edge_label(u, v)
                assert (image in mandatory) == ((u, v) in mandatory)


@st.composite
def small_templates(draw):
    """3-6 vertices, labels drawn from two values (so repeats are the
    rule), some edges labelled, some mandatory.  A draw with a ``split``
    is two blocks joined by a single edge, so a bridge is among its edges."""
    n = draw(st.integers(3, 6))
    split = draw(st.one_of(st.none(), st.integers(1, n - 1)))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.integers(0, 1)))

    def block(v):
        return 0 if split is None or v < split else 1

    tree = []
    for v in range(1, n):
        low = 0 if v == split or block(v) == 0 else split
        tree.append((draw(st.integers(low, v - 1)), v))
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if block(u) == block(v) and (u, v) not in tree
    ]
    edges = tree + [e for e in pairs if draw(st.booleans())]
    for u, v in edges:
        graph.add_edge(u, v, draw(st.sampled_from([None, None, 5, 6])))
    mandatory = [e for e in edges if draw(st.integers(0, 4)) == 0]
    return PatternTemplate(graph, mandatory_edges=mandatory)


class TestLinkIsomorphisms:
    """A merged duplicate's iso is composed from canonical labellings."""

    @pytest.mark.parametrize(
        "make, k",
        [
            pytest.param(lambda: clique_template(5, labels=[0, 0, 1, 1, 1]), 3,
                         id="repeated-labels"),
            pytest.param(wdc4_template, 3, id="wdc4"),
            pytest.param(
                lambda: PatternTemplate(
                    wdc4_template().graph,
                    mandatory_edges=[
                        e for e in wdc4_template().edges() if e[1] >= 4
                    ],
                ),
                4, id="wdc4-mandatory-spokes",
            ),
        ],
    )
    def test_trees(self, make, k):
        assert_link_isomorphisms(generate_prototypes(make(), k))

    def test_edge_labels_and_mandatory_edges(self):
        graph = Graph()
        for v in range(5):
            graph.add_vertex(v, 0)
        for u, v, label in [
            (0, 1, 1), (1, 2, None), (2, 3, 1), (3, 4, None), (4, 0, 2),
            (0, 2, None), (1, 3, 2),
        ]:
            graph.add_edge(u, v, label)
        template = PatternTemplate(graph, mandatory_edges=[(0, 1), (3, 4)])
        tree = generate_prototypes(template, 3)
        merged = sum(
            len(proto.child_links) for proto in tree
        ) - (len(tree) - 1)
        assert merged > 0  # some children were duplicates
        assert_link_isomorphisms(tree)

    @settings(max_examples=40, deadline=None)
    @given(small_templates(), st.randoms(use_true_random=False))
    def test_matching_isomorphism_of_a_relabelled_copy(self, template, rng):
        # a copy under a random vertex renaming has the same key, and the
        # composed labellings map the template onto it, mandatory edges
        # onto mandatory edges
        ids = sorted(template.vertices())
        image = dict(zip(ids, rng.sample(range(10, 10 + len(ids)), len(ids))))
        copy = Graph()
        for v in ids:
            copy.add_vertex(image[v], template.label(v))
        for u, v in template.edges():
            copy.add_edge(image[u], image[v], template.graph.edge_label(u, v))
        mandatory = frozenset(
            canonical_edge(image[u], image[v])
            for u, v in template.mandatory_edges
        )
        key, labelling = keyed_labelling(template.graph, template.mandatory_edges)
        copy_key, copy_labelling = keyed_labelling(copy, mandatory)
        assert key == copy_key
        iso = matching_isomorphism(labelling, copy_labelling)
        for v in ids:
            assert copy.label(iso[v]) == template.label(v)
        for u, v in template.edges():
            image_edge = canonical_edge(iso[u], iso[v])
            assert copy.edge_label(*image_edge) == template.graph.edge_label(u, v)
            assert (image_edge in mandatory) == ((u, v) in template.mandatory_edges)
        assert sorted(iso.values()) == sorted(copy.vertices())

#: every tree TestPaperCounts counts, plus the 3-, 4- and 5-motif trees
PAPER_TREES = [
    pytest.param(fig3_template, 2, id="wdc1"),
    pytest.param(rmat1_template, 2, id="rmat1"),
    pytest.param(wdc3_template, 4, id="wdc3"),
    pytest.param(wdc4_template, 4, id="wdc4"),
    pytest.param(rdt1_template, 1, id="rdt1"),
    pytest.param(imdb1_template, 2, id="imdb1"),
]


class TestTreeFacts:
    """Each prototype keeps the key and automorphism count of its graph."""

    @pytest.mark.parametrize("make, k", PAPER_TREES)
    def test_paper_trees(self, make, k):
        self.check(generate_prototypes(make(), k))

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_motif_trees(self, size):
        self.check(motif_prototypes(size))

    @staticmethod
    def check(tree):
        mandatory = tree.template.mandatory_edges
        for level in tree.levels:
            keys = [proto.key for proto in level]
            assert len(set(keys)) == len(keys)  # dedup merged every duplicate
        for proto in tree:
            assert proto.key == prototype_key(proto.graph, mandatory)
            assert proto.automorphisms == automorphism_count(proto.graph)


class TestGuards:
    def test_negative_k_rejected(self):
        with pytest.raises(PrototypeError):
            generate_prototypes(fig3_template(), -1)

    def test_budget_enforced(self):
        with pytest.raises(PrototypeError):
            generate_prototypes(wdc4_template(), 4, max_prototypes=100)

    def test_k_clamped_to_meaningful(self):
        ps = generate_prototypes(fig3_template(), 99)
        assert ps.max_distance == 2

    def test_by_id(self):
        ps = generate_prototypes(fig3_template(), 1)
        proto = ps.at(1)[0]
        assert ps.by_id(proto.id) is proto
        with pytest.raises(PrototypeError):
            ps.by_id(10**6)

    def test_at_negative_rejected(self):
        with pytest.raises(PrototypeError):
            generate_prototypes(fig3_template(), 1).at(-1)

    def test_at_beyond_max_is_empty(self):
        assert generate_prototypes(fig3_template(), 1).at(9) == []


def find_isomorphism(a, b, mandatory):
    """A bijection ``a → b`` preserving labels, edges, edge labels and
    mandatory edges, or ``None``: backtracking over label- and
    degree-preserving assignments, independent of canonical labelling."""
    if a.num_edges != b.num_edges:
        return None
    order = sorted(a.vertices())

    def edge_facts(graph, u, v):
        return graph.edge_label(u, v), canonical_edge(u, v) in mandatory

    def extend(image):
        if len(image) == len(order):
            return dict(image)
        v = order[len(image)]
        for w in b.vertices():
            if (
                w in image.values()
                or b.label(w) != a.label(v)
                or b.degree(w) != a.degree(v)
            ):
                continue
            if all(
                a.has_edge(u, v) == b.has_edge(image[u], w)
                and (
                    not a.has_edge(u, v)
                    or edge_facts(a, u, v) == edge_facts(b, image[u], w)
                )
                for u in image
            ):
                image[v] = w
                found = extend(image)
                if found is not None:
                    return found
                del image[v]
        return None

    return extend({})


def brute_force_classes(template, k):
    """Per level ``d``: every connected ``H0`` minus ``d`` optional edges,
    grouped into isomorphism classes by :func:`find_isomorphism`."""
    mandatory = template.mandatory_edges
    levels = []
    for d in range(k + 1):
        classes = []
        for removed in itertools.combinations(template.optional_edges(), d):
            graph = template.graph.copy()
            for edge in removed:
                graph.remove_edge(*edge)
            if not is_connected(graph):
                continue
            for members in classes:
                if find_isomorphism(graph, members[0], mandatory) is not None:
                    members.append(graph)
                    break
            else:
                classes.append([graph])
        if not classes:
            break
        levels.append(classes)
    return levels


def has_bridge(template):
    for edge in template.edges():
        graph = template.graph.copy()
        graph.remove_edge(*edge)
        if not is_connected(graph):
            return True
    return False


class TestGeneratedOracle:
    """The tree against brute force over edge subsets (§3.1): each level
    holds one prototype per isomorphism class of the connected ``H0``
    minus that many optional edges."""

    @settings(max_examples=60, deadline=None)
    @given(small_templates(), st.integers(1, 3))
    def test_tree_equals_brute_force(self, template, k):
        tree = generate_prototypes(template, k)
        mandatory = template.mandatory_edges
        classes = brute_force_classes(template, k)
        assert tree.level_counts() == [len(level) for level in classes]
        for level, level_classes in zip(tree.levels, classes):
            found = [
                next(
                    i for i, members in enumerate(level_classes)
                    if find_isomorphism(proto.graph, members[0], mandatory)
                    is not None
                )
                for proto in level
            ]
            assert sorted(found) == list(range(len(level_classes)))

        keys = [proto.key for proto in tree]
        assert len(set(keys)) == len(keys)
        searched = min(k, template.max_meaningful_distance())
        for proto in tree:
            edges = set(proto.graph.edges())
            assert mandatory <= edges <= set(template.edges())
            assert len(proto.removed_edges()) == proto.distance
            assert proto.num_edges == template.num_edges - proto.distance
            if proto.distance == searched:
                continue
            # one link per optional edge whose removal stays connected
            expected = []
            for edge in sorted(edges - mandatory):
                graph = proto.graph.copy()
                graph.remove_edge(*edge)
                if is_connected(graph):
                    expected.append(edge)
            assert [link.removed_edge for link in proto.child_links] == expected
        assert_link_isomorphisms(tree)

    def test_strategy_draws_bridges(self):
        template = find(small_templates(), has_bridge)
        assert has_bridge(template)


def clique_explore_template():
    """The clique-explore benchmark's template: the WDC-4 6-clique whose
    spokes to vertices 4 and 5 are mandatory (six optional edges)."""
    clique = wdc4_template()
    return PatternTemplate(
        clique.graph,
        mandatory_edges=[e for e in clique.edges() if e[1] >= 4],
    )


def reference_levels(template, k):
    """Each level's ``(key, edges)`` the way generation worked before
    children were keyed by edge mask: copy the parent, remove the edge,
    test connectivity, key every connected child, keep the first of each
    key."""
    levels = [[template.graph]]
    for _ in range(k):
        seen = {}
        for parent in levels[-1]:
            for edge in sorted(parent.edges()):
                if edge in template.mandatory_edges:
                    continue
                child = parent.copy()
                child.remove_edge(*edge)
                if is_connected(child):
                    seen.setdefault(
                        prototype_key(child, template.mandatory_edges), child
                    )
        if not seen:
            break
        levels.append(list(seen.values()))
    return [
        [
            (prototype_key(graph, template.mandatory_edges), sorted(graph.edges()))
            for graph in level
        ]
        for level in levels
    ]


class TestGenerationCost:
    """A child reached twice is one subset: it is copied once, and
    canonical labelling runs only where two subsets could be isomorphic."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"copy": 0, "canonical": 0}
        copy = Graph.copy
        canonical = prototypes_module.canonical_labelling

        def counted_copy(graph):
            counts["copy"] += 1
            return copy(graph)

        def counted_canonical(graph):
            counts["canonical"] += 1
            return canonical(graph)

        monkeypatch.setattr(Graph, "copy", counted_copy)
        monkeypatch.setattr(
            prototypes_module, "canonical_labelling", counted_canonical
        )
        return counts

    def test_clique_explore_copies_each_subset_once(self, calls):
        template = clique_explore_template()
        calls["copy"] = 0
        tree = generate_prototypes(template, 4)
        copies, canonical = calls["copy"], calls["canonical"]
        reached = {
            frozenset(proto.removed_edges()) | {edge}
            for proto in tree if proto.distance < 4
            for edge in proto.graph.edges()
            if edge not in template.mandatory_edges
        }
        assert len(reached) == 56 and len(tree) == 57
        assert copies <= len(reached)
        assert canonical == 0

    def test_distinct_label_clique_never_canonicalises(self, calls):
        tree = generate_prototypes(wdc4_template(), 4)
        assert len(tree) == 1941
        assert calls["canonical"] == 0

    def test_labelling_runs_only_on_a_collision(self, calls):
        # of the square's three children, removing an optional edge next
        # to the mandatory one (two ways) gives isomorphic paths; the
        # opposite removal moves the mandatory edge inside the path
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 0, 2: 0, 3: 0},
            mandatory_edges=[(0, 1)],
        )
        assert generate_prototypes(template, 1).level_counts() == [1, 2]
        assert calls["canonical"] == 2  # the newcomer and its bucket's member

    @pytest.mark.parametrize("template, k", [
        pytest.param(clique_template(4, labels=[0] * 4), 3, id="4-motif"),
        pytest.param(clique_explore_template(), 4, id="clique-explore"),
        pytest.param(
            PatternTemplate(
                clique_template(5, labels=[0, 0, 1, 1, 1]).graph,
                mandatory_edges=[(0, 1), (2, 3)],
            ),
            3, id="repeated-labels-mandatory",
        ),
    ])
    def test_levels_match_the_reference(self, template, k):
        tree = generate_prototypes(template, k)
        assert [
            [(proto.key, sorted(proto.graph.edges())) for proto in level]
            for level in tree.levels
        ] == reference_levels(template, k)
