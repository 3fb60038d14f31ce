"""Stateful property testing of Graph mutation invariants.

A hypothesis rule-based machine applies random mutations (add/remove
vertices and edges, with and without labels) against both the Graph and a
naive reference model, checking structural invariants after every step.

Half the runs start from a graph *loaded from a file* — a facade over its
CSR whose dicts do not exist yet — and hand every mutator a fresh facade
over the current CSR, so each mutator's first touch on an unmaterialised
graph is exercised from arbitrary states.
"""

import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.graph.csr import csr_of
from repro.graph.graph import Graph, canonical_edge
from repro.graph.io import read_edge_list

VERTICES = st.integers(0, 12)
LABELS = st.integers(0, 4)


class GraphMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graph = Graph()
        self.model_vertices = {}          # vertex -> label
        self.model_edges = {}             # canonical edge -> label or None
        self.loaded = False

    @initialize(
        loaded=st.booleans(),
        labels=st.dictionaries(VERTICES, LABELS, max_size=8),
        edges=st.lists(
            st.tuples(VERTICES, VERTICES, st.one_of(st.none(), LABELS)),
            max_size=12,
        ),
    )
    def start(self, loaded, labels, edges):
        self.loaded = loaded
        if not loaded:
            return
        with tempfile.TemporaryDirectory() as folder:
            edge_path = Path(folder, "g.el")
            edge_path.write_text("".join(
                " ".join(str(x) for x in row if x is not None) + "\n"
                for row in edges
            ))
            labels_path = Path(folder, "g.labels")
            labels_path.write_text(
                "".join(f"{v} {label}\n" for v, label in labels.items())
            )
            self.graph = read_edge_list(edge_path, labels_path)
        for u, v, label in edges:
            if u == v:
                continue
            self.model_vertices.setdefault(u, 0)
            self.model_vertices.setdefault(v, 0)
            key = canonical_edge(u, v)
            if key not in self.model_edges or label is not None:
                self.model_edges[key] = label
        self.model_vertices.update(labels)

    def unmaterialised(self):
        """The graph a mutator is about to touch."""
        if self.loaded:
            self.graph = Graph.over_csr(csr_of(self.graph))
        return self.graph

    # ------------------------------------------------------------------
    @rule(v=VERTICES, label=LABELS)
    def add_vertex(self, v, label):
        self.unmaterialised().add_vertex(v, label)
        self.model_vertices[v] = label

    @rule(u=VERTICES, v=VERTICES, label=st.one_of(st.none(), LABELS))
    def add_edge(self, u, v, label):
        if u == v or u not in self.model_vertices or v not in self.model_vertices:
            return
        existed = canonical_edge(u, v) in self.model_edges
        self.unmaterialised().add_edge(u, v, label)
        key = canonical_edge(u, v)
        if not existed:
            self.model_edges[key] = label
        elif label is not None:
            self.model_edges[key] = label

    @rule(u=VERTICES, v=VERTICES)
    def remove_edge(self, u, v):
        key = canonical_edge(u, v)
        if key not in self.model_edges:
            return
        self.unmaterialised().remove_edge(u, v)
        del self.model_edges[key]

    @rule(v=VERTICES)
    def remove_vertex(self, v):
        if v not in self.model_vertices:
            return
        self.unmaterialised().remove_vertex(v)
        del self.model_vertices[v]
        self.model_edges = {
            edge: label
            for edge, label in self.model_edges.items()
            if v not in edge
        }

    # ------------------------------------------------------------------
    @invariant()
    def vertex_set_matches(self):
        assert set(self.graph.vertices()) == set(self.model_vertices)
        for v, label in self.model_vertices.items():
            assert self.graph.label(v) == label

    @invariant()
    def edge_set_matches(self):
        assert set(self.graph.edges()) == set(self.model_edges)
        assert self.graph.num_edges == len(self.model_edges)

    @invariant()
    def adjacency_symmetric(self):
        for v in self.graph.vertices():
            for u in self.graph.neighbors(v):
                assert v in self.graph.neighbors(u)

    @invariant()
    def edge_labels_match(self):
        for (u, v), label in self.model_edges.items():
            assert self.graph.edge_label(u, v) == label
        # no stale labels for removed edges
        for edge in self.graph.edge_labels():
            assert edge in self.model_edges

    @invariant()
    def label_counts_memo_is_fresh(self):
        # read after every step, so a mutator that kept a stale memo shows
        counts = {}
        for label in self.model_vertices.values():
            counts[label] = counts.get(label, 0) + 1
        assert self.graph.label_counts() == counts

    @invariant()
    def csr_sees_every_mutation(self):
        # csr_of after a mutation is rebuilt; what it describes is the model
        csr = csr_of(self.graph)
        described = Graph.over_csr(csr)
        assert described.num_vertices == len(self.model_vertices)
        assert described.num_edges == len(self.model_edges)
        assert described.has_edge_labels == any(
            label is not None for label in self.model_edges.values()
        )
        assert described.labels() == self.model_vertices
        assert set(described.edges()) == set(self.model_edges)
        assert described.edge_labels() == {
            edge: label for edge, label in self.model_edges.items()
            if label is not None
        }
        assert described == self.graph
        assert list(described.vertices()) == list(self.graph.vertices())

    @invariant()
    def degree_sum_is_twice_edges(self):
        total = sum(self.graph.degree(v) for v in self.graph.vertices())
        assert total == 2 * self.graph.num_edges


TestGraphMachine = GraphMachine.TestCase
TestGraphMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
