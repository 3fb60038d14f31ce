"""Tests for the derived output forms and their on-disk formats."""

import pytest

from repro.core import PipelineOptions, run_pipeline
from repro.core.output import (
    enumerate_all_matches,
    read_match_labels,
    union_of_all_matches,
    union_per_prototype,
    write_match_enumeration,
    write_match_labels,
    write_union_subgraph,
)
from repro.core.template import PatternTemplate
from repro.errors import PipelineError
from repro.graph.generators import gnm_graph, planted_graph
from repro.graph.isomorphism import find_subgraph_isomorphisms

EDGES = [(0, 1), (1, 2), (2, 0)]
LABELS = [1, 2, 3]


@pytest.fixture(scope="module")
def run():
    graph = planted_graph(40, 90, EDGES, LABELS, copies=2, num_labels=4, seed=12)
    template = PatternTemplate.from_edges(
        EDGES, {i: l for i, l in enumerate(LABELS)}, name="tri"
    )
    result = run_pipeline(graph, template, 1, PipelineOptions(num_ranks=2))
    return graph, result


class TestDerivedForms:
    def test_union_of_all_matches(self, run):
        graph, result = run
        vertices, edges = union_of_all_matches(result)
        assert vertices == result.matched_vertices()
        for u, v in edges:
            assert graph.has_edge(u, v)
            assert u in vertices and v in vertices

    def test_union_per_prototype(self, run):
        _graph, result = run
        per_proto = union_per_prototype(result)
        assert set(per_proto) == {p.id for p in result.prototype_set}
        all_vertices = set()
        for vertices, _edges in per_proto.values():
            all_vertices |= vertices
        assert all_vertices == result.matched_vertices()

    def test_enumeration_matches_reference(self, run):
        graph, result = run
        enumerated = {}
        for name, mapping in enumerate_all_matches(result, graph):
            enumerated.setdefault(name, set()).add(tuple(sorted(mapping.items())))
        for proto in result.prototype_set:
            reference = {
                tuple(sorted(m.items()))
                for m in find_subgraph_isomorphisms(proto.graph, graph)
            }
            assert enumerated.get(proto.name, set()) == reference

    def test_enumeration_limit(self, run):
        graph, result = run
        limited = list(enumerate_all_matches(result, graph, limit_per_prototype=1))
        by_name = {}
        for name, _mapping in limited:
            by_name[name] = by_name.get(name, 0) + 1
        assert all(count <= 1 for count in by_name.values())

    def test_enumeration_uses_stored_matches(self, run):
        graph, _ = run
        template = PatternTemplate.from_edges(
            EDGES, {i: l for i, l in enumerate(LABELS)}, name="tri"
        )
        collected = run_pipeline(
            graph, template, 0,
            PipelineOptions(num_ranks=2, collect_matches=True),
        )
        stored = list(enumerate_all_matches(collected, graph))
        fresh = list(enumerate_all_matches(run[1], graph))
        stored_keys = {(n, tuple(sorted(m.items()))) for n, m in stored}
        fresh_k0 = {
            (n, tuple(sorted(m.items()))) for n, m in fresh if n == "k0_p0"
        }
        assert stored_keys == fresh_k0


    def test_re_enumeration_equals_the_collected_matches(self):
        # repeated labels: the solution scope's roles are seeded by label
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 0, 1: 1, 2: 1, 3: 0},
            name="c4",
        )
        graph = gnm_graph(60, 160, num_labels=2, seed=5)
        result = run_pipeline(
            graph, template, 1,
            PipelineOptions(num_ranks=2, collect_matches=True),
        )

        def key(mapping):
            return tuple(sorted(mapping.items()))

        collected = {}
        for outcome in result.outcomes():
            if outcome.matches:
                collected[outcome.name] = {key(m) for m in outcome.matches}
            outcome.matches = None
        assert sum(map(len, collected.values())) > 0
        re_enumerated = {}
        for name, mapping in enumerate_all_matches(result, graph):
            re_enumerated.setdefault(name, set()).add(key(mapping))
        assert re_enumerated == collected


class TestWriters:
    def test_label_file_round_trip(self, run, tmp_path):
        _graph, result = run
        path = tmp_path / "labels.txt"
        written = write_match_labels(result, path)
        assert written == result.total_labels_generated()
        vectors = read_match_labels(path)
        assert vectors == {
            v: sorted(ids) for v, ids in result.match_vectors.items()
        }

    def test_union_edge_list(self, run, tmp_path):
        graph, result = run
        path = tmp_path / "union.edges"
        count = write_union_subgraph(result, path)
        _vertices, edges = union_of_all_matches(result)
        assert count == len(edges)
        content = path.read_text().splitlines()
        assert content[0].startswith("#")
        assert len(content) - 1 == count

    def test_union_single_prototype(self, run, tmp_path):
        _graph, result = run
        proto = result.prototype_set.at(0)[0]
        path = tmp_path / "one.edges"
        count = write_union_subgraph(result, path, proto_id=proto.id)
        assert count == len(result.outcome_for(proto.id).solution_edges)

    def test_union_unknown_prototype(self, run, tmp_path):
        _graph, result = run
        with pytest.raises(PipelineError):
            write_union_subgraph(result, tmp_path / "x.edges", proto_id=999)

    def test_match_enumeration_file(self, run, tmp_path):
        graph, result = run
        path = tmp_path / "matches.txt"
        count = write_match_enumeration(result, graph, path)
        lines = [
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(lines) == count
        # Every line names a prototype and lists |W0| mappings.
        for line in lines:
            name, *pairs = line.split()
            assert name.startswith("k")
            assert len(pairs) == 3
