"""The pinned stream fingerprints are right, not merely stable.

Re-derives the first 20 stream answers by exhaustive backtracking
(``repro.graph.isomorphism``) on the canonical graphs and compares them
with ``expected/paper-stream.json``.
"""

import repro.core as core
from repro.graph.isomorphism import find_subgraph_isomorphisms

import workloads


def test_first_twenty_stream_fingerprints_match_brute_force():
    sizes = workloads.SIZES["full"]
    names = workloads.WORKLOADS["paper-stream"].inputs
    graphs = {name: workloads.GENERATORS[name](sizes) for name in names}
    identity = {name: {v: v for v in graphs[name].vertices()} for name in names}
    expected = workloads.load_expected("paper-stream", "full")
    queries = workloads.stream_catalogue(graphs)[sizes["stream_slice"]][:20]
    assert len(queries) == 20

    for query in queries:
        graph = graphs[query.graph]
        matched = set()
        mappings = 0
        per_level = {}
        for proto in core.generate_prototypes(query.template, query.k):
            vertices = set()
            for match in find_subgraph_isomorphisms(proto.graph, graph):
                mappings += 1
                vertices.update(match.values())
            matched |= vertices
            per_level.setdefault(proto.distance, set()).update(vertices)
        want = expected[query.qid]
        assert len(matched) == want["matched_vertices"], query.qid
        assert mappings == want["match_mappings"], query.qid
        assert (
            workloads._vertex_digest(matched, identity[query.graph])
            == want["vertex_digest"]
        ), query.qid
        # the bottom-up sweep reports its levels deepest first
        assert {d: len(vertices) for d, vertices in per_level.items()} == {
            level[0]: level[2] for level in want["levels"]
        }, query.qid
