"""Tests for the precision/recall audit utility."""

import dataclasses

from repro.analysis.audit import audit_match_vectors, audit_result
from repro.core import PipelineOptions, naive_options, run_pipeline
from repro.core.template import PatternTemplate
from repro.graph.generators import planted_graph

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
LABELS = [1, 2, 3, 4]


def workload(seed=14):
    graph = planted_graph(40, 90, EDGES, LABELS, copies=2, num_labels=5, seed=seed)
    template = PatternTemplate.from_edges(
        EDGES, {i: l for i, l in enumerate(LABELS)}, name="t"
    )
    return graph, template


class TestExactRuns:
    def test_default_pipeline_audits_clean(self):
        graph, template = workload()
        result = run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=2, count_matches=True)
        )
        report = audit_result(graph, result)
        assert report.exact
        assert report.worst_precision() == 1.0
        assert report.worst_recall() == 1.0
        assert report.failures() == []
        assert audit_match_vectors(graph, result) == {}

    def test_naive_audits_clean_too(self):
        graph, template = workload()
        result = run_pipeline(graph, template, 1, naive_options())
        assert audit_result(graph, result).exact

    def test_report_repr(self):
        graph, template = workload()
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=2))
        report = audit_result(graph, result)
        assert "exact=True" in repr(report)
        assert "precision=1.000" in repr(report.prototypes[0])


class TestDetectsViolations:
    def test_flags_tampered_result(self):
        graph, template = workload()
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=2))
        outcome = result.outcomes()[0]
        intruder = next(
            v for v in graph.vertices() if v not in outcome.solution_vertices
        )
        outcome.solution_vertices.add(intruder)
        result.match_vectors.setdefault(intruder, set()).add(outcome.proto_id)
        report = audit_result(graph, result)
        assert not report.exact
        assert intruder in report.prototypes[0].false_positives
        diff = audit_match_vectors(graph, result)
        assert intruder in diff
        assert outcome.proto_id in diff[intruder]["spurious"]

    def test_flags_missing_vertex(self):
        graph, template = workload()
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=2))
        outcome = result.outcomes()[0]
        victim = next(iter(outcome.solution_vertices))
        outcome.solution_vertices.discard(victim)
        report = audit_result(graph, result)
        assert victim in report.prototypes[0].false_negatives
        assert report.worst_recall() < 1.0
