"""Failure-injection tests for pipeline checkpoint/restart."""

import pytest

from repro.core import PipelineOptions, run_pipeline
from repro.core.restart import (
    resume_pipeline,
    run_pipeline_with_checkpoints,
)
from repro.core.template import PatternTemplate
from repro.errors import CheckpointError
from repro.graph.generators import planted_graph

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]
LABELS = [1, 2, 3, 4, 5]
K = 2


def workload(seed=33):
    graph = planted_graph(60, 140, EDGES, LABELS, copies=3, num_labels=6, seed=seed)
    template = PatternTemplate.from_edges(
        EDGES, {i: l for i, l in enumerate(LABELS)}, name="ring+chord"
    )
    return graph, template


class TestCheckpointedRun:
    def test_uninterrupted_run_matches_plain_pipeline(self, tmp_path):
        graph, template = workload()
        plain = run_pipeline(graph, template, K, PipelineOptions(num_ranks=2))
        checkpointed = run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, PipelineOptions(num_ranks=2)
        )
        assert checkpointed.match_vectors == plain.match_vectors

    def test_registry_includes_the_mstar_traversal(self, tmp_path):
        from repro.core import max_candidate_arrays
        from repro.runtime import Engine, MessageStats, PartitionedGraph
        from repro.runtime.metrics import MetricsRegistry

        def rounds(registry):
            counters = registry.snapshot()["counters"]
            return sum(
                counters.get(f"fixpoint.rounds_{kind}", 0)
                for kind in ("dense", "sparse")
            )

        graph, template = workload()
        mstar = MetricsRegistry()
        max_candidate_arrays(
            graph, template,
            Engine(PartitionedGraph(graph, 2), MessageStats(2), metrics=mstar),
        )
        options = PipelineOptions(num_ranks=2)
        result = run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, options
        )
        assert result.metrics is options.metrics
        lcc_rounds = sum(o.lcc_iterations for o in result.outcomes())
        assert rounds(mstar) > 0 and lcc_rounds > 0
        assert rounds(options.metrics) == rounds(mstar) + lcc_rounds

    def test_manifest_written(self, tmp_path):
        graph, template = workload()
        run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, PipelineOptions(num_ranks=2)
        )
        assert (tmp_path / "pipeline_checkpoint.json").exists()


class TestCrashAndResume:
    @pytest.mark.parametrize("crash_level", [2, 1])
    def test_resume_after_injected_failure(self, tmp_path, crash_level):
        graph, template = workload()
        plain = run_pipeline(graph, template, K, PipelineOptions(num_ranks=2))

        with pytest.raises(RuntimeError, match="injected failure"):
            run_pipeline_with_checkpoints(
                graph, template, K, tmp_path,
                PipelineOptions(num_ranks=2),
                fail_after_level=crash_level,
            )

        resumed = resume_pipeline(
            graph, template, tmp_path, PipelineOptions(num_ranks=2)
        )
        assert resumed.match_vectors == plain.match_vectors
        for proto in plain.prototype_set:
            assert (
                resumed.outcome_for(proto.id).solution_vertices
                == plain.outcome_for(proto.id).solution_vertices
            )

    def test_resume_on_smaller_deployment(self, tmp_path):
        """The §5.4 reload scenario: resume with fewer ranks."""
        graph, template = workload()
        plain = run_pipeline(graph, template, K, PipelineOptions(num_ranks=4))
        with pytest.raises(RuntimeError):
            run_pipeline_with_checkpoints(
                graph, template, K, tmp_path,
                PipelineOptions(num_ranks=4),
                fail_after_level=2,
            )
        resumed = resume_pipeline(
            graph, template, tmp_path, PipelineOptions(num_ranks=1)
        )
        assert resumed.match_vectors == plain.match_vectors

    def test_resume_wrong_template_rejected(self, tmp_path):
        graph, template = workload()
        run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, PipelineOptions(num_ranks=2)
        )
        other = PatternTemplate.from_edges(
            [(0, 1)], labels={0: 1, 1: 2}, name="other"
        )
        with pytest.raises(CheckpointError):
            resume_pipeline(graph, other, tmp_path)

    def test_resume_missing_checkpoint_rejected(self, tmp_path):
        graph, template = workload()
        with pytest.raises(CheckpointError):
            resume_pipeline(graph, template, tmp_path / "nope")
