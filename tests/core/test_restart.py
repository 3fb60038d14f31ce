"""Failure-injection tests for pipeline checkpoint/restart."""

import json

import pytest

import repro.core.pipeline as pipeline_module
from repro.core import PipelineOptions, run_pipeline
from repro.core.restart import (
    MANIFEST,
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


def report(result):
    """Everything an uninterrupted checkpointed run must share with
    ``run_pipeline``."""
    return {
        "match_vectors": result.match_vectors,
        "outcomes": [
            (o.proto_id, o.solution_vertices, o.solution_edges, o.messages)
            for o in result.outcomes()
        ],
        "message_summary": result.message_summary,
        "nlcc_cache_stats": result.nlcc_cache_stats,
        "candidate_set_seconds": result.candidate_set_seconds,
        "total_simulated_seconds": result.total_simulated_seconds,
    }


#: options a checkpointed run used to drop on the floor.  "aux-views"
#: adds no option: it patches ``pipeline.AUX_VIEW_RATIO`` to 1.0, so a
#: level view is built wherever one is sound.
GRID = {
    "default": {},
    "extension": {"enumeration_optimization": True, "count_matches": True},
    "aux-views": {},
    "reshuffle": {"reload_ranks": 2},
    "reload": {"reload_ranks": 1},
    "deployments": {"parallel_deployments": 2},
}


class TestCheckpointedRun:
    @pytest.mark.parametrize("backend", ["array", "reference"])
    @pytest.mark.parametrize("feature", sorted(GRID))
    def test_reports_what_run_pipeline_reports(
        self, monkeypatch, tmp_path, backend, feature
    ):
        if feature == "aux-views":
            monkeypatch.setattr(pipeline_module, "AUX_VIEW_RATIO", 1.0)
        graph, template = workload()

        def options():
            return PipelineOptions(num_ranks=2, backend=backend, **GRID[feature])

        plain = run_pipeline(graph, template, K, options())
        checkpointed = run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, options()
        )
        assert report(checkpointed) == report(plain)
        assert checkpointed.message_summary["total_messages"] > 0
        assert checkpointed.nlcc_cache_stats or not options().work_recycling

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


class TestManifestMismatch:
    """A manifest that does not fit the resumed run raises CheckpointError."""

    def crashed(self, tmp_path):
        graph, template = workload()
        with pytest.raises(RuntimeError, match="injected failure"):
            run_pipeline_with_checkpoints(
                graph, template, K, tmp_path, PipelineOptions(num_ranks=2),
                fail_after_level=1,
            )
        return graph, template

    def edit(self, tmp_path, change):
        path = tmp_path / MANIFEST
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))

    def test_other_graph(self, tmp_path):
        graph, template = self.crashed(tmp_path)
        other = graph.copy()
        other.add_vertex(10 ** 6, LABELS[0])
        other.add_edge(10 ** 6, 0)
        with pytest.raises(CheckpointError, match="graph"):
            resume_pipeline(other, template, tmp_path)

    def test_other_format_version(self, tmp_path):
        graph, template = self.crashed(tmp_path)
        self.edit(tmp_path, lambda manifest: manifest.update(format=1))
        with pytest.raises(CheckpointError, match="format"):
            resume_pipeline(graph, template, tmp_path)

    def test_missing_union(self, tmp_path):
        graph, template = self.crashed(tmp_path)
        self.edit(tmp_path, lambda manifest: manifest.pop("union_after_1"))
        with pytest.raises(CheckpointError, match="union_after_1"):
            resume_pipeline(graph, template, tmp_path)

    def test_missing_completed_levels(self, tmp_path):
        graph, template = self.crashed(tmp_path)
        self.edit(tmp_path, lambda manifest: manifest.pop("completed_levels"))
        with pytest.raises(CheckpointError, match="completed_levels"):
            resume_pipeline(graph, template, tmp_path)

    def test_ids_the_graph_does_not_hold(self, tmp_path):
        graph, template = self.crashed(tmp_path)
        self.edit(
            tmp_path,
            lambda manifest: manifest["base"]["vertices"].append(10 ** 9),
        )
        with pytest.raises(CheckpointError, match="does not fit"):
            resume_pipeline(graph, template, tmp_path)
