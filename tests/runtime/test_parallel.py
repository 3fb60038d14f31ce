"""Tests for real worker-process prototype search."""

import pytest

from repro.core import (
    PipelineOptions,
    exploratory_search,
    generate_prototypes,
    run_pipeline,
)
from repro.core.patterns import wdc4_template
from repro.core.template import PatternTemplate
from repro.errors import PipelineError
from repro.graph.generators import planted_graph

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
LABELS = [1, 2, 3, 4]


def workload(seed=51):
    graph = planted_graph(60, 140, EDGES, LABELS, copies=3, num_labels=5, seed=seed)
    template = PatternTemplate.from_edges(
        EDGES, {i: l for i, l in enumerate(LABELS)}, name="pool-t"
    )
    return graph, template


class TestWorkerProcesses:
    def test_results_identical_to_sequential(self):
        graph, template = workload()
        sequential = run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=2, count_matches=True)
        )
        pooled = run_pipeline(
            graph, template, 1,
            PipelineOptions(num_ranks=2, count_matches=True, worker_processes=3),
        )
        assert pooled.match_vectors == sequential.match_vectors
        for proto in sequential.prototype_set:
            seq_outcome = sequential.outcome_for(proto.id)
            par_outcome = pooled.outcome_for(proto.id)
            assert par_outcome.solution_vertices == seq_outcome.solution_vertices
            assert par_outcome.solution_edges == seq_outcome.solution_edges
            assert par_outcome.match_mappings == seq_outcome.match_mappings

    def test_containment_rule_across_pooled_levels(self):
        graph, template = workload(seed=52)
        pooled = run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=2, worker_processes=2)
        )
        for proto in pooled.prototype_set:
            children = proto.children()
            if not children:
                continue
            union_children = set()
            for child in children:
                union_children |= pooled.outcome_for(child.id).solution_vertices
            assert pooled.outcome_for(proto.id).solution_vertices <= union_children

    def test_simulated_times_populated(self):
        graph, template = workload(seed=53)
        pooled = run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=2, worker_processes=2)
        )
        assert pooled.total_simulated_seconds > 0
        assert all(
            lvl.search_seconds >= 0 for lvl in pooled.levels
        )

    def test_array_paths_forwarded_to_workers(self):
        # Workers read options.backend directly; a dropped keyword would
        # silently run another execution in-pool than the sequential run.
        graph, template = workload(seed=54)
        for backend in ("array", "reference"):
            knobs = dict(num_ranks=2, count_matches=True, backend=backend)
            sequential = run_pipeline(
                graph, template, 1, PipelineOptions(**knobs)
            )
            pooled = run_pipeline(
                graph, template, 1,
                PipelineOptions(worker_processes=2, **knobs),
            )
            assert pooled.match_vectors == sequential.match_vectors
            for proto in sequential.prototype_set:
                seq_outcome = sequential.outcome_for(proto.id)
                par_outcome = pooled.outcome_for(proto.id)
                assert (
                    par_outcome.counts.get("nlcc.tokens_launched", 0)
                    == seq_outcome.counts.get("nlcc.tokens_launched", 0)
                )
                assert (
                    par_outcome.counts.get("nlcc.constraints_checked", 0)
                    == seq_outcome.counts.get("nlcc.constraints_checked", 0)
                )
                assert (
                    par_outcome.distinct_matches
                    == seq_outcome.distinct_matches
                )

    def test_dict_payload_fallback_identical(self):
        # the reference backend ships dict payloads; results must not
        # depend on the backend or the wire format
        graph, template = workload(seed=55)
        knobs = dict(num_ranks=2, count_matches=True)
        sequential = run_pipeline(graph, template, 1, PipelineOptions(**knobs))
        pooled = run_pipeline(
            graph, template, 1,
            PipelineOptions(worker_processes=2, backend="reference", **knobs),
        )
        assert pooled.match_vectors == sequential.match_vectors
        for proto in sequential.prototype_set:
            seq_outcome = sequential.outcome_for(proto.id)
            par_outcome = pooled.outcome_for(proto.id)
            assert par_outcome.solution_vertices == seq_outcome.solution_vertices
            assert par_outcome.solution_edges == seq_outcome.solution_edges
            assert par_outcome.match_mappings == seq_outcome.match_mappings

    def test_collect_matches_rejected(self):
        with pytest.raises(PipelineError):
            PipelineOptions(worker_processes=2, collect_matches=True)

    def test_extension_rejected(self):
        with pytest.raises(PipelineError):
            PipelineOptions(worker_processes=2, enumeration_optimization=True)

    def test_zero_workers_rejected(self):
        with pytest.raises(PipelineError):
            PipelineOptions(worker_processes=0)


class TestWorkerInitDoesNotPlan:
    """Workers plan the task they are handed, not the whole template."""

    @staticmethod
    def clique_workload():
        # the e2e benchmark's clique-explore query: vertices 4 and 5 pinned
        # to everything, the six edges among 0..3 optional
        clique = wdc4_template()
        mandatory = [e for e in clique.edges() if e[1] >= 4]
        template = PatternTemplate.from_edges(
            clique.edges(), {v: clique.label(v) for v in clique.vertices()},
            mandatory_edges=mandatory, name="WDC-4",
        )
        labels = [clique.label(v) for v in sorted(clique.vertices())]
        relaxed = [e for e in clique.edges() if e not in [(0, 1), (0, 2)]]
        graph = planted_graph(
            150, 400, relaxed, labels, copies=2, num_labels=8, seed=11
        )
        return graph, template

    def test_init_builds_no_constraint_set(self, monkeypatch):
        import repro.core.constraints as constraints_module
        from repro.runtime import parallel

        graph, template = self.clique_workload()
        assert len(generate_prototypes(template, 4)) == 57
        builds = []
        raw = constraints_module.generate_constraints

        def counting(*args, **kwargs):
            builds.append(args)
            return raw(*args, **kwargs)

        monkeypatch.setattr(constraints_module, "generate_constraints", counting)
        monkeypatch.setattr(parallel, "_WORKER", {})
        parallel._init_worker(graph, template, 4, PipelineOptions(num_ranks=2))
        assert len(parallel._WORKER["prototypes"]) == 57
        assert not builds

    def test_pooled_level_returns_the_in_process_answer(self):
        graph, template = self.clique_workload()
        knobs = dict(num_ranks=2, count_matches=True)
        sequential = exploratory_search(
            graph, template, max_k=4, options=PipelineOptions(**knobs)
        )
        pooled = exploratory_search(
            graph, template, max_k=4,
            options=PipelineOptions(worker_processes=2, **knobs),
        )
        assert sequential.matched_vertices()
        assert len(pooled.levels) == len(sequential.levels) == 3
        assert pooled.match_vectors == sequential.match_vectors
        for seq_outcome in sequential.outcomes():
            par_outcome = pooled.outcome_for(seq_outcome.prototype.id)
            assert par_outcome.solution_vertices == seq_outcome.solution_vertices
            assert par_outcome.solution_edges == seq_outcome.solution_edges
            assert par_outcome.match_mappings == seq_outcome.match_mappings
            assert (
                par_outcome.counts.get("nlcc.constraints_checked", 0)
                == seq_outcome.counts.get("nlcc.constraints_checked", 0)
            )
