"""Tests for the span tracer: nesting, counters, exporters, null parity."""

import json

import pytest

from repro.core.pipeline import PipelineOptions, run_pipeline
from repro.core.template import PatternTemplate
from repro.graph.generators import planted_graph
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.trace import NULL_TRACER, NullTracer, Span, Tracer

TEMPLATE_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
TEMPLATE_LABELS = [1, 2, 3, 4]


def template():
    return PatternTemplate.from_edges(
        TEMPLATE_EDGES, {i: l for i, l in enumerate(TEMPLATE_LABELS)},
        name="tri+tail",
    )


def graph(seed=11):
    return planted_graph(
        60, 150, TEMPLATE_EDGES, TEMPLATE_LABELS, copies=3, seed=seed
    )


class TestSpanNesting:
    def test_children_attach_to_open_parent(self):
        tracer = Tracer()
        with tracer.span("pipeline") as root:
            with tracer.span("level", distance=1) as level:
                with tracer.span("lcc"):
                    pass
                with tracer.span("nlcc"):
                    pass
        assert tracer.roots == [root]
        assert root.children == [level]
        assert [c.name for c in level.children] == ["lcc", "nlcc"]

    def test_sibling_order_is_execution_order(self):
        tracer = Tracer()
        with tracer.span("pipeline"):
            for distance in (2, 1, 0):
                with tracer.span("level", distance=distance):
                    pass
        distances = [c.attrs["distance"] for c in tracer.roots[0].children]
        assert distances == [2, 1, 0]

    def test_timestamps_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start_s <= inner.start_s <= inner.end_s <= outer.end_s
        assert outer.duration_s >= inner.duration_s
        assert outer.self_s == pytest.approx(
            outer.duration_s - inner.duration_s
        )

    def test_multiple_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_current_and_stack_discipline(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None


class TestCounters:
    def test_add_is_additive(self):
        tracer = Tracer()
        with tracer.span("lcc") as span:
            span.add(messages=3, visits=2)
            span.add(messages=4)
        assert span.counters == {"messages": 7, "visits": 2}

    def test_tracer_add_targets_innermost(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.add(messages=1)
            with tracer.span("inner") as inner:
                tracer.add(messages=10)
        assert outer.counters == {"messages": 1}
        assert inner.counters == {"messages": 10}
        # outside any span: silently dropped
        tracer.add(messages=99)

    def test_total_sums_subtree(self):
        tracer = Tracer()
        with tracer.span("level") as level:
            with tracer.span("proto") as proto:
                with tracer.span("lcc") as lcc:
                    lcc.add(messages=5)
                    tracer.record_span("round", 0.0, 1.0, counters={"messages": 5})
                with tracer.span("nlcc") as nlcc:
                    nlcc.add(messages=7)
        # a span without the counter sums its children's; one that carries
        # it already covers them (counters are inclusive)
        assert proto.total("messages") == 12
        assert level.total("messages") == 12
        assert lcc.total("messages") == 5
        assert proto.total("absent") == 0

    def test_counters_are_the_registry_window_over_the_span(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        metrics.counter("before").inc(3)
        with tracer.span("outer", metrics=metrics) as outer:
            metrics.counter("before").inc(1)
            with tracer.span("inner", metrics=metrics) as inner:
                metrics.counter("inside").inc(2)
            outer.add(messages=4)
        assert inner.counters == {"inside": 2.0}
        assert outer.counters == {"before": 1.0, "inside": 2.0, "messages": 4}

    def test_record_span_inserts_closed_child(self):
        tracer = Tracer()
        with tracer.span("lcc") as parent:
            tracer.record_span(
                "round", 1.0, 2.5, counters={"messages": 9, "worklist": 4}
            )
        child, = parent.children
        assert child.name == "round"
        assert child.duration_s == pytest.approx(1.5)
        assert child.counters == {"messages": 9, "worklist": 4}


class TestAttachAndPickle:
    def test_payload_round_trip(self):
        tracer = Tracer()
        with tracer.span("prototype", proto=3) as span:
            span.add(messages=2)
            with tracer.span("lcc"):
                pass
        restored = Span.from_payload(span.to_payload())
        assert restored.name == "prototype"
        assert restored.attrs == {"proto": 3}
        assert restored.counters == {"messages": 2}
        assert [c.name for c in restored.children] == ["lcc"]
        assert restored.duration_s == pytest.approx(span.duration_s)

    def test_attach_grafts_under_current_span(self):
        worker = Tracer()
        with worker.span("prototype", proto=1):
            pass
        payloads = [s.to_payload() for s in worker.roots]

        parent = Tracer()
        with parent.span("level", distance=1) as level:
            parent.attach(payloads, worker=1234)
        grafted, = level.children
        assert grafted.name == "prototype"
        assert grafted.attrs["worker"] == 1234

    def test_attach_without_open_span_adds_roots(self):
        worker = Tracer()
        with worker.span("prototype"):
            pass
        parent = Tracer()
        parent.attach([s.to_payload() for s in worker.roots])
        assert [r.name for r in parent.roots] == ["prototype"]

    def test_pickled_tracer_arrives_empty_but_enabled(self):
        import pickle

        tracer = Tracer()
        with tracer.span("pipeline"):
            clone = pickle.loads(pickle.dumps(tracer))
        assert clone.enabled
        assert clone.roots == []
        # and it is immediately usable
        with clone.span("fresh"):
            pass
        assert [r.name for r in clone.roots] == ["fresh"]


class TestExporters:
    def _traced_run(self):
        tracer = Tracer()
        run_pipeline(
            graph(), template(), 1,
            PipelineOptions(num_ranks=3, tracer=tracer),
        )
        return tracer

    def test_chrome_trace_round_trip(self, tmp_path):
        from repro.analysis.runreport import load_report

        tracer = self._traced_run()
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        document = json.loads(path.read_text())
        assert "traceEvents" in document
        assert all(e["ph"] == "X" for e in document["traceEvents"])

        records = load_report(path).spans
        original = tracer._flat_records()
        assert len(records) == len(original)
        for got, want in zip(records, original):
            assert got["name"] == want["name"]
            assert got["span_id"] == want["span_id"]
            assert got["parent_id"] == want["parent_id"]
            assert got["depth"] == want["depth"]
            assert got["counters"] == want["counters"]
            assert got["dur"] == pytest.approx(want["dur"], abs=1e-5)

    def test_span_taxonomy(self):
        tracer = self._traced_run()
        assert [r.name for r in tracer.roots] == ["pipeline"]
        root = tracer.roots[0]
        level_distances = [
            c.attrs["distance"] for c in root.children if c.name == "level"
        ]
        assert level_distances == [1, 0]
        assert tracer.find("prototype")
        assert tracer.find("lcc")
        assert tracer.find("nlcc")
        rounds = tracer.find("round")
        assert rounds and any(
            s.counters.get("messages", 0) > 0 for s in rounds
        )
        # lcc spans carry their window and phase traffic, and contain
        # their rounds
        lcc = tracer.find("lcc")[0]
        assert lcc.counters["lcc.iterations"] >= 1
        assert lcc.counters["messages"] == sum(
            c.counters["messages"] for c in lcc.children
        )
        assert all(c.name == "round" for c in lcc.children)


class TestNullTracer:
    def test_null_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything", k=1) as span:
            span.add(messages=5)
            tracer.add(visits=2)
        assert span.counters == {}
        assert tracer.roots == []
        tracer.record_span("round", 0.0, 1.0)
        tracer.attach([{"name": "x"}])
        assert not tracer.enabled

    def test_traced_and_untraced_results_identical(self):
        g, t = graph(), template()
        untraced = run_pipeline(g, t, 1, PipelineOptions(num_ranks=3))
        tracer = Tracer()
        traced = run_pipeline(
            g, t, 1, PipelineOptions(num_ranks=3, tracer=tracer)
        )
        assert traced.match_vectors == untraced.match_vectors
        assert traced.message_summary == untraced.message_summary
        assert traced.nlcc_cache_stats == untraced.nlcc_cache_stats
        assert [
            (lvl.distance, lvl.union_vertices, lvl.union_edges,
             lvl.post_lcc_vertices, lvl.post_lcc_edges)
            for lvl in traced.levels
        ] == [
            (lvl.distance, lvl.union_vertices, lvl.union_edges,
             lvl.post_lcc_vertices, lvl.post_lcc_edges)
            for lvl in untraced.levels
        ]

    def test_default_options_use_null_tracer(self):
        assert PipelineOptions().tracer is NULL_TRACER


class TestWorkerMerge:
    def test_pooled_level_spans_are_grafted(self):
        g, t = graph(), template()
        tracer = Tracer()
        pooled = run_pipeline(
            g, t, 1,
            PipelineOptions(
                num_ranks=3, worker_processes=2, tracer=tracer
            ),
        )
        sequential = run_pipeline(g, t, 1, PipelineOptions(num_ranks=3))
        assert pooled.match_vectors == sequential.match_vectors

        protos = tracer.find("prototype")
        # level 1 has 3 prototypes (pooled), level 0 has 1 (in-process)
        assert len(protos) == 4
        workers = {
            s.attrs.get("worker") for s in protos if "worker" in s.attrs
        }
        assert workers, "no worker-labeled prototype spans were grafted"
        assert all(isinstance(w, int) for w in workers)
        # grafted subtrees keep their structure and land under a level span
        root = tracer.roots[0]
        level1 = next(
            c for c in root.children
            if c.name == "level" and c.attrs["distance"] == 1
        )
        grafted = [c for c in level1.children if c.name == "prototype"]
        assert len(grafted) == 3
        assert all(s.find("lcc") for s in grafted)

    def test_exploratory_and_checkpointed_modes_traced(self, tmp_path):
        from repro.core.restart import run_pipeline_with_checkpoints
        from repro.core.topdown import exploratory_search

        g, t = graph(), template()
        tracer = Tracer()
        exploratory_search(
            g, t, options=PipelineOptions(num_ranks=3, tracer=tracer)
        )
        assert tracer.roots[0].attrs["mode"] == "exploratory"

        tracer2 = Tracer()
        run_pipeline_with_checkpoints(
            g, t, 1, tmp_path / "ckpt",
            options=PipelineOptions(num_ranks=3, tracer=tracer2),
        )
        assert tracer2.roots[0].attrs["mode"] == "checkpointed"
        assert tracer2.find("level")
