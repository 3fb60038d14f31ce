"""Tests for the run report: loading, span breakdowns, document sections."""

import json

import pytest

from repro.analysis.runreport import (
    RunReport,
    constraint_breakdown,
    derived_metrics,
    level_table,
    load_report,
    phase_breakdown,
    render_report,
    span_tree_lines,
)
from repro.core import (
    BatchQuery,
    PatternTemplate,
    PipelineOptions,
    run_batch,
    run_pipeline,
)
from repro.graph.generators import planted_graph
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.trace import Tracer


def make_tracer():
    """A small hand-built trace with known times and counters."""
    tracer = Tracer()
    with tracer.span("pipeline", template="tri", k=1, mode="bottom-up"):
        with tracer.span("level", distance=1) as level:
            level.add(**{
                "level.prototypes": 2, "level.union_vertices": 10,
                "level.union_edges": 12, "search.post_lcc_vertices": 20,
                "search.post_lcc_edges": 22,
            })
            with tracer.span("prototype", proto=1, label="k1_p0", distance=1):
                with tracer.span("lcc") as lcc:
                    lcc.add(messages=30, **{"lcc.iterations": 4})
                with tracer.span(
                    "nlcc", kind="cycle", source=0, walk_length=4
                ) as nlcc:
                    nlcc.add(messages=12, **{
                        "cache.nlcc.hits": 2, "nlcc.tokens_launched": 3,
                        "nlcc.completions": 1, "nlcc.roles_eliminated": 2,
                    })
        with tracer.span("level", distance=0) as level:
            level.add(**{
                "level.prototypes": 1, "level.union_vertices": 3,
                "level.union_edges": 3,
            })
    return tracer


def sample_snapshot():
    registry = MetricsRegistry()
    registry.counter("cache.nlcc.hits").inc(3)
    registry.counter("cache.nlcc.misses").inc(1)
    registry.counter("fixpoint.rounds_dense").inc(2)
    registry.counter("fixpoint.rounds_sparse").inc(6)
    registry.counter("fixpoint.rounds_adaptive_dense").inc(1)
    registry.counter("fixpoint.worklist_vertices").inc(50)
    registry.counter("fixpoint.active_vertices").inc(100)
    registry.counter("search.wall_seconds").inc(3.0)
    registry.gauge("cache.nlcc.entries").set(12.0)
    histogram = registry.histogram("fixpoint.worklist_size")
    for value in (0, 1, 3, 8):
        histogram.observe(value)
    return registry.snapshot()


def sample_document():
    """A stats document shaped like ``PipelineResult.stats_document()``."""
    return {
        "schema": 3,
        "template": "tri",
        "levels": [
            {"distance": 1, "prototypes": 2, "union_vertices": 10,
             "union_edges": 12, "post_lcc_vertices": 20,
             "post_lcc_edges": 22, "nlcc_tokens_launched": 3,
             "nlcc_completions": 1, "wall_seconds": 0.002},
            {"distance": 0, "prototypes": 1, "union_vertices": 3,
             "union_edges": 3, "post_lcc_vertices": 3,
             "post_lcc_edges": 3, "nlcc_tokens_launched": 0,
             "nlcc_completions": 0, "wall_seconds": 0.001},
        ],
        "messages": {
            "total_messages": 42, "remote_messages": 7, "total_visits": 50,
            "barriers": 5,
            "phases": {
                "lcc": {"messages": 30, "remote_messages": 5, "visits": 40},
                "nlcc": {"messages": 12, "remote_messages": 2, "visits": 10},
            },
        },
        "metrics": sample_snapshot(),
    }


@pytest.fixture()
def records(tmp_path):
    path = tmp_path / "t.json"
    make_tracer().write_chrome_trace(path)
    return load_report(path).spans


class TestLoadReport:
    def test_preorder_and_depths(self, records):
        assert [r["name"] for r in records] == [
            "pipeline", "level", "prototype", "lcc", "nlcc", "level",
        ]
        assert [r["depth"] for r in records] == [0, 1, 2, 3, 3, 1]

    def test_parent_links(self, records):
        by_id = {r["span_id"]: r for r in records}
        lcc = next(r for r in records if r["name"] == "lcc")
        assert by_id[lcc["parent_id"]]["name"] == "prototype"
        root = records[0]
        assert root["parent_id"] is None

    def test_counters_survive(self, records):
        nlcc = next(r for r in records if r["name"] == "nlcc")
        assert nlcc["counters"]["nlcc.tokens_launched"] == 3
        assert nlcc["attrs"]["kind"] == "cycle"

    def test_loads_stats_document(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(sample_document()))
        assert load_report(path) == RunReport(sample_document(), [])

    def test_trace_carries_its_stats_document(self, tmp_path):
        path = tmp_path / "trace.json"
        make_tracer().write_chrome_trace(path, stats=sample_document())
        report = load_report(path)
        assert report.document == sample_document()
        assert len(report.spans) == 6

    def test_trace_without_stats_document(self, tmp_path):
        path = tmp_path / "t.json"
        make_tracer().write_chrome_trace(path)
        assert load_report(path).document == {}

    @pytest.mark.parametrize("content", [
        "",
        json.dumps(sample_snapshot()),  # a bare snapshot is not a run artefact
        json.dumps({"schema": 3, "levels": {"k": 1}}),
        json.dumps({"traceEvents": [], "otherData": {"stats": {
            "schema": 3, "metrics": {"gauges": {"g": None}},
        }}}),
        json.dumps({"traceEvents": [
            {"ph": "X", "args": {"counters": {"messages": "many"}}},
        ]}),
        json.dumps({"matched_vertices": 7}),  # result stats, not an artefact
        json.dumps({"otherData": {"stats": sample_document()}}),
    ], ids=["empty", "bare-snapshot", "levels-object", "trace-stats-null",
            "span-counter-text", "neither", "trace-without-events"])
    def test_rejects_malformed_input(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(ValueError):
            load_report(path)


class TestBreakdowns:
    def test_phase_breakdown_counts_and_counters(self, records):
        phases = {b["name"]: b for b in phase_breakdown(records)}
        assert phases["level"]["count"] == 2
        assert phases["level"]["counters"]["level.prototypes"] == 3
        assert phases["nlcc"]["counters"]["messages"] == 12
        # self time of the pipeline excludes its levels
        pipeline = phases["pipeline"]
        assert pipeline["self_s"] <= pipeline["total_s"]

    def test_phase_breakdown_sorted_by_total(self, records):
        totals = [b["total_s"] for b in phase_breakdown(records)]
        assert totals == sorted(totals, reverse=True)

    def test_constraint_breakdown(self, records):
        rows = constraint_breakdown(records)
        assert len(rows) == 1
        row = rows[0]
        assert (row["kind"], row["source"], row["walk_length"]) == (
            "cycle", 0, 4,
        )
        assert row["checked"] == 5
        assert row["cache_hits"] == 2
        assert row["tokens_launched"] == 3
        assert row["eliminated_roles"] == 2


class TestDocumentSections:
    def test_level_table_in_run_order(self):
        lines = level_table(sample_document()["levels"]).splitlines()
        assert lines[0].split()[:2] == ["k", "prototypes"]
        assert lines[2].split()[:6] == ["1", "2", "10/12", "20/22", "3", "1"]
        assert lines[3].split()[:4] == ["0", "1", "3/3", "3/3"]

    def test_headline_ratios(self):
        derived = derived_metrics(sample_snapshot())
        assert derived["nlcc_cache_hit_ratio"] == pytest.approx(0.75)
        assert derived["dense_round_fraction"] == pytest.approx(0.25)
        assert derived["adaptive_dense_rounds"] == 1.0
        assert derived["mean_worklist_density"] == pytest.approx(0.5)

    def test_unrecorded_inputs_yield_none_not_zero(self):
        derived = derived_metrics({"counters": {}, "gauges": {}})
        assert derived["nlcc_cache_hit_ratio"] is None
        assert derived["mstar_memo_hit_ratio"] is None
        assert derived["dense_round_fraction"] is None


def test_every_derived_ratio_has_a_producer(complete_constraint_lists):
    """Each derived value is measured by a run or a batch; a ratio over
    counters that nothing produces fails here.  Complete constraint
    lists keep the pre-filter walks, the ones that probe the NLCC cache."""
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]
    labels = [1, 2, 3, 4, 5]
    graph = planted_graph(60, 140, edges, labels, copies=3, num_labels=6,
                          seed=33)
    template = PatternTemplate.from_edges(
        edges, dict(enumerate(labels)), name="ring+chord"
    )
    run = run_pipeline(graph, template, 2, PipelineOptions(
        num_ranks=2, backend="array",
    ))
    batch = run_batch(graph, [
        BatchQuery(template, 1, name="ring"),
        BatchQuery(template, 0, name="ring0"),
    ], PipelineOptions(num_ranks=2))
    # on twelve labels most vertices carry none of the template's, so
    # M* runs on the label view
    sparse = run_pipeline(
        planted_graph(60, 140, edges, labels, copies=3, num_labels=12,
                      seed=33),
        template, 1, PipelineOptions(num_ranks=2),
    )
    derived = [
        derived_metrics(result.stats_document()["metrics"])
        for result in (run, batch, sparse)
    ]
    unmeasured = [
        name for name in derived[0]
        if all(values[name] is None for values in derived)
    ]
    assert unmeasured == []


class TestRendering:
    def test_tree_lines_respect_depth(self, records):
        all_lines = span_tree_lines(records, max_depth=None)
        shallow = span_tree_lines(records, max_depth=1)
        assert len(all_lines) == 6
        assert len(shallow) == 3
        assert all_lines[0].startswith("pipeline [")

    def test_render_report_sections(self, records):
        report = render_report(RunReport(sample_document(), records))
        for section in (
            "== per-level breakdown ==", "== messages ==", "== span tree",
            "== per-phase breakdown ==",
            "== per-constraint breakdown (NLCC) ==", "== derived ==",
            "== counters ==", "== gauges ==", "== histograms ==",
        ):
            assert section in report
        assert "cycle(src=0, len=4)" in report
        assert "supersteps: 5" in report

    def test_document_renders_without_spans(self):
        report = render_report(RunReport(sample_document(), []))
        assert "== per-level breakdown ==" in report
        assert "dense_round_fraction" in report
        assert "== span tree" not in report
        # _seconds counters format as durations, not raw floats
        assert "search.wall_seconds" in report

    def test_inapplicable_ratios_are_dropped_from_derived_table(self):
        report = render_report(RunReport({"metrics": {
            "counters": {"fixpoint.rounds_dense": 1.0}, "gauges": {},
            "histograms": {},
        }}, []))
        assert "kernel_cache_hit_ratio" not in report

    def test_render_empty(self):
        assert render_report(RunReport({"schema": 3}, [])) == "report is empty"

    def test_render_empty_metrics(self):
        document = {"schema": 3, "metrics": {
            "counters": {}, "gauges": {}, "histograms": {},
        }}
        assert render_report(RunReport(document, [])) == "report is empty"
