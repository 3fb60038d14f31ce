"""Tests for trace loading and the attribution breakdowns."""

import json

import pytest

from repro.analysis.tracereport import (
    constraint_breakdown,
    level_breakdown,
    load_trace,
    phase_breakdown,
    render_report,
    span_tree_lines,
)
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


@pytest.fixture(params=["chrome", "jsonl"])
def records(request, tmp_path):
    tracer = make_tracer()
    if request.param == "chrome":
        path = tmp_path / "t.json"
        tracer.write_chrome_trace(path)
    else:
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
    return load_trace(path)


class TestLoadTrace:
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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_trace(path) == []

    def test_object_without_trace_events_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError):
            load_trace(path)


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

    def test_level_breakdown_sorted_by_distance(self, records):
        rows = level_breakdown(records)
        assert [r["distance"] for r in rows] == [0, 1]
        level1 = rows[1]
        assert level1["prototypes"] == 2
        assert level1["union_vertices"] == 10
        assert level1["post_lcc_edges"] == 22


class TestRendering:
    def test_tree_lines_respect_depth(self, records):
        all_lines = span_tree_lines(records, max_depth=None)
        shallow = span_tree_lines(records, max_depth=1)
        assert len(all_lines) == 6
        assert len(shallow) == 3
        assert all_lines[0].startswith("pipeline [")

    def test_render_report_sections(self, records):
        report = render_report(records)
        assert "== span tree" in report
        assert "== per-phase breakdown ==" in report
        assert "== per-constraint breakdown (NLCC) ==" in report
        assert "== per-level breakdown ==" in report
        assert "cycle(src=0, len=4)" in report

    def test_render_empty(self):
        assert render_report([]) == "trace is empty"


class TestPooledReparenting:
    """Worker payloads attached after the tree closed must still nest."""

    def _worker_payload(self, start, end):
        return {
            "name": "prototype",
            "attrs": {"proto": 7, "label": "k1_p7"},
            "start_s": start,
            "end_s": end,
            "counters": {"messages": 40},
            "children": [{
                "name": "lcc",
                "attrs": {},
                "start_s": start,
                "end_s": (start + end) / 2,
                "counters": {"messages": 25},
                "children": [],
            }],
        }

    def _pooled_tracer(self):
        tracer = Tracer()
        with tracer.span("pipeline", template="tri", k=1):
            with tracer.span("level", distance=1) as level:
                level.add(prototypes=1)
        level_span = tracer.roots[0].children[0]
        inner_start = level_span.start_s + (level_span.end_s - level_span.start_s) / 4
        inner_end = level_span.end_s - (level_span.end_s - level_span.start_s) / 4
        # The pool collects results after the level span already closed:
        # the payload lands as a detached root, tagged with its worker.
        tracer.attach([self._worker_payload(inner_start, inner_end)], worker=123)
        return tracer

    @pytest.fixture(params=["chrome", "jsonl"])
    def pooled_records(self, request, tmp_path):
        tracer = self._pooled_tracer()
        if request.param == "chrome":
            path = tmp_path / "pooled.json"
            tracer.write_chrome_trace(path)
        else:
            path = tmp_path / "pooled.jsonl"
            tracer.write_jsonl(path)
        return load_trace(path)

    def test_worker_span_reparented_under_enclosing_level(self, pooled_records):
        by_id = {r["span_id"]: r for r in pooled_records}
        worker = next(
            r for r in pooled_records if r["attrs"].get("worker") == 123
        )
        assert worker["parent_id"] is not None
        assert by_id[worker["parent_id"]]["name"] == "level"
        assert worker["depth"] == 2
        # the payload's own children keep their subtree
        lcc = next(r for r in pooled_records if r["name"] == "lcc")
        assert by_id[lcc["parent_id"]] is worker
        assert lcc["depth"] == 3

    def test_single_root_after_reparenting(self, pooled_records):
        roots = [r for r in pooled_records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["pipeline"]

    def test_breakdowns_attribute_worker_time_to_the_tree(self, pooled_records):
        phases = {b["name"]: b for b in phase_breakdown(pooled_records)}
        assert phases["prototype"]["counters"]["messages"] == 40
        assert phases["lcc"]["counters"]["messages"] == 25
        # level self-time now excludes the grafted prototype span
        level = phases["level"]
        prototype = phases["prototype"]
        assert level["self_s"] <= level["total_s"] - prototype["total_s"] + 1e-9

    def test_non_worker_detached_roots_stay_roots(self, tmp_path):
        tracer = Tracer()
        with tracer.span("pipeline"):
            pass
        with tracer.span("orphan"):  # a second honest top-level span
            pass
        path = tmp_path / "two_roots.jsonl"
        tracer.write_jsonl(path)
        records = load_trace(path)
        roots = [r for r in records if r["parent_id"] is None]
        assert {r["name"] for r in roots} == {"pipeline", "orphan"}
