"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.runreport import load_report
from repro.cli import build_parser, load_template, main
from repro.graph import io as graph_io
from repro.graph.generators import planted_graph


@pytest.fixture()
def graph_files(tmp_path):
    edges = [(0, 1), (1, 2), (2, 0)]
    labels = [1, 2, 3]
    graph = planted_graph(30, 60, edges, labels, copies=2, num_labels=4, seed=3)
    graph_path = tmp_path / "graph.edges"
    labels_path = tmp_path / "graph.labels"
    graph_io.write_edge_list(graph, graph_path)
    graph_io.write_labels(graph, labels_path)
    template_path = tmp_path / "template.json"
    template_path.write_text(json.dumps({
        "edges": [[0, 1], [1, 2], [2, 0]],
        "labels": {"0": 1, "1": 2, "2": 3},
        "name": "tri",
    }))
    return graph_path, labels_path, template_path


class TestTemplateLoading:
    def test_load_template(self, graph_files):
        _graph, _labels, template_path = graph_files
        template = load_template(str(template_path))
        assert template.name == "tri"
        assert template.num_edges == 3

    def test_mandatory_edges(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "edges": [[0, 1], [1, 2]],
            "labels": {"0": 1, "1": 2, "2": 3},
            "mandatory_edges": [[0, 1]],
        }))
        template = load_template(str(path))
        assert (0, 1) in template.mandatory_edges


class TestSearchCommand:
    def test_search_prints_and_writes(self, graph_files, tmp_path, capsys):
        graph_path, labels_path, template_path = graph_files
        output = tmp_path / "out.json"
        code = main([
            "search", str(graph_path), str(template_path),
            "--labels", str(labels_path), "-k", "1", "--count",
            "--output", str(output), "--ranks", "2",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "prototypes: 4" in captured
        assert "match mappings:" in captured
        document = json.loads(output.read_text())
        assert document["template"] == "tri"
        assert document["match_vectors"]

    def test_missing_file(self, graph_files, capsys):
        _g, _l, template_path = graph_files
        code = main(["search", "/does/not/exist", str(template_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_a_vertex_labelled_twice_is_refused(self, graph_files, capsys):
        graph_path, labels_path, template_path = graph_files
        with labels_path.open("a") as handle:
            handle.write("0 1\n0 2\n")
        code = main([
            "search", str(graph_path), str(template_path),
            "--labels", str(labels_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "graph.labels:" in err

    def test_json_output_is_machine_readable(self, graph_files, capsys):
        graph_path, labels_path, template_path = graph_files
        code = main([
            "search", str(graph_path), str(template_path),
            "--labels", str(labels_path), "-k", "1", "--ranks", "2",
            "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["template"] == "tri"
        assert document["prototypes"] == 4
        assert document["candidate_set"]["vertices"] > 0
        assert {lvl["distance"] for lvl in document["levels"]} == {0, 1}
        assert "totals" in document and "messages" in document

    def test_trace_flag_writes_parseable_trace(
        self, graph_files, tmp_path, capsys
    ):
        graph_path, labels_path, template_path = graph_files
        trace_path = tmp_path / "run.json"
        code = main([
            "search", str(graph_path), str(template_path),
            "--labels", str(labels_path), "-k", "1", "--ranks", "2",
            "--trace", str(trace_path), "--json",
        ])
        assert code == 0
        captured = capsys.readouterr()
        # the trace notice goes to stderr so --json stdout stays parseable
        document = json.loads(captured.out)
        assert str(trace_path) in captured.err
        report = load_report(trace_path)
        assert report.document == document
        names = {r["name"] for r in report.spans}
        assert {"pipeline", "level", "prototype", "lcc"} <= names

    def test_search_json_embeds_metrics(self, graph_files, capsys):
        graph_path, labels_path, template_path = graph_files
        code = main([
            "search", str(graph_path), str(template_path),
            "--labels", str(labels_path), "--ranks", "2", "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert "metrics" in document
        assert document["metrics"]["counters"]["fixpoint.rounds_dense"] >= 1


class TestReportCommand:
    #: sections every search artefact renders, from its stats document
    STATS = ("== per-level breakdown ==", "== messages ==", "== derived ==",
             "== counters ==")
    #: sections only a trace renders, from its spans
    SPANS = ("== span tree", "== per-phase breakdown ==")

    def _search(self, graph_files, tmp_path, capsys, flag):
        graph_path, labels_path, template_path = graph_files
        path = tmp_path / "run.json"
        argv = [
            "search", str(graph_path), str(template_path),
            "--labels", str(labels_path), "-k", "1", "--ranks", "2",
        ]
        if flag == "--trace":
            assert main(argv + ["--trace", str(path)]) == 0
        else:
            assert main(argv + ["--json"]) == 0
            path.write_text(capsys.readouterr().out)
        capsys.readouterr()
        return path

    def test_report_renders_trace(self, graph_files, tmp_path, capsys):
        path = self._search(graph_files, tmp_path, capsys, "--trace")
        code = main(["report", str(path), "--depth", "2"])
        assert code == 0
        out = capsys.readouterr().out
        for section in self.STATS + self.SPANS:
            assert section in out
        assert "pipeline [" in out

    def test_report_renders_stats_document(
        self, graph_files, tmp_path, capsys
    ):
        path = self._search(graph_files, tmp_path, capsys, "--json")
        code = main(["report", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        for section in self.STATS:
            assert section in out
        assert "fixpoint.rounds_dense" in out
        assert "== span tree" not in out

    @pytest.mark.parametrize("content", [
        "{not json",
        "[1, 2]",
        '"x"',
        '{"not": "a trace"}',
        '{"schema": 2, "metrics": {"counters": {"a": "x"}}}',
    ], ids=["not-json", "array", "string", "neither", "text-counter"])
    def test_report_rejects_malformed_input(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        code = main(["report", str(bad)])
        assert code == 2
        assert f"error: cannot parse {bad}" in capsys.readouterr().err


class TestMotifsCommand:
    def test_motif_census(self, graph_files, capsys):
        graph_path, _labels, _template = graph_files
        code = main(["motifs", str(graph_path), "--size", "3", "--ranks", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "motif" in out
        assert "induced" in out


class TestGenerateCommand:
    @pytest.mark.parametrize("dataset", ["webgraph", "reddit", "imdb"])
    def test_generate_round_trips(self, dataset, tmp_path, capsys):
        output = tmp_path / f"{dataset}.edges"
        code = main([
            "generate", dataset, str(output), "--size", "200", "--seed", "1"
        ])
        assert code == 0
        graph = graph_io.read_edge_list(output, str(output) + ".labels")
        assert graph.num_vertices > 0
        assert graph.num_edges > 0


class TestDatasetsCommand:
    def test_datasets_table(self, capsys):
        code = main(["datasets"])
        assert code == 0
        out = capsys.readouterr().out
        assert "WDC-like" in out
        assert "livejournal" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExploreCommand:
    def test_explore_reports_stop_level(self, graph_files, capsys):
        graph_path, labels_path, template_path = graph_files
        code = main([
            "explore", str(graph_path), str(template_path),
            "--labels", str(labels_path), "--ranks", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "first matches at edit-distance k=0" in out

    def test_explore_no_match(self, tmp_path, graph_files, capsys):
        graph_path, labels_path, template_path = graph_files
        # A template whose labels do not exist in the graph.
        impossible = tmp_path / "impossible.json"
        impossible.write_text(json.dumps({
            "edges": [[0, 1], [1, 2], [2, 0]],
            "labels": {"0": 90, "1": 91, "2": 92},
        }))
        code = main([
            "explore", str(graph_path), str(impossible),
            "--labels", str(labels_path), "--ranks", "2",
        ])
        assert code == 0
        assert "no matches" in capsys.readouterr().out

    def test_explore_trace(self, graph_files, tmp_path, capsys):
        graph_path, labels_path, template_path = graph_files
        trace_path = tmp_path / "explore.json"
        code = main([
            "explore", str(graph_path), str(template_path),
            "--labels", str(labels_path), "--ranks", "2",
            "--trace", str(trace_path), "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["levels"]
        report = load_report(trace_path)
        assert report.document == document
        root = next(r for r in report.spans if r["parent_id"] is None)
        assert root["name"] == "pipeline"
        assert root["attrs"]["mode"] == "exploratory"


class TestAuditCommand:
    def test_audit_passes_on_exact_run(self, graph_files, capsys):
        graph_path, labels_path, template_path = graph_files
        code = main([
            "audit", str(graph_path), str(template_path),
            "--labels", str(labels_path), "-k", "1", "--ranks", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall exact: True" in out


class TestBatchScheduleOutput:
    def _template_files(self, tmp_path):
        paths = []
        for name, rotate in (("tri-a", 0), ("tri-b", 1)):
            path = tmp_path / f"{name}.json"
            labels = [1, 2, 3]
            labels = labels[rotate:] + labels[:rotate]
            path.write_text(json.dumps({
                "edges": [[0, 1], [1, 2], [2, 0]],
                "labels": {str(i): l for i, l in enumerate(labels)},
                "name": name,
            }))
            paths.append(path)
        return paths

    def test_batch_json_reports_schedule_costs(
        self, graph_files, tmp_path, capsys
    ):
        graph_path, labels_path, _ = graph_files
        templates = self._template_files(tmp_path)
        code = main([
            "batch", str(graph_path), *map(str, templates),
            "--labels", str(labels_path), "--ranks", "2", "--count",
        ] + ["--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        entries = document["schedule_costs"]
        assert [e["name"] for e in entries] == document["schedule"]
        assert all(e["cost_estimate"] > 0 for e in entries)
        assert all(e["wall_seconds"] >= 0 for e in entries)

    def test_batch_human_output_prints_schedule_table(
        self, graph_files, tmp_path, capsys
    ):
        graph_path, labels_path, _ = graph_files
        templates = self._template_files(tmp_path)
        code = main([
            "batch", str(graph_path), *map(str, templates),
            "--labels", str(labels_path), "--ranks", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule (estimate vs measured):" in out
        assert "cost estimate" in out
