"""CI smoke check for the tracing layer.

Runs a small traced ``repro search`` through the real CLI, asserts the
exported Chrome trace parses and contains the expected span taxonomy
(``pipeline`` → ``level`` → ``prototype`` → ``lcc``/``nlcc`` → ``round``),
then renders the ``repro trace`` report.  The same run also exports the
always-on metrics snapshot via ``--metrics-out``, which is sanity-checked
(the fixpoint counters must be populated, the plan's pre-filter decision
reported) and rendered through ``repro metrics``, and prints its run
report (``--json``), which the trace must agree with: the schema of
``repro.core.results.SCHEMA``, the same per-level counts, and the
``pipeline`` span's messages equal to the report's.  Last, ``repro batch
--json`` runs on the same graph in-process and with ``--workers 2``: both
documents must carry that schema and the same per-class messages.  Both
files are left on disk so CI can upload them as build artifacts.

Run from the repo root::

    PYTHONPATH=src python benchmarks/trace_smoke.py \
        [--out trace.json] [--metrics-out metrics.json]
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.analysis.metricsreport import derived_metrics, load_snapshot
from repro.analysis.metricsreport import render_report as render_metrics
from repro.analysis.tracereport import level_breakdown, load_trace, render_report
from repro.core.results import SCHEMA
from repro.graph import io as graph_io
from repro.graph.generators import planted_graph

TEMPLATE_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
TEMPLATE_LABELS = [1, 2, 3, 4]

#: spans the exported trace must contain, with the parent each must have
EXPECTED_NESTING = {
    "pipeline": None,
    "level": "pipeline",
    "prototype": "level",
    "lcc": "prototype",
    "nlcc": "prototype",
    "round": None,  # rounds appear under lcc / nlcc / max_candidate_set
}


def run(out_path: Path, metrics_path: Path) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="trace_smoke_"))
    graph = planted_graph(
        60, 150, TEMPLATE_EDGES, TEMPLATE_LABELS, copies=3, seed=11
    )
    graph_path = workdir / "graph.edges"
    labels_path = workdir / "graph.labels"
    template_path = workdir / "template.json"
    graph_io.write_edge_list(graph, graph_path)
    graph_io.write_labels(graph, labels_path)
    template_path.write_text(json.dumps({
        "edges": [list(edge) for edge in TEMPLATE_EDGES],
        "labels": {str(i): l for i, l in enumerate(TEMPLATE_LABELS)},
        "name": "tri+tail",
    }))

    rc, report = cli_json([
        "search", str(graph_path), "--labels", str(labels_path),
        str(template_path), "-k", "1", "--trace", str(out_path),
        "--metrics-out", str(metrics_path), "--json",
    ])
    if rc != 0:
        print(f"traced search failed with exit code {rc}")
        return 1

    records = load_trace(out_path)
    names = {record["name"] for record in records}
    by_id = {record["span_id"]: record for record in records}
    problems = []
    for name, parent in EXPECTED_NESTING.items():
        if name not in names:
            problems.append(f"no '{name}' span in the trace")
            continue
        if parent is None:
            continue
        if not any(
            record["name"] == name
            and by_id.get(record["parent_id"], {}).get("name") == parent
            for record in records
        ):
            problems.append(f"no '{name}' span nested under '{parent}'")
    roots = [record for record in records if record["parent_id"] is None]
    if [record["name"] for record in roots] != ["pipeline"]:
        problems.append(
            f"expected a single 'pipeline' root, got "
            f"{[record['name'] for record in roots]}"
        )
    if not any(
        record["name"] == "round" and record["counters"].get("messages", 0) > 0
        for record in records
    ):
        problems.append("no 'round' span carries a positive message counter")

    snapshot = load_snapshot(metrics_path)
    counters = snapshot["counters"]
    for counter in ("fixpoint.rounds_dense", "engine.rounds_batched"):
        if counters.get(counter, 0) <= 0:
            problems.append(f"metrics snapshot has no '{counter}' counts")
    if derived_metrics(snapshot)["dense_round_fraction"] is None:
        problems.append("metrics snapshot derives no dense-round fraction")
    # which constraints ran is the plan's decision (ConstraintPlan.select):
    # the cyclic k = 0 prototype has pre-filters to decide on
    decided = [
        counters.get(f"plan.prefilters_{verdict}") for verdict in ("skipped", "kept")
    ]
    if None in decided or sum(decided) <= 0:
        problems.append(
            f"metrics snapshot reports no plan decision (skipped, kept = {decided})"
        )
    if not any(
        record["name"] == "prototype" and "plan_decision" in record["attrs"]
        for record in records
    ):
        problems.append("no 'prototype' span carries a plan_decision attribute")

    problems.extend(report_problems(report, records))
    problems.extend(batch_problems([
        "batch", str(graph_path), "--labels", str(labels_path),
        str(template_path), "-k", "1", "--json",
    ]))

    if problems:
        print("trace smoke FAILED:")
        for problem in problems:
            print(f"  {problem}")
        return 1

    print(f"trace smoke OK: {len(records)} spans, {len(names)} kinds -> "
          f"{out_path}; metrics snapshot -> {metrics_path}")
    print()
    print(render_report(records))
    print()
    print(render_metrics(snapshot))
    return 0


def cli_json(argv):
    """``repro argv``'s exit code and the JSON document it printed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli_main(argv)
    return rc, json.loads(stdout.getvalue()) if rc == 0 else None


def batch_problems(argv):
    """Where a pooled ``repro batch --json`` disagrees with the in-process
    one: each must carry the current schema and the same per-class
    messages."""
    problems = []
    messages = {}
    for workers in ("1", "2"):
        rc, document = cli_json(argv + ["--workers", workers])
        if rc != 0:
            return [f"batch with --workers {workers} exited with {rc}"]
        if document.get("schema") != SCHEMA:
            problems.append(
                f"batch document (--workers {workers}) schema is "
                f"{document.get('schema')!r}, not {SCHEMA}"
            )
        messages[workers] = {
            row["name"]: row["messages"] for row in document["per_class"]
        }
    if not messages["1"] or messages["1"] != messages["2"]:
        problems.append(
            f"per-class batch messages differ: in-process {messages['1']}, "
            f"--workers 2 {messages['2']}"
        )
    return problems


def span_total(record, counter, children_of) -> float:
    """``counter`` of a span: its own when it has one (counters are
    inclusive), else the sum of its children's."""
    if counter in record["counters"]:
        return record["counters"][counter]
    return sum(
        span_total(child, counter, children_of)
        for child in children_of.get(record["span_id"], ())
    )


def report_problems(report, records):
    """Where the run report (``--json``) and the trace disagree."""
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append(
            f"run report schema is {report.get('schema')!r}, not {SCHEMA}"
        )
    keys = ("distance", "prototypes", "union_vertices", "union_edges",
            "post_lcc_vertices", "post_lcc_edges")
    traced = sorted(
        tuple(row[key] for key in keys) for row in level_breakdown(records)
    )
    reported = sorted(
        tuple(level[key] for key in keys) for level in report["levels"]
    )
    if not traced or traced != reported:
        problems.append(
            f"per-level {keys} differ: trace {traced}, report {reported}"
        )
    children_of = {}
    for record in records:
        children_of.setdefault(record["parent_id"], []).append(record)
    (pipeline,) = children_of[None]
    messages = span_total(pipeline, "messages", children_of)
    if messages != report["messages"]["total_messages"]:
        problems.append(
            f"pipeline span counts {messages} messages, the report "
            f"{report['messages']['total_messages']}"
        )
    return problems


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=Path("trace.json"),
        help="where to leave the exported trace (default: ./trace.json)",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=Path("metrics.json"),
        help="where to leave the metrics snapshot (default: ./metrics.json)",
    )
    args = parser.parse_args(argv)
    return run(args.out, args.metrics_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
