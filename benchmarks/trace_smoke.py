"""CI smoke check for the tracing layer.

Runs a small traced ``repro search`` through the real CLI, asserts the
exported Chrome trace parses and contains the expected span taxonomy
(``pipeline`` → ``level`` → ``prototype`` → ``lcc``/``nlcc`` → ``round``),
then renders the ``repro trace`` report.  The same run also exports the
always-on metrics snapshot via ``--metrics-out``, which is sanity-checked
(the fixpoint counters must be populated, the plan's pre-filter decision
reported) and rendered through ``repro metrics``.  Both files are left
on disk so CI can upload them as build artifacts.

Run from the repo root::

    PYTHONPATH=src python benchmarks/trace_smoke.py \
        [--out trace.json] [--metrics-out metrics.json]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.analysis.metricsreport import derived_metrics, load_snapshot
from repro.analysis.metricsreport import render_report as render_metrics
from repro.analysis.tracereport import load_trace, render_report
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

    rc = cli_main([
        "search", str(graph_path), "--labels", str(labels_path),
        str(template_path), "-k", "1", "--trace", str(out_path),
        "--metrics-out", str(metrics_path),
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
