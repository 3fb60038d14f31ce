"""CI smoke check for the tracing layer.

Runs a small traced ``repro search --trace out.json --json`` through the
real CLI and loads the one file it writes the way ``repro report`` does.
The trace must parse, carry the expected span taxonomy (``pipeline`` →
``level`` → ``prototype`` → ``lcc``/``nlcc`` → ``round``) under a single
``pipeline`` root as recorded, and carry the run's stats document
(``otherData["stats"]``) equal to the one ``--json`` printed.  That
document is sanity-checked (the schema of ``repro.core.results.SCHEMA``,
populated fixpoint counters, a dense-round fraction, the plan's
pre-filter decision) and must agree with the spans: each ``level`` span's
own counters equal the document's per-level counts, the ``pipeline``
span's messages equal the document's, and the ``round`` spans under
``lcc`` / ``max_candidate_set`` number exactly the fixpoint rounds the
document counts (``fixpoint.rounds_dense`` + ``fixpoint.rounds_sparse``).  Then ``repro batch --json`` runs
on the same graph: its document must carry that schema and every class
its root pipeline's messages.  A second
traced search runs on a graph where under 60 % of the vertices carry a
template label, so ``M*`` runs on the label view: its document's
``scope_view`` must be set and no larger than the label-eligible count
of the label file, equal ``--json``'s, and render.  ``repro audit`` then
checks the pipeline on both graphs against brute force at k = 1 and must
exit 0 (precision, recall and match counts exact): the tail makes the
template non-Eulerian, so its full walk walks an edge back and takes the
retrace path of the array token walk.  ``repro motifs --size 4`` runs on
the first graph with and without ``--batched``: both must exit 0 and
print the same count table.  ``repro explore --json`` runs on the first
graph with the template closed by one more edge and its tail mandatory:
it must exit 0 with the schema, and each level it searched must count
the prototypes ``generate_prototypes`` puts at that distance.  Last,
``repro report`` renders the first trace.  The trace is left on disk so
CI can upload it as a build artifact.

Run from the repo root::

    PYTHONPATH=src python benchmarks/trace_smoke.py [--out trace.json]
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.analysis.runreport import derived_metrics, load_report
from repro.core import PatternTemplate, generate_prototypes
from repro.core.results import SCHEMA
from repro.graph import io as graph_io
from repro.graph.generators import planted_graph

TEMPLATE_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
TEMPLATE_LABELS = [1, 2, 3, 4]

#: the exploratory search's template: the planted one plus the edge
#: (0, 3), which the planted copies lack, so k = 0 finds nothing and the
#: search relaxes; the tail (2, 3) is mandatory
EXPLORE_EDGES = TEMPLATE_EDGES + [(0, 3)]
EXPLORE_MANDATORY = [(2, 3)]

#: background labels of the sparse-label graph: 40 % of its vertices
#: carry a template label (the first graph's default gives 86 %)
SPARSE_NUM_LABELS = 12

#: the registry counter each ``level`` span carries for the report's
#: per-level ``prototypes``, ``union_*`` and ``post_lcc_*``, in that order
LEVEL_COUNTERS = (
    "level.prototypes", "level.union_vertices", "level.union_edges",
    "search.post_lcc_vertices", "search.post_lcc_edges",
)

#: the phase spans the array fixpoint's 'round' spans hang under
FIXPOINT_PHASES = ("lcc", "max_candidate_set")

#: spans the exported trace must contain, with the parent each must have
EXPECTED_NESTING = {
    "pipeline": None,
    "level": "pipeline",
    "prototype": "level",
    "lcc": "prototype",
    "nlcc": "prototype",
    "round": None,  # rounds appear under lcc / nlcc / max_candidate_set
}


def write_graph(workdir: Path, stem: str, **planted):
    """A planted copy of the template as ``stem.edges`` + ``stem.labels``."""
    graph = planted_graph(
        60, 150, TEMPLATE_EDGES, TEMPLATE_LABELS, copies=3, seed=11, **planted
    )
    graph_path = workdir / f"{stem}.edges"
    labels_path = workdir / f"{stem}.labels"
    graph_io.write_edge_list(graph, graph_path)
    graph_io.write_labels(graph, labels_path)
    return graph_path, labels_path


def run(out_path: Path) -> int:
    """The smoke check; its inputs live in a directory removed on return."""
    with tempfile.TemporaryDirectory(prefix="trace_smoke_") as workdir:
        return check(Path(workdir), out_path)


def check(workdir: Path, out_path: Path) -> int:
    graph_path, labels_path = write_graph(workdir, "graph")
    template_path = workdir / "template.json"
    template_path.write_text(json.dumps({
        "edges": [list(edge) for edge in TEMPLATE_EDGES],
        "labels": {str(i): l for i, l in enumerate(TEMPLATE_LABELS)},
        "name": "tri+tail",
    }))

    rc, report = cli_json([
        "search", str(graph_path), "--labels", str(labels_path),
        str(template_path), "-k", "1", "--trace", str(out_path), "--json",
    ])
    if rc != 0:
        print(f"traced search failed with exit code {rc}")
        return 1

    document, records = load_report(out_path)
    names = {record["name"] for record in records}
    by_id = {record["span_id"]: record for record in records}
    problems = []
    if document != report:
        problems.append("the trace's stats document differs from --json's")
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

    snapshot = document.get("metrics", {})
    counters = snapshot.get("counters", {})
    for counter in ("fixpoint.rounds_dense", "engine.rounds_batched"):
        if counters.get(counter, 0) <= 0:
            problems.append(f"stats document has no '{counter}' counts")
    # a fixpoint folds its rounds' traffic once per call and emits their
    # spans then: one 'round' span per round, each under its phase's span
    fixpoint_spans = sum(
        1 for record in records
        if record["name"] == "round"
        and by_id.get(record["parent_id"], {}).get("name")
        in FIXPOINT_PHASES
    )
    fixpoint_rounds = sum(
        counters.get(f"fixpoint.rounds_{kind}", 0)
        for kind in ("dense", "sparse")
    )
    if fixpoint_spans != fixpoint_rounds:
        problems.append(
            f"{fixpoint_spans} 'round' spans under "
            f"{'/'.join(FIXPOINT_PHASES)}, but the stats document counts "
            f"{fixpoint_rounds:g} fixpoint rounds"
        )
    if derived_metrics(snapshot)["dense_round_fraction"] is None:
        problems.append("stats document derives no dense-round fraction")
    # which constraints ran is the plan's decision (ConstraintPlan.select):
    # the cyclic k = 0 prototype has pre-filters to decide on
    decided = [
        counters.get(f"plan.prefilters_{verdict}") for verdict in ("skipped", "kept")
    ]
    if None in decided or sum(decided) <= 0:
        problems.append(
            f"stats document reports no plan decision (skipped, kept = {decided})"
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
    sparse_path, sparse_labels_path = write_graph(
        workdir, "sparse", num_labels=SPARSE_NUM_LABELS
    )
    problems.extend(label_view_problems(
        workdir, sparse_path, sparse_labels_path, template_path
    ))
    for edges, labels in (
        (graph_path, labels_path), (sparse_path, sparse_labels_path),
    ):
        problems.extend(audit_problems(edges, labels, template_path))
    problems.extend(motif_problems(graph_path))
    problems.extend(explore_problems(workdir, graph_path, labels_path))

    if problems:
        print("trace smoke FAILED:")
        for problem in problems:
            print(f"  {problem}")
        return 1

    print(f"trace smoke OK: {len(records)} spans, {len(names)} kinds -> "
          f"{out_path}")
    print()
    return cli_main(["report", str(out_path)])


def cli_json(argv):
    """``repro argv``'s exit code and the JSON document it printed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli_main(argv)
    return rc, json.loads(stdout.getvalue()) if rc == 0 else None


def audit_problems(graph_path: Path, labels_path: Path, template_path: Path):
    """Where ``repro audit`` at k = 1 finds the run inexact."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main([
            "audit", str(graph_path), "--labels", str(labels_path),
            str(template_path), "-k", "1",
        ])
    if rc != 0:
        return [f"repro audit on {graph_path.name} exited with {rc}"]
    return []


def explore_problems(workdir: Path, graph_path: Path, labels_path: Path):
    """Where ``repro explore --json`` fails, misses the schema, or counts
    a searched level's prototypes differently from the prototype tree."""
    template_path = workdir / "explore.json"
    template_path.write_text(json.dumps({
        "edges": [list(edge) for edge in EXPLORE_EDGES],
        "labels": {str(i): l for i, l in enumerate(TEMPLATE_LABELS)},
        "mandatory_edges": [list(edge) for edge in EXPLORE_MANDATORY],
        "name": "tri+tail+chord",
    }))
    rc, document = cli_json([
        "explore", str(graph_path), "--labels", str(labels_path),
        str(template_path), "--json",
    ])
    if rc != 0:
        return [f"repro explore exited with {rc}"]
    problems = []
    if document.get("schema") != SCHEMA:
        problems.append(
            f"explore document schema is {document.get('schema')!r}, "
            f"not {SCHEMA}"
        )
    template = PatternTemplate.from_edges(
        EXPLORE_EDGES, dict(enumerate(TEMPLATE_LABELS)),
        mandatory_edges=EXPLORE_MANDATORY,
    )
    expected = generate_prototypes(template, document["k"]).level_counts()
    searched = [level["prototypes"] for level in document["levels"]]
    if len(searched) < 2 or searched != expected[: len(searched)]:
        problems.append(
            f"explore searched levels with {searched} prototypes; the tree "
            f"counts {expected}"
        )
    return problems


def motif_problems(graph_path: Path):
    """Where the batched 4-motif census through the CLI differs from the
    single-pipeline one: both must exit 0 with the same count table."""
    tables = {}
    for flags in ((), ("--batched",)):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli_main(["motifs", str(graph_path), "--size", "4", *flags])
        if rc != 0:
            return [f"repro motifs {' '.join(flags)} exited with {rc}"]
        # the batched run adds one 'batched: ...' summary line
        tables[flags] = [
            line for line in stdout.getvalue().splitlines()
            if not line.startswith("batched:")
        ]
    plain, batched = tables.values()
    if not plain or plain != batched:
        return [f"repro motifs count tables differ: {plain} vs {batched}"]
    return []


def label_view_problems(
    workdir: Path, graph_path: Path, labels_path: Path, template_path: Path
):
    """Where a traced search on the sparse-label graph does not report
    the label view ``M*`` ran on."""
    labels = graph_io.read_label_file(labels_path)
    eligible = sum(label in TEMPLATE_LABELS for label in labels.values())
    if eligible >= 0.6 * len(labels):
        return [f"the sparse-label graph has {eligible} of {len(labels)} "
                f"vertices label-eligible"]
    trace_path = workdir / "sparse_trace.json"
    rc, report = cli_json([
        "search", str(graph_path), "--labels", str(labels_path),
        str(template_path), "-k", "1", "--trace", str(trace_path), "--json",
    ])
    if rc != 0:
        return [f"traced search on the sparse-label graph exited with {rc}"]
    problems = []
    document, _records = load_report(trace_path)
    if document != report:
        problems.append(
            "the sparse-label trace's stats document differs from --json's"
        )
    view = report.get("scope_view")
    if view is None or view[0] > eligible:
        problems.append(
            f"sparse-label scope_view {view} is not a view of at most the "
            f"{eligible} label-eligible vertices"
        )
    rendered = io.StringIO()
    with contextlib.redirect_stdout(rendered):
        rc = cli_main(["report", str(trace_path)])
    if rc != 0 or not rendered.getvalue():
        problems.append(f"repro report on the sparse-label trace exited {rc}")
    return problems


def batch_problems(argv):
    """Where a ``repro batch --json`` document is off: it must carry the
    current schema, for every class its root pipeline's messages, and the
    shape memo's lookups (``cache.shape.*``: the batch searches
    prototypes, so a zero means the counters stopped reaching the CLI)."""
    rc, document = cli_json(argv)
    if rc != 0:
        return [f"batch exited with {rc}"]
    problems = []
    if document.get("schema") != SCHEMA:
        problems.append(
            f"batch document schema is {document.get('schema')!r}, "
            f"not {SCHEMA}"
        )
    messages = {row["name"]: row["messages"] for row in document["per_class"]}
    if not messages or not all(count > 0 for count in messages.values()):
        problems.append(f"per-class batch messages are missing: {messages}")
    counters = document.get("metrics", {}).get("counters", {})
    shape_lookups = sum(
        counters.get(f"cache.shape.{kind}", 0) for kind in ("hits", "misses")
    )
    if shape_lookups <= 0:
        problems.append("batch document counts no cache.shape.* lookups")
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
        (record["attrs"].get("distance"),)
        + tuple(record["counters"].get(counter, 0) for counter in LEVEL_COUNTERS)
        for record in records
        if record["name"] == "level"
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
    args = parser.parse_args(argv)
    return run(args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
