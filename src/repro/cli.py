"""Command-line interface: ``python -m repro <command>``.

Gives downstream users file-based access to the pipeline without writing
Python:

* ``search``      — approximate matching on an edge-list graph with a JSON
  template, emitting per-vertex match vectors;
* ``explore``     — top-down exploratory search: relax the template until
  the first matches appear (§5.5's WDC-4 scenario);
* ``report``      — render a run's stats document (per-level sizes,
  messages, derived ratios, counter / gauge / histogram tables) and, from
  a trace, its span tree and per-phase / per-constraint breakdowns;
* ``audit``       — run a search and verify its 100% precision/recall
  against brute force (small graphs);
* ``lint``        — project-specific AST invariant checks (optional-int
  truthiness, options threading, tracer guards, hot-loop hygiene,
  batched template execution —
  docs/INTERNALS.md §10);
* ``analyze``     — interprocedural static analysis: the lint pass plus
  the call-graph / effects rules (resident immutability, dtype contract,
  options threading — docs/INTERNALS.md §14);
* ``batch``       — template-library batch search: several template JSON
  files run through one compiled library sharing kernels, prototypes,
  the ``M*`` traversal and auxiliary pruned views (docs/INTERNALS.md
  §12);
* ``motifs``      — 3/4/5-vertex motif census of an edge-list graph;
  ``--batched`` routes it through the batch executor;
* ``generate``    — write one of the synthetic datasets to disk;
* ``datasets``    — print the Table 1-style summary of the built-in datasets.

Every run command (``search``, ``explore``, ``batch``) writes the same two
artefacts: ``--json`` prints the run's stats document, ``--trace PATH``
writes a Chrome trace (Perfetto) carrying that document under
``otherData["stats"]``.  ``repro report`` reads either.

Template JSON format::

    {
      "edges": [[0, 1], [1, 2], [2, 0]],
      "labels": {"0": 5, "1": 6, "2": 7},
      "mandatory_edges": [[0, 1]],        // optional
      "name": "my-pattern"                // optional
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .analysis.audit import audit_result
from .analysis.datasets import datasets_table, standard_datasets
from .analysis.report import format_seconds, format_table
from .analysis.runreport import level_table, load_report, render_report
from .core import (
    PatternTemplate,
    PipelineOptions,
    count_motifs,
    exploratory_search,
    run_pipeline,
    stopping_distance,
)
from .errors import ReproError
from .graph import io as graph_io
from .runtime.trace import NULL_TRACER, Tracer


def _make_tracer(args: argparse.Namespace):
    """An enabled tracer when ``--trace`` was given, NULL_TRACER otherwise."""
    return Tracer() if getattr(args, "trace", None) else NULL_TRACER


def _write_trace(args: argparse.Namespace, tracer, document) -> None:
    """``--trace``: the Chrome trace, with the run's stats document."""
    if args.trace:
        tracer.write_chrome_trace(args.trace, stats=document)
        # stderr so `--json` stdout stays machine-parseable
        print(f"trace written to {args.trace}", file=sys.stderr)


def load_template(path: str) -> PatternTemplate:
    """Read a template from its JSON description."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    edges = [tuple(edge) for edge in document["edges"]]
    labels = {int(v): int(label) for v, label in document["labels"].items()}
    mandatory = [tuple(edge) for edge in document.get("mandatory_edges", [])]
    return PatternTemplate.from_edges(
        edges, labels, mandatory_edges=mandatory,
        name=document.get("name", "template"),
    )


def _add_common_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="edge-list file (u v per line)")
    parser.add_argument(
        "--labels", help="vertex-label file (vertex label per line)"
    )
    parser.add_argument(
        "--ranks", type=int, default=4, help="simulated MPI ranks (default 4)"
    )


def _add_artefact_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="print the run's stats document as JSON instead of tables",
    )
    parser.add_argument(
        "--trace",
        help="record a span trace: Chrome trace-event JSON for Perfetto, "
             "carrying the stats document (render with `repro report`)",
    )


def command_search(args: argparse.Namespace) -> int:
    graph = graph_io.read_edge_list(args.graph, args.labels)
    template = load_template(args.template)
    tracer = _make_tracer(args)
    options = PipelineOptions(
        num_ranks=args.ranks, count_matches=args.count, tracer=tracer,
    )
    result = run_pipeline(graph, template, args.k, options)
    document = result.stats_document()
    _write_trace(args, tracer, document)
    if args.json:
        print(json.dumps(document, indent=1))
        return 0

    print(f"prototypes: {len(result.prototype_set)} "
          f"{result.prototype_set.level_counts()}")
    print(f"matched vertices: {len(result.match_vectors)}; "
          f"labels: {result.total_labels_generated()}")
    if args.count:
        print(f"match mappings: {result.total_match_mappings()}")
    print(level_table(document["levels"]))
    if result.nlcc_cache_stats:
        cache = result.nlcc_cache_stats
        print(f"nlcc cache: {cache['hits']} hits, {cache['misses']} misses, "
              f"{cache['entries']} entries over {cache['constraints']} "
              f"constraints")
    print(f"simulated time: {format_seconds(result.total_simulated_seconds)}")

    if args.output:
        vectors = {
            "template": template.name,
            "k": result.k,
            "prototypes": {
                str(p.id): {"name": p.name, "distance": p.distance}
                for p in result.prototype_set
            },
            "match_vectors": {
                str(v): sorted(ids) for v, ids in result.match_vectors.items()
            },
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(vectors, handle, indent=1)
        print(f"match vectors written to {args.output}")
    return 0


def command_explore(args: argparse.Namespace) -> int:
    graph = graph_io.read_edge_list(args.graph, args.labels)
    template = load_template(args.template)
    tracer = _make_tracer(args)
    result = exploratory_search(
        graph, template, max_k=args.max_k,
        options=PipelineOptions(num_ranks=args.ranks, tracer=tracer),
    )
    document = result.stats_document()
    _write_trace(args, tracer, document)
    if args.json:
        print(json.dumps(document, indent=1))
        return 0
    stop = stopping_distance(result)
    print(level_table(document["levels"]))
    if stop is None:
        searched = result.levels[-1].distance if result.levels else 0
        print(f"no matches within k<={searched}")
    else:
        print(f"first matches at edit-distance k={stop}")
    return 0


def command_report(args: argparse.Namespace) -> int:
    try:
        report = load_report(args.file)
    except ValueError as error:  # json.JSONDecodeError is a ValueError
        print(f"error: cannot parse {args.file}: {error}", file=sys.stderr)
        return 2
    print(render_report(report, tree_depth=args.depth))
    return 0


def command_audit(args: argparse.Namespace) -> int:
    graph = graph_io.read_edge_list(args.graph, args.labels)
    template = load_template(args.template)
    result = run_pipeline(
        graph, template, args.k,
        PipelineOptions(num_ranks=args.ranks, count_matches=True),
    )
    report = audit_result(graph, result)
    rows = [
        [audit.name, f"{audit.vertex_precision:.3f}",
         f"{audit.vertex_recall:.3f}", audit.exact]
        for audit in report.prototypes
    ]
    print(format_table(["prototype", "precision", "recall", "exact"], rows))
    print(f"overall exact: {report.exact}")
    return 0 if report.exact else 1


def command_lint(args: argparse.Namespace) -> int:
    from .analysis.lint.runner import lint_from_args

    return lint_from_args(args)


def command_batch(args: argparse.Namespace) -> int:
    from .core import BatchQuery, run_batch

    graph = graph_io.read_edge_list(args.graph, args.labels)
    tracer = _make_tracer(args)
    options = PipelineOptions(
        num_ranks=args.ranks, count_matches=args.count, tracer=tracer,
    )
    queries = []
    for index, path in enumerate(args.templates):
        template = load_template(path)
        queries.append(BatchQuery(template, args.k, name=f"q{index}:{template.name}"))
    batch = run_batch(graph, queries, options)
    document = batch.stats_document()
    _write_trace(args, tracer, document)
    if args.json:
        print(json.dumps(document, indent=1))
        return 0

    rows = [
        [item.query.name, item.class_name,
         "yes" if item.absorbed else "no",
         len(item.matched_vertices),
         item.match_mappings if item.match_mappings is not None else "-"]
        for item in sorted(batch, key=lambda i: i.query.name)
    ]
    print(format_table(
        ["query", "class", "absorbed", "matched vertices", "mappings"], rows
    ))
    aux = document["aux_views"]
    print(f"classes: {document['classes']} over {document['queries']} queries; "
          f"root runs: {document['root_runs']}")
    print(f"M* memo: {document['mstar_memo']['hits']} hits, "
          f"{document['mstar_memo']['misses']} misses; "
          f"aux views: {aux['built']} built, {aux['reuse']} reused searches")
    schedule_rows = [
        [entry["name"], f"{entry['cost_estimate']:.3g}",
         format_seconds(entry["wall_seconds"])]
        for entry in document["schedule_costs"]
    ]
    if schedule_rows:
        print("schedule (estimate vs measured):")
        print(format_table(
            ["root job", "cost estimate", "wall"], schedule_rows
        ))
    return 0


def command_motifs(args: argparse.Namespace) -> int:
    graph = graph_io.read_edge_list(args.graph)
    # Motif counting is label-blind: normalize to a single label.
    for vertex in graph.vertices():
        graph.add_vertex(vertex, 0)
    counts = count_motifs(
        graph, args.size, PipelineOptions(num_ranks=args.ranks),
        batched=args.batched,
    )
    rows = [
        [proto.name, proto.num_edges,
         counts.noninduced[proto.id], counts.induced[proto.id]]
        for proto in sorted(counts.prototypes, key=lambda p: -p.num_edges)
    ]
    print(format_table(["motif", "edges", "non-induced", "induced"], rows))
    if counts.batch is not None:
        document = counts.batch.stats_document()
        aux = document["aux_views"]
        print(f"batched: {document['root_runs']} root run(s) for "
              f"{document['queries']} motifs; aux views {aux['built']} built, "
              f"{aux['reuse']} reused searches")
    return 0


def command_generate(args: argparse.Namespace) -> int:
    from .graph.generators import (
        imdb_graph,
        reddit_graph,
        rmat_graph,
        webgraph,
    )

    if args.dataset == "webgraph":
        graph = webgraph(args.size, seed=args.seed)
    elif args.dataset == "rmat":
        scale = max(4, args.size.bit_length())
        graph = rmat_graph(scale=scale, seed=args.seed)
    elif args.dataset == "reddit":
        graph = reddit_graph(num_authors=max(10, args.size // 7), seed=args.seed)
    elif args.dataset == "imdb":
        graph = imdb_graph(num_movies=max(10, args.size // 4), seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown dataset {args.dataset}")
    graph_io.write_edge_list(graph, args.output)
    graph_io.write_labels(graph, args.output + ".labels")
    print(f"{args.dataset}: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges -> {args.output}(.labels)")
    return 0


def command_datasets(args: argparse.Namespace) -> int:
    print(datasets_table(standard_datasets(seed=args.seed)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate pattern matching with precision and recall "
                    "guarantees (SIGMOD'20 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser("search", help="approximate matching")
    _add_common_graph_arguments(search)
    search.add_argument("template", help="template JSON file")
    search.add_argument("-k", type=int, default=1, help="edit distance")
    search.add_argument("--count", action="store_true", help="count matches")
    search.add_argument("--output", help="write match vectors as JSON")
    _add_artefact_arguments(search)
    search.set_defaults(func=command_search)

    explore = commands.add_parser(
        "explore", help="top-down exploratory search (relax until matches)"
    )
    _add_common_graph_arguments(explore)
    explore.add_argument("template", help="template JSON file")
    explore.add_argument("--max-k", type=int, default=None,
                         help="relaxation bound (default: until disconnect)")
    _add_artefact_arguments(explore)
    explore.set_defaults(func=command_explore)

    report = commands.add_parser(
        "report",
        help="render a run's stats document (--json) or trace (--trace)",
    )
    report.add_argument("file", help="a --json stats document or --trace file")
    report.add_argument("--depth", type=int, default=3,
                        help="span-tree display depth (default 3)")
    report.set_defaults(func=command_report)

    audit = commands.add_parser(
        "audit", help="verify precision/recall against brute force"
    )
    _add_common_graph_arguments(audit)
    audit.add_argument("template", help="template JSON file")
    audit.add_argument("-k", type=int, default=1, help="edit distance")
    audit.set_defaults(func=command_audit)

    lint = commands.add_parser(
        "lint",
        help="project-specific AST invariant checks (INTERNALS.md §10)",
    )
    from .analysis.lint.runner import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=command_lint)

    analyze = commands.add_parser(
        "analyze",
        help="interprocedural static analysis — call-graph / effects "
             "rules R10, R12, R13 on top of the lint pass (INTERNALS.md §14)",
    )
    add_lint_arguments(analyze)
    analyze.set_defaults(func=command_lint, deep=True)

    batch = commands.add_parser(
        "batch",
        help="template-library batch search (shared kernels/prototypes/"
             "M*/auxiliary views)",
    )
    _add_common_graph_arguments(batch)
    batch.add_argument(
        "templates", nargs="+", help="template JSON files (the library)"
    )
    batch.add_argument("-k", type=int, default=0,
                       help="edit distance for every query (default 0)")
    batch.add_argument("--count", action="store_true", help="count matches")
    _add_artefact_arguments(batch)
    batch.set_defaults(func=command_batch)

    motifs = commands.add_parser("motifs", help="motif census")
    _add_common_graph_arguments(motifs)
    motifs.add_argument("--size", type=int, default=3, choices=[3, 4, 5])
    motifs.add_argument(
        "--batched", action="store_true",
        help="route the census through the template-library batch "
             "executor (one clique-rooted run + auxiliary views)",
    )
    motifs.set_defaults(func=command_motifs)

    generate = commands.add_parser("generate", help="write a synthetic dataset")
    generate.add_argument(
        "dataset", choices=["webgraph", "rmat", "reddit", "imdb"]
    )
    generate.add_argument("output", help="edge-list output path")
    generate.add_argument("--size", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=command_generate)

    datasets = commands.add_parser("datasets", help="Table 1-style summary")
    datasets.add_argument("--seed", type=int, default=0)
    datasets.set_defaults(func=command_datasets)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
