#!/usr/bin/env python
"""Motif counting (§5.6): a 3- and 4-vertex motif census of a graph.

The paper maps motif counting onto the approximate-matching pipeline:
the maximal-edge motif (the s-clique, unlabeled) is the template, the
remaining motifs are its prototypes, and the pipeline counts matches for
all of them in one run.  This example runs the census on a scale-free
graph and cross-checks against the Arabesque-style embedding-expansion
baseline.

Run:  python examples/motif_census.py
"""

from repro import PipelineOptions
from repro.analysis import format_count, format_seconds, format_table
from repro.baselines import arabesque_count_motifs
from repro.core import count_motifs
from repro.graph.generators import gnm_graph
from repro.graph.isomorphism import canonical_form


def main() -> None:
    graph = gnm_graph(500, 1200, num_labels=1, seed=17)
    print(f"Graph: {graph.num_vertices} vertices, {graph.num_edges} edges "
          f"(unlabeled)")

    for size in (3, 4):
        counts = count_motifs(
            graph, size,
            PipelineOptions(num_ranks=4, enumeration_optimization=True),
        )
        reference = arabesque_count_motifs(graph, size, num_ranks=4)
        ref_by_form = dict(reference.counts)

        rows = []
        for proto in sorted(counts.prototypes, key=lambda p: -p.num_edges):
            form = canonical_form(proto.graph)
            rows.append([
                proto.name,
                proto.num_edges,
                format_count(counts.noninduced[proto.id]),
                format_count(counts.induced[proto.id]),
                format_count(ref_by_form.get(form, 0)),
            ])
        print(f"\n{size}-vertex motifs ({len(counts.prototypes)} kinds):")
        print(format_table(
            ["motif", "edges", "non-induced", "induced", "arabesque"], rows
        ))
        agreement = counts.total_induced() == reference.total_embeddings()
        print(f"Totals agree with the TLE baseline: {agreement}")
        print(f"HGT simulated time: "
              f"{format_seconds(counts.result.total_simulated_seconds)}; "
              f"Arabesque simulated time: "
              f"{format_seconds(reference.simulated_seconds)}")


if __name__ == "__main__":
    main()
