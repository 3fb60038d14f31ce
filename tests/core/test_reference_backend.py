"""Pinned message accounting of the ``reference`` backend.

The reference backend is the paper's visitor model — every active vertex
re-broadcasts every LCC round, one Python token per NLCC message, every
prototype checks its complete constraint list — and its counts back the
§5.7 message analysis (E10: naïve vs HGT on WDC-2).  These numbers are
exact: a change that moves them changes what that experiment measures,
so it must show up here and be re-pinned on purpose.
"""

import pytest

from repro.core import PipelineOptions, naive_search, run_pipeline
from repro.core.patterns import wdc2_template
from repro.graph.generators import plant_pattern, webgraph


def wdc2_case():
    """A 400-vertex WDC-like webgraph with three planted WDC-2 copies."""
    graph = webgraph(400, num_labels=40, seed=42, label_exponent=1.05)
    template = wdc2_template()
    labels = [template.label(v) for v in sorted(template.graph.vertices())]
    plant_pattern(graph, template.edges(), labels, copies=3, seed=7)
    return graph, template


#: (total_messages, remote_messages, total_visits, barriers)
PINNED = {
    "bottom-up": (53_533, 45_595, 63_839, 264),
    "naive": (93_250, 80_260, 105_006, 278),
}


@pytest.mark.parametrize(
    "mode, run", [("bottom-up", run_pipeline), ("naive", naive_search)]
)
def test_wdc2_counts_are_pinned(mode, run):
    graph, template = wdc2_case()
    result = run(
        graph, template, 2, PipelineOptions(num_ranks=8, backend="reference")
    )
    summary = result.message_summary
    assert (
        summary["total_messages"],
        summary["remote_messages"],
        summary["total_visits"],
        summary["barriers"],
    ) == PINNED[mode]
    assert len(result.match_vectors) == 77
    assert result.total_labels_generated() == 724
    assert result.stats_document()["backend"] == "reference"
    # the paper's complete constraint lists, nothing left out
    assert result.nlcc_totals()["constraints_skipped"] == 0
