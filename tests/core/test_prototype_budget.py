"""An exceeded prototype budget (``max_prototypes``) fails the run loudly.

Every driver raises :class:`PrototypeError` before it searches anything:
the bottom-up and exploratory sweeps, the unbatched motif census and the
checkpointed sweep — which must leave its checkpoint directory empty —
and ``repro search`` exits 2.  The batched census is the one caller that
recovers: a family tree over the budget is not shared, its root runs as
a standalone exact query, and the counts equal the unbudgeted census.
"""

import functools
import json

import pytest

import repro.cli as cli
from repro.core import (
    PipelineOptions,
    count_motifs,
    exploratory_search,
    motif_template,
    run_pipeline,
)
from repro.core.restart import run_pipeline_with_checkpoints
from repro.errors import PrototypeError
from repro.graph import io as graph_io
from repro.graph.generators import gnm_graph

#: the 4-clique motif has six prototypes within its maximal distance
BUDGET = 2
K = motif_template(4).max_meaningful_distance()


@pytest.fixture(scope="module")
def graph():
    return gnm_graph(40, 120, num_labels=1, seed=7)


def budgeted():
    return PipelineOptions(num_ranks=2, max_prototypes=BUDGET)


DRIVERS = {
    "run_pipeline": lambda graph, tmp_path: run_pipeline(
        graph, motif_template(4), K, budgeted()
    ),
    "exploratory_search": lambda graph, tmp_path: exploratory_search(
        graph, motif_template(4), max_k=K, options=budgeted()
    ),
    "count_motifs": lambda graph, tmp_path: count_motifs(
        graph, 4, options=budgeted(), batched=False
    ),
    "run_pipeline_with_checkpoints": lambda graph, tmp_path: (
        run_pipeline_with_checkpoints(
            graph, motif_template(4), K, tmp_path / "ckpt", budgeted()
        )
    ),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_driver_raises(graph, tmp_path, driver):
    with pytest.raises(PrototypeError, match="prototype budget exceeded"):
        DRIVERS[driver](graph, tmp_path)
    if driver == "run_pipeline_with_checkpoints":
        assert list((tmp_path / "ckpt").iterdir()) == []


def test_search_command_exits_2(graph, tmp_path, monkeypatch, capsys):
    graph_path, labels_path = tmp_path / "g.el", tmp_path / "g.labels"
    graph_io.write_edge_list(graph, graph_path)
    graph_io.write_labels(graph, labels_path)
    template = motif_template(4)
    template_path = tmp_path / "t.json"
    template_path.write_text(json.dumps({
        "edges": sorted(template.edges()),
        "labels": {str(v): template.label(v) for v in template.vertices()},
    }))
    monkeypatch.setattr(
        cli, "PipelineOptions",
        functools.partial(PipelineOptions, max_prototypes=BUDGET),
    )
    code = cli.main([
        "search", str(graph_path), "--labels", str(labels_path),
        str(template_path), "-k", str(K),
    ])
    assert code == 2
    assert "prototype budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [2, 5, 10, 200_000])
def test_batched_census_falls_back_to_standalone_roots(graph, budget):
    unbudgeted = count_motifs(
        graph, 4, options=PipelineOptions(num_ranks=2, max_prototypes=None),
        batched=True,
    )
    counts = count_motifs(
        graph, 4,
        options=PipelineOptions(num_ranks=2, max_prototypes=budget),
        batched=True,
    )
    # the clique's family tree (six prototypes) is shared only within
    # the budget; over it the clique runs as its own exact root, and the
    # sparser motifs as roots of whatever smaller trees still fit
    library = counts.batch.library
    clique = max(library.classes, key=lambda c: c.representative.num_edges)
    assert (clique.family is None) == (budget < 6)
    assert (len(counts.batch.class_results) == 1) == (budget >= 6)
    assert counts.noninduced == unbudgeted.noninduced
    assert counts.induced == unbudgeted.induced
    assert sum(counts.noninduced.values()) > 0
