"""The naïve baseline (§5.3).

The naïve approach "generates all prototypes and searches them
independently in the background graph": no maximum candidate set, no
containment rule, no work recycling, no constraint or prototype ordering,
no load balancing.  Each prototype still uses the exact constraint-checking
search (so the comparison isolates the *pipeline* optimizations, exactly as
the paper's comparison does).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..graph.graph import Graph
from .pipeline import PipelineOptions, PipelineResult, run_pipeline
from .template import PatternTemplate


def naive_options(base: Optional[PipelineOptions] = None) -> PipelineOptions:
    """Options describing the naïve baseline (derived from ``base``)."""
    base = base or PipelineOptions()
    return dataclasses.replace(
        base,
        search_space_reduction=False,
        work_recycling=False,
        constraint_ordering=False,
        prototype_ordering=False,
        enumeration_optimization=False,
        reload_ranks=None,
        parallel_deployments=1,
    )


def naive_search(
    graph: Graph,
    template: PatternTemplate,
    k: int,
    options: Optional[PipelineOptions] = None,
) -> PipelineResult:
    """Run the naïve baseline; results are identical, costs are not."""
    return run_pipeline(graph, template, k, options=naive_options(options))
