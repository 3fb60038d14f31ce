"""repro — Approximate pattern matching in massive graphs (SIGMOD'20).

A from-scratch Python reproduction of Reza et al., *Approximate Pattern
Matching in Massive Graphs with Precision and Recall Guarantees*
(SIGMOD 2020): edit-distance prototype generation, constraint-checking
based exact matching (local + non-local token walks), the bottom-up
approximate matching pipeline with search-space reduction and redundant
work elimination, a simulated HavoqGT-style distributed runtime, and the
evaluation harness reproducing every table and figure of the paper.

Quickstart::

    from repro import PatternTemplate, PipelineOptions, run_pipeline
    from repro.graph.generators import webgraph

    graph = webgraph(2000, seed=7)
    template = PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3)],
        labels={0: 1, 1: 3, 2: 0, 3: 7},
        name="demo",
    )
    result = run_pipeline(graph, template, k=1, options=PipelineOptions())
    print(result.total_labels_generated(), "vertex/prototype labels")
"""

from . import analysis, baselines, core, graph, runtime
from .core import (
    PatternTemplate,
    PipelineOptions,
    PipelineResult,
    PrototypeSet,
    count_motifs,
    exploratory_search,
    generate_prototypes,
    naive_search,
    run_pipeline,
)
from .errors import (
    CheckpointError,
    ConstraintError,
    EngineError,
    GraphError,
    MemoryLimitExceeded,
    PartitionError,
    PipelineError,
    PrototypeError,
    ReproError,
    TemplateError,
)
from .graph import Graph

__version__ = "1.0.0"

__all__ = [
    "CheckpointError",
    "ConstraintError",
    "EngineError",
    "Graph",
    "GraphError",
    "MemoryLimitExceeded",
    "PartitionError",
    "PatternTemplate",
    "PipelineError",
    "PipelineOptions",
    "PipelineResult",
    "PrototypeError",
    "PrototypeSet",
    "ReproError",
    "TemplateError",
    "analysis",
    "baselines",
    "core",
    "count_motifs",
    "exploratory_search",
    "generate_prototypes",
    "graph",
    "naive_search",
    "run_pipeline",
    "runtime",
    "__version__",
]
