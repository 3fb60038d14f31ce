"""Analysis utilities: memory model (Fig. 11), datasets table, reporting."""

from .audit import AuditReport, PrototypeAudit, audit_match_vectors, audit_result
from .datasets import dataset_row, datasets_table, standard_datasets
from .memory import (
    dynamic_state_bytes,
    memory_breakdown,
    relative_breakdown,
    static_state_bytes,
    topology_bytes,
)
from .report import (
    bar_chart,
    format_bytes,
    format_count,
    format_seconds,
    format_table,
    series,
    speedup,
)
from .runreport import (
    RunReport,
    constraint_breakdown,
    derived_metrics,
    level_table,
    load_report,
    phase_breakdown,
    render_report,
    span_tree_lines,
)

__all__ = [
    "AuditReport",
    "PrototypeAudit",
    "RunReport",
    "audit_match_vectors",
    "audit_result",
    "bar_chart",
    "constraint_breakdown",
    "dataset_row",
    "datasets_table",
    "derived_metrics",
    "dynamic_state_bytes",
    "format_bytes",
    "format_count",
    "format_seconds",
    "format_table",
    "level_table",
    "load_report",
    "memory_breakdown",
    "phase_breakdown",
    "relative_breakdown",
    "render_report",
    "series",
    "span_tree_lines",
    "speedup",
    "standard_datasets",
    "static_state_bytes",
    "topology_bytes",
]
