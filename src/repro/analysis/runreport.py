"""The run report behind ``repro report``: one loader, one renderer.

A run leaves one artefact, its stats document
(:meth:`repro.core.results.PipelineResult.stats_document`, printed by
``--json``).  A traced run (``--trace PATH``) writes a Chrome trace-event
file that carries the same document under ``otherData["stats"]`` beside
its spans.  :func:`load_report` reads either, telling them apart by
content, and :func:`render_report` renders

* from the document: the per-level table (Figs. 6/8) read from
  ``levels``, the message accounting (§5.7) from ``messages``, and the
  derived ratios plus the counter, gauge and histogram tables from
  ``metrics``;
* from the spans, when there are any: the span tree and the per-phase and
  per-constraint (Fig. 10) tables.

Span records keep the tracer's ``span_id``/``parent_id``, so the tree is
the one the run recorded.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional

from .report import format_seconds, format_table

__all__ = [
    "RunReport",
    "constraint_breakdown",
    "derived_metrics",
    "level_table",
    "load_report",
    "phase_breakdown",
    "render_report",
    "span_tree_lines",
]

#: per-constraint table column -> ``nlcc`` span counter (registry window
#: or phase traffic), in display order
_CONSTRAINT_COUNTERS = {
    "cache_hits": "cache.nlcc.hits",
    "tokens_launched": "nlcc.tokens_launched",
    "completions": "nlcc.completions",
    "eliminated_roles": "nlcc.roles_eliminated",
    "messages": "messages",
}


class RunReport(NamedTuple):
    """What one run artefact holds."""

    #: the stats document; empty for a trace written without one
    document: Dict[str, object]
    #: flat span records in preorder (``span_id``, ``parent_id``,
    #: ``name``, ``depth``, ``ts``/``dur`` in seconds, ``attrs``,
    #: ``counters``); empty for a ``--json`` document
    spans: List[Dict[str, object]]


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
#: the shape of what the report reads: ``float`` is any number, a list
#: an array of items of its one shape, a dict an object whose listed keys
#: (``"*"``: every key not listed) have theirs; other keys are not read
_DOCUMENT = {
    "levels": [{"*": float}],
    "messages": {"phases": {"*": {"*": float}}, "*": float},
    "metrics": {
        "counters": {"*": float},
        "gauges": {"*": float},
        "histograms": {"*": {"buckets": [float], "*": float}},
    },
}
_EVENT = {
    "ts": float,
    "dur": float,
    "args": {"attrs": {}, "counters": {"*": float}},
}


def load_report(path) -> RunReport:
    """Read a ``--json`` stats document or a ``--trace`` file.

    Raises :class:`ValueError` (``json.JSONDecodeError`` is one) for
    anything else: text that is not JSON, JSON that is not an object, an
    object that is neither a stats document (it has ``"schema"``) nor a
    trace (it has ``"traceEvents"``), and counts that are not numbers.
    """
    with open(path, "r", encoding="utf-8") as handle:
        content = json.load(handle)
    _check(content, {}, "file")
    if "traceEvents" in content:
        _check(content, {"traceEvents": [_EVENT], "otherData": {
            "stats": _DOCUMENT,
        }}, "trace")
        document = content.get("otherData", {}).get("stats", {})
        return RunReport(document, _spans(content["traceEvents"]))
    if "schema" in content:
        _check(content, _DOCUMENT, "document")
        return RunReport(content, [])
    raise ValueError("neither a stats document nor a trace")


def _check(value, shape, where: str) -> None:
    """Raise :class:`ValueError` unless ``value`` has ``shape``."""
    if shape is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where}: {value!r} is not a number")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise ValueError(f"{where} is not a JSON array")
        for index, item in enumerate(value):
            _check(item, shape[0], f"{where}[{index}]")
    else:
        if not isinstance(value, dict):
            raise ValueError(f"{where} is not a JSON object")
        for key, item in value.items():
            if key in shape or "*" in shape:
                _check(item, shape.get(key, shape.get("*")), f"{where}.{key}")


def _spans(events) -> List[Dict[str, object]]:
    """Chrome complete events as flat span records, with depths."""
    records: List[Dict[str, object]] = []
    depths: Dict[object, int] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        span_id, parent_id = args.get("span_id"), args.get("parent_id")
        if not all(i is None or type(i) is int for i in (span_id, parent_id)):
            raise ValueError(f"span ids {span_id!r}, {parent_id!r} are not integers")
        depth = depths.get(parent_id, -1) + 1 if parent_id is not None else 0
        depths[span_id] = depth
        records.append({
            "span_id": span_id,
            "parent_id": parent_id,
            "name": str(event.get("name", "?")),
            "depth": depth,
            "ts": event.get("ts", 0.0) / 1e6,
            "dur": event.get("dur", 0.0) / 1e6,
            "attrs": args.get("attrs", {}),
            "counters": args.get("counters", {}),
        })
    return records


# ----------------------------------------------------------------------
# Span aggregations
# ----------------------------------------------------------------------
def _children_index(records) -> Dict[object, List[Dict[str, object]]]:
    children: Dict[object, List[Dict[str, object]]] = {}
    for record in records:
        children.setdefault(record.get("parent_id"), []).append(record)
    return children


def _self_seconds(record, children_of) -> float:
    kids = children_of.get(record.get("span_id"), ())
    return max(record["dur"] - sum(c["dur"] for c in kids), 0.0)


def phase_breakdown(records) -> List[Dict[str, object]]:
    """Aggregate spans by name: count, total/self seconds, counters.

    Sorted by total seconds descending.  ``total_s`` double-counts
    nesting by construction (a ``prototype`` span contains its ``lcc``
    spans); ``self_s`` is exclusive time and sums to the root duration.
    """
    children_of = _children_index(records)
    buckets: Dict[str, Dict[str, object]] = {}
    for record in records:
        bucket = buckets.setdefault(record["name"], {
            "name": record["name"], "count": 0,
            "total_s": 0.0, "self_s": 0.0, "counters": {},
        })
        bucket["count"] += 1
        bucket["total_s"] += record["dur"]
        bucket["self_s"] += _self_seconds(record, children_of)
        counters = bucket["counters"]
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return sorted(buckets.values(), key=lambda b: -b["total_s"])


def constraint_breakdown(records) -> List[Dict[str, object]]:
    """Per-constraint attribution over all ``nlcc`` spans.

    Groups by (kind, source role, walk length) — one row per distinct
    non-local constraint shape, summed across prototypes and levels,
    sorted by time descending.  This is the table that shows which
    constraint the search spent its pruning budget on.  ``checked``
    initiators are the launched tokens plus the cache hits.
    """
    buckets: Dict[tuple, Dict[str, object]] = {}
    for record in records:
        if record["name"] != "nlcc":
            continue
        attrs = record["attrs"]
        key = (
            attrs.get("kind", "?"), attrs.get("source"),
            attrs.get("walk_length"),
        )
        bucket = buckets.setdefault(key, {
            "kind": key[0], "source": key[1], "walk_length": key[2],
            "count": 0, "total_s": 0.0,
            **{column: 0 for column in _CONSTRAINT_COUNTERS},
        })
        bucket["count"] += 1
        bucket["total_s"] += record["dur"]
        for column, counter in _CONSTRAINT_COUNTERS.items():
            bucket[column] += record["counters"].get(counter, 0)
    for bucket in buckets.values():
        bucket["checked"] = bucket["tokens_launched"] + bucket["cache_hits"]
    return sorted(buckets.values(), key=lambda b: -b["total_s"])


def span_tree_lines(
    records, max_depth: Optional[int] = 3
) -> List[str]:
    """Indented span-tree summary lines (topology sanity view)."""
    lines = []
    for record in records:
        depth = record["depth"]
        if max_depth is not None and depth > max_depth:
            continue
        attrs = record["attrs"]
        detail = ", ".join(
            f"{k}={v}" for k, v in attrs.items() if k in (
                "template", "k", "mode", "distance", "label", "kind",
            )
        )
        lines.append(
            "  " * depth
            + f"{record['name']}"
            + (f" [{detail}]" if detail else "")
            + f"  {format_seconds(record['dur'])}"
        )
    return lines


# ----------------------------------------------------------------------
# Document sections
# ----------------------------------------------------------------------
def level_table(levels) -> str:
    """The per-level table (Figs. 6/8) of a document's ``levels``, in the
    order the sweep ran them."""
    rows = [
        [
            level.get("distance"), level.get("prototypes", 0),
            f"{level.get('union_vertices', 0)}/{level.get('union_edges', 0)}",
            f"{level.get('post_lcc_vertices', 0)}/"
            f"{level.get('post_lcc_edges', 0)}",
            level.get("nlcc_tokens_launched", 0),
            level.get("nlcc_completions", 0),
            format_seconds(level.get("wall_seconds", 0.0)),
        ]
        for level in levels
    ]
    return format_table(
        ["k", "prototypes", "union v/e", "post-LCC v/e", "tokens",
         "completions", "wall"], rows
    )


def _message_table(messages) -> str:
    phases = messages.get("phases", {})
    rows = [
        [name, traffic.get("messages", 0), traffic.get("remote_messages", 0),
         traffic.get("visits", 0)]
        for name, traffic in phases.items()
    ]
    rows.append([
        "total", messages.get("total_messages", 0),
        messages.get("remote_messages", 0), messages.get("total_visits", 0),
    ])
    return (
        format_table(["phase", "messages", "remote", "visits"], rows)
        + f"\nsupersteps: {messages.get('barriers', 0)}"
    )


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator > 0 else None


def derived_metrics(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The headline ratios computed from a metrics snapshot.

    Every value is ``None`` when its inputs were never recorded, so a
    consumer can tell "measured as zero" apart from "not applicable".
    """
    counters: Dict[str, float] = snapshot.get("counters", {})  # type: ignore[assignment]

    def hit_ratio(cache: str) -> Optional[float]:
        hits = counters.get(f"cache.{cache}.hits", 0.0)
        return _ratio(hits, hits + counters.get(f"cache.{cache}.misses", 0.0))

    dense = counters.get("fixpoint.rounds_dense", 0.0)
    return {
        "nlcc_cache_hit_ratio": hit_ratio("nlcc"),
        "mstar_memo_hit_ratio": hit_ratio("mstar_memo"),
        "kernel_cache_hit_ratio": hit_ratio("kernel"),
        "label_view_hit_ratio": hit_ratio("label_view"),
        "shape_hit_ratio": hit_ratio("shape"),
        "dense_round_fraction": _ratio(
            dense, dense + counters.get("fixpoint.rounds_sparse", 0.0)
        ),
        "adaptive_dense_rounds": counters.get(
            "fixpoint.rounds_adaptive_dense", 0.0
        ),
        "mean_worklist_density": _ratio(
            counters.get("fixpoint.worklist_vertices", 0.0),
            counters.get("fixpoint.active_vertices", 0.0),
        ),
    }


def _format_value(name: str, value: float) -> str:
    if name.endswith("_seconds"):
        return format_seconds(value)
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def _bucket_bound(index: int, buckets: int) -> str:
    """Upper bound of log2 bucket ``index`` (the last bucket is open)."""
    if index >= buckets - 1:
        return "+Inf"
    return str(1 << index) if index > 0 else "0"


def _histogram_rows(histograms) -> List[List[object]]:
    rows: List[List[object]] = []
    for name in sorted(histograms):
        histogram = histograms[name]
        count = int(histogram.get("count", 0))
        buckets = histogram.get("buckets", [])
        top = "-"
        if count and any(buckets):
            top_index = max(index for index, c in enumerate(buckets) if c)
            top = f"<={_bucket_bound(top_index, len(buckets))}"
        mean = histogram.get("sum", 0.0) / count if count else 0.0
        rows.append([
            name, count,
            format_seconds(mean) if name.endswith("_seconds") else f"{mean:.4g}",
            top,
        ])
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_report(report: RunReport, tree_depth: Optional[int] = 3) -> str:
    """The ``repro report`` text: every section the artefact has data for."""
    document, spans = report
    sections = []
    if document.get("levels"):
        sections.append(("per-level breakdown", level_table(document["levels"])))
    if document.get("messages"):
        sections.append(("messages", _message_table(document["messages"])))

    if spans:
        sections.append((
            f"span tree (to depth {tree_depth})",
            "\n".join(span_tree_lines(spans, tree_depth)),
        ))
        rows = [
            [
                bucket["name"], bucket["count"],
                format_seconds(bucket["total_s"]),
                format_seconds(bucket["self_s"]),
                int(bucket["counters"].get("messages", 0)),
                int(bucket["counters"].get("remote_messages", 0)),
            ]
            for bucket in phase_breakdown(spans)
        ]
        sections.append(("per-phase breakdown", format_table(
            ["phase", "spans", "total", "self", "messages", "remote"], rows
        )))
        rows = [
            [
                f"{b['kind']}(src={b['source']}, len={b['walk_length']})",
                b["count"], format_seconds(b["total_s"]),
                int(b["checked"]), int(b["cache_hits"]),
                int(b["tokens_launched"]), int(b["completions"]),
                int(b["eliminated_roles"]), int(b["messages"]),
            ]
            for b in constraint_breakdown(spans)
        ]
        if rows:
            sections.append(("per-constraint breakdown (NLCC)", format_table(
                ["constraint", "runs", "time", "checked", "cache hits",
                 "tokens", "completions", "eliminated", "messages"], rows
            )))

    metrics = document.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    if counters or gauges or histograms:
        rows = [
            [name, "-" if value is None else _format_value(name, float(value))]
            for name, value in sorted(derived_metrics(metrics).items())
            if not (value is None and name.endswith("_ratio"))
        ]
        sections.append(("derived", format_table(["metric", "value"], rows)))
    for title, header, values in (
        ("counters", "total", counters), ("gauges", "value", gauges),
    ):
        if values:
            rows = [
                [name, _format_value(name, value)]
                for name, value in sorted(values.items())
            ]
            sections.append((title, format_table([title[:-1], header], rows)))
    if histograms:
        sections.append(("histograms", format_table(
            ["histogram", "observations", "mean", "max bucket"],
            _histogram_rows(histograms),
        )))

    if not sections:
        return "report is empty"
    return "\n\n".join(f"== {title} ==\n{body}" for title, body in sections)
