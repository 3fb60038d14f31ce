"""Trace analysis: load exported traces, render attribution breakdowns.

Consumes the two formats written by :class:`repro.runtime.trace.Tracer`
(Chrome trace-event JSON and flat JSONL) and renders the Fig. 10-style
attribution tables: where a search spent its time per phase, per
non-local constraint, and per edit-distance level.

Both exporters embed ``span_id``/``parent_id``, so the tree is
reconstructed exactly for spans recorded live.  The one exception is
pooled-worker payloads grafted *after* the enclosing spans closed
(:meth:`Tracer.attach` with an empty span stack): those export as extra
roots.  Because forked workers share the parent's CLOCK_MONOTONIC
timebase, the loader re-parents each such worker-tagged root under the
tightest earlier span whose interval encloses it, so pooled traces
aggregate identically to sequential ones.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .report import format_seconds, format_table

__all__ = [
    "constraint_breakdown",
    "level_breakdown",
    "load_trace",
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

#: per-level table column -> ``level`` span counter (registry window)
_LEVEL_COUNTERS = {
    "prototypes": "level.prototypes",
    "union_vertices": "level.union_vertices",
    "union_edges": "level.union_edges",
    "post_lcc_vertices": "search.post_lcc_vertices",
    "post_lcc_edges": "search.post_lcc_edges",
}


def load_trace(path) -> List[Dict[str, object]]:
    """Load an exported trace into flat span records, preorder.

    Accepts both Chrome trace-event JSON (an object with ``traceEvents``)
    and the JSONL span dump; returns records shaped like
    ``Tracer._flat_records`` — ``span_id``, ``parent_id``, ``name``,
    ``depth``, ``ts``/``dur`` (seconds), ``attrs``, ``counters``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        content = handle.read()
    if not content.strip():
        return []
    try:
        # One JSON document = Chrome trace-event format; a JSONL dump
        # fails here with "Extra data" at the second line.
        document = json.loads(content)
    except json.JSONDecodeError:
        records = [
            json.loads(line) for line in content.splitlines() if line.strip()
        ]
        return _with_depths(records)
    if isinstance(document, dict) and "traceEvents" in document:
        return _from_chrome(document)
    if isinstance(document, dict):
        raise ValueError(f"{path}: JSON object without traceEvents")
    # A single-line JSONL file parses as one record.
    return _with_depths([document])


def _from_chrome(document: Dict[str, object]) -> List[Dict[str, object]]:
    records = []
    for event in document["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        records.append({
            "span_id": args.get("span_id"),
            "parent_id": args.get("parent_id"),
            "name": event.get("name", "?"),
            "ts": event.get("ts", 0.0) / 1e6,
            "dur": event.get("dur", 0.0) / 1e6,
            "attrs": dict(args.get("attrs") or {}),
            "counters": dict(args.get("counters") or {}),
        })
    records.sort(key=lambda r: (r["span_id"] is None, r["span_id"]))
    return _with_depths(records)


def _reparent_detached(
    records: List[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Fold worker payloads that were attached as detached roots.

    A pooled level grafts worker span payloads under its open ``level``
    span, so they normally export with real parent ids.  Payloads
    attached after the enclosing spans already closed become extra roots
    instead — worker-tagged (``attrs["worker"]``), emitted after the main
    tree.  Every span sits on one shared CLOCK_MONOTONIC timebase, so
    each such root belongs under the tightest (shortest) earlier span
    whose ``[ts, ts + dur]`` interval encloses it.
    """
    for index, record in enumerate(records):
        if index == 0 or record.get("parent_id") is not None:
            continue
        attrs = record.get("attrs") or {}
        if not isinstance(attrs, dict) or "worker" not in attrs:
            continue
        ts = float(record.get("ts", 0.0))
        end = ts + float(record.get("dur", 0.0))
        best: Optional[Dict[str, object]] = None
        for other in records[:index]:
            other_ts = float(other.get("ts", 0.0))
            other_end = other_ts + float(other.get("dur", 0.0))
            if other_ts <= ts and end <= other_end:
                if best is None or other_end - other_ts <= float(
                    best["dur"]  # type: ignore[arg-type]
                ):
                    best = other
        if best is not None:
            record["parent_id"] = best.get("span_id")
    return records


def _with_depths(records: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Fill/refresh ``depth`` from the parent chain."""
    _reparent_detached(records)
    depths: Dict[object, int] = {}
    for record in records:
        parent = record.get("parent_id")
        depth = depths.get(parent, -1) + 1 if parent is not None else 0
        record["depth"] = depth
        depths[record.get("span_id")] = depth
    return records


def _children_index(records) -> Dict[object, List[Dict[str, object]]]:
    children: Dict[object, List[Dict[str, object]]] = {}
    for record in records:
        children.setdefault(record.get("parent_id"), []).append(record)
    return children


def _self_seconds(record, children_of) -> float:
    kids = children_of.get(record.get("span_id"), ())
    return max(record["dur"] - sum(c["dur"] for c in kids), 0.0)


# ----------------------------------------------------------------------
# Aggregations
# ----------------------------------------------------------------------
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


def level_breakdown(records) -> List[Dict[str, object]]:
    """Per-edit-distance-level totals (the stacks of Figs. 6/8)."""
    rows = []
    for record in records:
        if record["name"] != "level":
            continue
        counters = record["counters"]
        rows.append({
            "distance": record["attrs"].get("distance"),
            "total_s": record["dur"],
            **{
                column: counters.get(counter, 0)
                for column, counter in _LEVEL_COUNTERS.items()
            },
        })
    rows.sort(key=lambda r: (r["distance"] is None, r["distance"]))
    return rows


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
                "template", "k", "mode", "distance", "label", "kind", "worker",
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
# Rendering
# ----------------------------------------------------------------------
def render_report(records, tree_depth: Optional[int] = 3) -> str:
    """The full ``repro trace`` report: tree, phases, constraints, levels."""
    if not records:
        return "trace is empty"
    sections = []

    sections.append("== span tree (to depth %s) ==" % tree_depth)
    sections.append("\n".join(span_tree_lines(records, tree_depth)))

    phases = phase_breakdown(records)
    rows = [
        [
            bucket["name"], bucket["count"],
            format_seconds(bucket["total_s"]),
            format_seconds(bucket["self_s"]),
            int(bucket["counters"].get("messages", 0)),
            int(bucket["counters"].get("remote_messages", 0)),
        ]
        for bucket in phases
    ]
    sections.append("\n== per-phase breakdown ==")
    sections.append(format_table(
        ["phase", "spans", "total", "self", "messages", "remote"], rows
    ))

    constraints = constraint_breakdown(records)
    if constraints:
        rows = [
            [
                f"{b['kind']}(src={b['source']}, len={b['walk_length']})",
                b["count"], format_seconds(b["total_s"]),
                int(b["checked"]), int(b["cache_hits"]),
                int(b["tokens_launched"]), int(b["completions"]),
                int(b["eliminated_roles"]), int(b["messages"]),
            ]
            for b in constraints
        ]
        sections.append("\n== per-constraint breakdown (NLCC) ==")
        sections.append(format_table(
            ["constraint", "runs", "time", "checked", "cache hits",
             "tokens", "completions", "eliminated", "messages"], rows
        ))

    levels = level_breakdown(records)
    if levels:
        rows = [
            [
                level["distance"], int(level["prototypes"]),
                format_seconds(level["total_s"]),
                f"{int(level['union_vertices'])}/{int(level['union_edges'])}",
                f"{int(level['post_lcc_vertices'])}/"
                f"{int(level['post_lcc_edges'])}",
            ]
            for level in levels
        ]
        sections.append("\n== per-level breakdown ==")
        sections.append(format_table(
            ["k", "prototypes", "time", "union v/e", "post-LCC v/e"], rows
        ))

    return "\n".join(sections)
