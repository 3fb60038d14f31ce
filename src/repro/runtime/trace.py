"""Hierarchical span tracing for the search pipeline.

The paper's evaluation lives on per-phase attribution — Figs. 6/8/10
break time-to-solution into per-prototype, per-constraint and per-level
costs, and §5.7 accounts messages and load imbalance.  This module is the
first-class subsystem behind those tables: a :class:`Tracer` records a
tree of timed :class:`Span` objects (``pipeline`` → ``level`` →
``prototype`` → ``lcc``/``nlcc`` → ``round``).  The tracer produces time
only.  A span's counters are read from the two producers of counts: the
window of the run's :class:`~repro.runtime.metrics.MetricsRegistry` over
the span (``tracer.span(name, metrics=registry)``), and — for the spans
the engine opens together with a ``MessageStats`` phase
(:meth:`repro.runtime.engine.Engine.phase`) — that phase's traffic.
Counters are inclusive: a span's window covers its children's.

Design rules:

* **Zero overhead when off.**  The default everywhere is the stateless
  :data:`NULL_TRACER`; hot loops guard the expensive counter computation
  with one ``tracer.enabled`` attribute check, and the null ``span()``
  context manager allocates nothing.
* **One tree per run.**  The tracer is not thread-safe; every span of a
  run is opened in the process that runs it.
* **One export format.**  :meth:`Tracer.write_chrome_trace` emits Chrome
  trace-event JSON (loadable in ``chrome://tracing`` / Perfetto), with
  the run's stats document under ``otherData["stats"]``.  Each event
  embeds ``span_id``/``parent_id``, so :mod:`repro.analysis.runreport`
  reconstructs the exact tree.

Timestamps are raw ``time.perf_counter`` values; the exporter rebases
them to the earliest span start.
"""

from __future__ import annotations

import json
import os
import time
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
    cast,
)

from .metrics import MetricsRegistry

#: anything ``open()`` accepts for the exporter path
PathLike = Union[str, "os.PathLike[str]"]

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]


class Span:
    """One timed node of the trace tree.

    A span is its own context manager: entering stamps ``start_s`` and
    pushes it on the owning tracer's stack, exiting stamps ``end_s``.
    ``attrs`` are identity (what was traced: prototype id, level
    distance, constraint kind); ``counters`` are measurements over the
    span: the window of ``metrics`` (a
    :class:`~repro.runtime.metrics.MetricsRegistry`) from entry to exit,
    plus whatever :meth:`add` accumulates.
    """

    __slots__ = ("name", "attrs", "start_s", "end_s", "counters", "children",
                 "_tracer", "_metrics", "_mark")

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, object]] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, object] = attrs or {}
        self.start_s: Optional[float] = None
        self.end_s: Optional[float] = None
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self._tracer = tracer
        self._metrics = metrics
        self._mark: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is None:
            raise RuntimeError("span entered without an owning tracer")
        stack = tracer._stack
        if stack:
            stack[-1].children.append(self)
        else:
            tracer.roots.append(self)
        stack.append(self)
        if self._metrics is not None:
            self._mark = self._metrics.mark()
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> bool:
        self.end_s = time.perf_counter()
        if self._tracer is not None:
            self._tracer._stack.pop()
        if self._metrics is not None and self._mark is not None:
            self.add(**self._metrics.since(self._mark))
        return False

    # ------------------------------------------------------------------
    def add(self, **counters: float) -> None:
        """Accumulate counters on this span (additive on repeat keys)."""
        own = self.counters
        for key, value in counters.items():
            own[key] = own.get(key, 0) + value

    @property
    def duration_s(self) -> float:
        """Wall seconds covered; 0.0 while the span is still open."""
        if self.start_s is None or self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        """Duration not covered by child spans (floored at 0)."""
        return max(
            self.duration_s - sum(c.duration_s for c in self.children), 0.0
        )

    def total(self, counter: str) -> float:
        """``counter`` over this span's subtree.

        Counters are inclusive, so a span that carries ``counter`` already
        covers its children; only a span without it sums theirs.
        """
        if counter in self.counters:
            return self.counters[counter]
        return sum(child.total(counter) for child in self.children)

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Depth-first preorder iteration of the subtree."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> List["Span"]:
        """All spans named ``name`` in this subtree (preorder)."""
        return [span for span, _ in self.walk() if span.name == name]

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, dur={self.duration_s:.6f}s, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """Shared do-nothing span; the off-switch costs no allocation."""

    __slots__ = ()
    name = "null"
    attrs: Dict[str, object] = {}
    counters: Dict[str, float] = {}
    children: List[Span] = []
    duration_s = 0.0
    self_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False

    def add(self, **_counters: float) -> None:
        pass

    def total(self, _counter: str) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    The pipeline default — hot loops pay one ``tracer.enabled`` attribute
    check when tracing is off, and nothing else.
    """

    __slots__ = ()
    enabled = False
    roots: List[Span] = []

    def span(self, _name: str, **_attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def add(self, **_counters: float) -> None:
        pass

    def record_span(self, *_args: object, **_kwargs: object) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()


class Tracer:
    """Collects a forest of :class:`Span` trees for one run.

    Usage::

        tracer = Tracer()
        with tracer.span("pipeline", template="tri", k=1):
            with tracer.span("level", distance=1):
                tracer.add(messages=42)   # lands on the innermost span
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        metrics: Optional[MetricsRegistry] = None,
        **attrs: object,
    ) -> Span:
        """A new span, child of the currently open one (root if none).

        With ``metrics``, the registry's window over the span becomes its
        counters.
        """
        return Span(name, attrs, self, metrics)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def add(self, **counters: float) -> None:
        """Accumulate counters on the innermost open span (no-op if none)."""
        if self._stack:
            self._stack[-1].add(**counters)

    def record_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        attrs: Optional[Dict[str, object]] = None,
        counters: Optional[Dict[str, float]] = None,
    ) -> Span:
        """Insert an already-timed, closed span under the current span.

        Used where the natural timing points do not nest as a ``with``
        block — e.g. the rounds of a vectorized fixpoint, stamped as they
        run and recorded when the call folds its traffic
        (:meth:`repro.runtime.engine.Engine.record_batched_rounds`).
        """
        span = Span(name, dict(attrs or {}), self)
        span.start_s = start_s
        span.end_s = end_s
        if counters:
            span.counters = dict(counters)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Tuple[Span, int]]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        return [span for span, _ in self.walk() if span.name == name]

    def _origin(self) -> float:
        starts = [s.start_s for s, _ in self.walk() if s.start_s is not None]
        return min(starts) if starts else 0.0

    def _flat_records(self) -> List[Dict[str, object]]:
        """Closed spans as flat records with tree ids, preorder."""
        origin = self._origin()
        records: List[Dict[str, object]] = []
        next_id = [0]

        def emit(span: Span, parent_id: Optional[int], depth: int) -> None:
            next_id[0] += 1
            span_id = next_id[0]
            records.append({
                "span_id": span_id,
                "parent_id": parent_id,
                "name": span.name,
                "depth": depth,
                "ts": (span.start_s - origin) if span.start_s is not None else 0.0,
                "dur": span.duration_s,
                "attrs": dict(span.attrs),
                "counters": dict(span.counters),
            })
            for child in span.children:
                emit(child, span_id, depth + 1)

        for root in self.roots:
            emit(root, None, 0)
        return records

    def to_chrome_trace(
        self, stats: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Chrome trace-event JSON document (``chrome://tracing``/Perfetto).

        One complete (``ph: "X"``) event per span, all on one track.
        ``stats``, the run's stats
        document, goes under ``otherData["stats"]``, which trace viewers
        ignore.
        """
        events: List[Dict[str, object]] = []
        for record in self._flat_records():
            attrs = cast(Dict[str, object], record["attrs"])
            events.append({
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": cast(float, record["ts"]) * 1e6,
                "dur": cast(float, record["dur"]) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {
                    "span_id": record["span_id"],
                    "parent_id": record["parent_id"],
                    "attrs": attrs,
                    "counters": record["counters"],
                },
            })
        other: Dict[str, object] = {"producer": "repro tracer"}
        if stats is not None:
            other["stats"] = stats
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    def write_chrome_trace(
        self, path: PathLike, stats: Optional[Dict[str, object]] = None
    ) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                self.to_chrome_trace(stats), handle, indent=1, default=str
            )

    def __repr__(self) -> str:
        spans = sum(1 for _ in self.walk())
        return f"Tracer(roots={len(self.roots)}, spans={spans})"
