"""Always-on, low-overhead metrics: counters, gauges, log-scale histograms.

The tracer (:mod:`repro.runtime.trace`) is an opt-in *profiling* tool: it
allocates a span tree and is off by default precisely because span
bookkeeping is too heavy for production runs.  This module is the other
half of the observability story — a :class:`MetricsRegistry` that is
**on by default** and cheap enough to stay on: every metric handle owns a
small preallocated numpy buffer, so a hot-path update is one vectorless
``ndarray.__setitem__`` add and never allocates.

Three instrument kinds:

* **Counter** — monotonically increasing float64 (``inc``).  Hot-module
  counter updates count *events* (rounds, messages, checks), which are
  deterministic, not wall times, so two runs of one query report equal
  counters.  Time-valued counters carry a ``_seconds`` suffix by
  convention.
* **Gauge** — last-written float64 (``set``), for sizes and levels
  (cache entry counts).
* **Histogram** — fixed log2-scale buckets (``observe``): bucket ``i``
  holds values ``v`` with ``bit_length(int(v)) == i``, i.e. the bucket
  upper bounds are 0, 1, 2, 4, ... ``2**(_HISTOGRAM_BUCKETS - 2)`` with a
  final overflow bucket.  Bucket counts and the running sum are numpy
  int64/float64 cells; no per-observation allocation.

The registry is the one producer of a run's counts (the engine's
``MessageStats`` keeps the model's traffic).  Everything that reports a
count over part of a run — a prototype search, a level, the run, a trace
span — reads a *window*: :meth:`MetricsRegistry.mark` at its start,
:meth:`MetricsRegistry.since` at its end, which returns the counters
that moved in between.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: log2 buckets: index = bit_length(int(value)), clamped to the last slot
_HISTOGRAM_BUCKETS = 28


class Counter:
    """Monotonic counter backed by one preallocated float64 cell."""

    __slots__ = ("name", "_cell")

    def __init__(self, name: str) -> None:
        self.name = name
        self._cell = np.zeros(1, dtype=np.float64)

    def inc(self, amount: float = 1.0) -> None:
        self._cell[0] += amount

    @property
    def value(self) -> float:
        return float(self._cell[0])


class Gauge:
    """Last-written value backed by one preallocated float64 cell."""

    __slots__ = ("name", "_cell")

    def __init__(self, name: str) -> None:
        self.name = name
        self._cell = np.zeros(1, dtype=np.float64)

    def set(self, value: float) -> None:
        self._cell[0] = value

    @property
    def value(self) -> float:
        return float(self._cell[0])


class Histogram:
    """Fixed log2-bucket histogram; one int64 row plus a float64 sum."""

    __slots__ = ("name", "_buckets", "_sum")

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets = np.zeros(_HISTOGRAM_BUCKETS, dtype=np.int64)
        self._sum = np.zeros(1, dtype=np.float64)

    def observe(self, value: float) -> None:
        index = int(value).bit_length() if value > 0 else 0
        if index >= _HISTOGRAM_BUCKETS:
            index = _HISTOGRAM_BUCKETS - 1
        self._buckets[index] += 1
        self._sum[0] += value

    @property
    def count(self) -> int:
        return int(self._buckets.sum())

    @property
    def sum(self) -> float:
        return float(self._sum[0])

    @property
    def buckets(self) -> List[int]:
        return self._buckets.tolist()


class MetricsRegistry:
    """A process-local set of named counters, gauges and histograms.

    Instruments are created on first request and cached by name, so the
    idiomatic hot-loop pattern is to resolve handles once before the loop::

        rounds = metrics.counter("fixpoint.rounds_dense")
        while ...:
            rounds.inc()

    Not thread-safe (like the tracer).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        handle = self._counters.get(name)
        if handle is None:
            handle = self._counters[name] = Counter(name)
        return handle

    def gauge(self, name: str) -> Gauge:
        handle = self._gauges.get(name)
        if handle is None:
            handle = self._gauges[name] = Gauge(name)
        return handle

    def histogram(self, name: str) -> Histogram:
        handle = self._histograms.get(name)
        if handle is None:
            handle = self._histograms[name] = Histogram(name)
        return handle

    # ------------------------------------------------------------------
    def counters(self) -> Iterator[Tuple[str, float]]:
        for name in sorted(self._counters):
            yield name, self._counters[name].value

    def gauges(self) -> Iterator[Tuple[str, float]]:
        for name in sorted(self._gauges):
            yield name, self._gauges[name].value

    def histograms(self) -> Iterator[Tuple[str, Histogram]]:
        for name in sorted(self._histograms):
            yield name, self._histograms[name]

    # ------------------------------------------------------------------
    def mark(self) -> Dict[str, float]:
        """Every counter's value now: the start of a window."""
        return {name: c._cell[0] for name, c in self._counters.items()}

    def since(self, mark: Dict[str, float]) -> Dict[str, float]:
        """The counters that moved since ``mark``, by how much."""
        window = {}
        before = mark.get
        for name, counter in self._counters.items():
            delta = counter._cell[0] - before(name, 0.0)
            if delta:
                window[name] = float(delta)
        return window

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable dump of every instrument's current value."""
        return {
            "counters": {name: value for name, value in self.counters()},
            "gauges": {name: value for name, value in self.gauges()},
            "histograms": {
                name: {
                    "count": histogram.count,
                    "sum": histogram.sum,
                    "buckets": histogram.buckets,
                }
                for name, histogram in self.histograms()
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )
