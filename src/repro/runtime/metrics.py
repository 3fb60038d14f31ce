"""Always-on, low-overhead metrics: counters, gauges, log-scale histograms.

The tracer (:mod:`repro.runtime.trace`) is an opt-in *profiling* tool: it
allocates a span tree and is off by default precisely because span
bookkeeping is too heavy for production runs.  This module is the other
half of the observability story — a :class:`MetricsRegistry` that is
**on by default** and cheap enough to stay on: every metric handle owns a
small preallocated numpy buffer, so a hot-path update is one vectorless
``ndarray.__setitem__`` add and never allocates.

Three instrument kinds:

* **Counter** — monotonically increasing float64 (``inc``).  Counters are
  the cross-process parity surface: merging worker registries must
  reproduce a sequential run's totals bit-exactly, so hot-module counter
  updates count *events* (rounds, messages, checks), which are
  deterministic, not wall times.  Time-valued counters carry a
  ``_seconds`` suffix by convention.
* **Gauge** — last-written float64 (``set``), for sizes and levels
  (shared-memory segment bytes, cache entry counts).
* **Histogram** — fixed log2-scale buckets (``observe``): bucket ``i``
  holds values ``v`` with ``bit_length(int(v)) == i``, i.e. the bucket
  upper bounds are 0, 1, 2, 4, ... ``2**(_HISTOGRAM_BUCKETS - 2)`` with a
  final overflow bucket.  Bucket counts and the running sum are numpy
  int64/float64 cells; no per-observation allocation.

Cross-process aggregation mirrors the tracer's payload grafting: a pooled
worker builds a fresh registry per task, :meth:`MetricsRegistry.export`
packs it into plain arrays riding the ``PoolTask`` result payload, and
the parent folds it in with :meth:`MetricsRegistry.merge` (counters and
histogram buckets add; gauges add too, because worker-side gauges are
per-worker quantities whose fleet total is the meaningful number).

Pickling a registry transports nothing (``__getstate__`` → ``{}``), the
same contract as the tracer: metric values never cross process
boundaries implicitly, only explicit ``export()`` payloads do.

:class:`ConstraintCostModel` is the first adaptive-execution store built
on the measured numbers: an EWMA of the frontier rows each NLCC
constraint's walk built — a count, not a time, so what it decides is a
function of the input — keyed by constraint key, recycled across
prototypes (and across a whole template-library batch when the executor
shares one ``PipelineOptions``).  ``order_constraints`` consumes it
through quantized log-scale buckets so that sub-resolution measurements
(unit-test-sized workloads) never perturb the static order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "NULL_METRICS",
    "ConstraintCostModel",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
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


class _NullInstrument:
    """Shared no-op counter/gauge/histogram of :data:`NULL_METRICS`."""

    __slots__ = ()
    name = "null"
    value = 0.0
    count = 0
    sum = 0.0
    buckets: List[int] = []

    def inc(self, _amount: float = 1.0) -> None:
        pass

    def set(self, _value: float) -> None:
        pass

    def observe(self, _value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Disabled registry: every instrument is the shared no-op.

    The measurement baseline for the <2% overhead bar, and the explicit
    off-switch for callers that want literally zero accounting.
    """

    __slots__ = ()
    enabled = False

    def counter(self, _name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, _name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, _name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def export(self) -> Dict[str, object]:
        return {}

    def merge(self, _payload: Dict[str, object]) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __repr__(self) -> str:
        return "NullMetricsRegistry()"


NULL_METRICS = NullMetricsRegistry()


class MetricsRegistry:
    """A process-local set of named counters, gauges and histograms.

    Instruments are created on first request and cached by name, so the
    idiomatic hot-loop pattern is to resolve handles once before the loop::

        rounds = metrics.counter("fixpoint.rounds_dense")
        while ...:
            rounds.inc()

    Not thread-safe (like the tracer: one registry per process, workers
    export and the parent merges).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- pickling: registries cross process boundaries empty -------------
    def __getstate__(self) -> Dict[str, object]:
        return {}

    def __setstate__(self, _state: Dict[str, object]) -> None:
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

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
    def export(self) -> Dict[str, object]:
        """Pack the registry into plain arrays for a result payload.

        The wire format is ``(names tuple, values ndarray)`` per
        instrument kind — histograms additionally carry the bucket-count
        matrix — small enough to ride every ``PoolTask`` result and cheap
        to merge.  Empty registries export an empty dict so untouched
        workers add nothing to the payload.
        """
        payload: Dict[str, object] = {}
        if self._counters:
            names = tuple(sorted(self._counters))
            payload["counters"] = (
                names,
                np.array(
                    [self._counters[n].value for n in names], dtype=np.float64
                ),
            )
        if self._gauges:
            names = tuple(sorted(self._gauges))
            payload["gauges"] = (
                names,
                np.array(
                    [self._gauges[n].value for n in names], dtype=np.float64
                ),
            )
        if self._histograms:
            names = tuple(sorted(self._histograms))
            payload["histograms"] = (
                names,
                np.stack([self._histograms[n]._buckets for n in names]),
                np.array(
                    [self._histograms[n].sum for n in names], dtype=np.float64
                ),
            )
        return payload

    def merge(self, payload: Optional[Dict[str, object]]) -> None:
        """Fold an :meth:`export` payload into this registry (additive)."""
        if not payload:
            return
        if "counters" in payload:
            names, values = payload["counters"]  # type: ignore[misc]
            for name, value in zip(names, values.tolist()):
                self.counter(name).inc(value)
        if "gauges" in payload:
            names, values = payload["gauges"]  # type: ignore[misc]
            for name, value in zip(names, values.tolist()):
                gauge = self.gauge(name)
                gauge.set(gauge.value + value)
        if "histograms" in payload:
            names, buckets, sums = payload["histograms"]  # type: ignore[misc]
            for i, name in enumerate(names):
                histogram = self.histogram(name)
                histogram._buckets += buckets[i]
                histogram._sum[0] += float(sums[i])

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


# ----------------------------------------------------------------------
# Adaptive execution: measured per-constraint NLCC costs
# ----------------------------------------------------------------------
#: EWMA resolution floor (frontier rows; the array walk builds about ten
#: million a second, so one tick is ~0.05 s of walking): measurements
#: below one tick quantize to bucket 0, so test- and demo-sized workloads
#: (where a whole constraint check builds a few thousand rows) never
#: reorder constraints away from the static order; at the massive-graph
#: scale the paper targets, per-constraint walks build many millions of
#: rows and land in clearly separated buckets
COST_RESOLUTION_ROWS = 500_000

#: EWMA smoothing: new = (1 - alpha) * old + alpha * sample, matching the
#: pool's seconds-per-unit rate model
COST_EWMA_ALPHA = 0.3


class ConstraintCostModel:
    """EWMA of measured per-constraint NLCC cost, in frontier rows built
    (``NlccResult.rows_expanded``).

    Keys are ``NonLocalConstraint.key`` tuples — stable across prototypes
    of one template and across the members of a template-library batch
    class, which is what lets measurements recycle.  Like the registry,
    the model pickles to empty: each pooled worker grows its own from the
    tasks it serves.
    """

    def __init__(self) -> None:
        self._ewma: Dict[object, float] = {}

    def __getstate__(self) -> Dict[str, object]:
        return {}

    def __setstate__(self, _state: Dict[str, object]) -> None:
        self._ewma = {}

    def observe(self, key: object, rows: float) -> None:
        old = self._ewma.get(key)
        self._ewma[key] = (
            rows
            if old is None
            else (1.0 - COST_EWMA_ALPHA) * old + COST_EWMA_ALPHA * rows
        )

    def rows(self, key: object) -> Optional[float]:
        return self._ewma.get(key)

    def bucket(self, key: object) -> int:
        """Quantized cost: log2 bucket of EWMA / resolution (0 if unseen).

        Two constraints whose measured costs sit within the same power-
        of-two band compare equal, falling back to the static selectivity
        order for near-tied (and unmeasured) constraints.
        """
        ewma = self._ewma.get(key)
        if ewma is None:
            return 0
        return int(ewma / COST_RESOLUTION_ROWS).bit_length()

    def __len__(self) -> int:
        return len(self._ewma)

    def __repr__(self) -> str:
        return f"ConstraintCostModel(constraints={len(self._ewma)})"
