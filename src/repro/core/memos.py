"""The process-wide memos: their traffic and their one clear hook.

Three memos outlive a run, each keyed by exactly what it depends on
(INTERNALS.md §7):

* ``kernel`` — compiled role kernels
  (:func:`~repro.core.kernels.cached_kernel`), by the prototype graph's
  :func:`~repro.core.kernels.structural_fingerprint`;
* ``shape`` — shape records (:func:`~repro.core.prototypes.shape_of`):
  a prototype graph's automorphism count and its constraint walks, by
  the same fingerprint;
* ``label_view`` — ``M*``'s label view
  (:func:`~repro.core.candidate_set.label_view`), on the root CSR it
  cuts, by the sorted label codes it keeps.

Each lookup counts one hit or one miss here, in one registry; a run
reports its share as ``cache.<memo>.{hits,misses}`` (the
:func:`memo_stats` delta ``pipeline.finish_run`` takes).
:func:`clear_memos` empties all three and restarts the counts.
"""

from __future__ import annotations

from typing import Dict, List

from ..runtime.metrics import Counter, MetricsRegistry

MEMOS = ("kernel", "label_view", "shape")

#: the dict-backed memos, emptied by :func:`clear_memos`
_TABLES: List[dict] = []
#: bumped by :func:`clear_memos`: label views are kept on their CSRs,
#: under keys that carry the epoch they were built in
_epoch = 0


def _fresh_counters() -> Dict[str, Counter]:
    registry = MetricsRegistry()
    return {
        f"{memo}.{kind}": registry.counter(f"cache.{memo}.{kind}")
        for memo in MEMOS
        for kind in ("hits", "misses")
    }


_counters = _fresh_counters()


def table() -> dict:
    """A new process-wide memo table that :func:`clear_memos` empties."""
    memo: dict = {}
    _TABLES.append(memo)
    return memo


def epoch() -> int:
    """How many times :func:`clear_memos` has run."""
    return _epoch


def count(memo: str, hit: bool) -> None:
    """Count one lookup of ``memo``."""
    _counters[f"{memo}.hits" if hit else f"{memo}.misses"].inc()


def memo_stats() -> Dict[str, int]:
    """Cumulative lookups per memo: ``{"kernel.hits": n, ...}``."""
    return {name: int(counter.value) for name, counter in _counters.items()}


def clear_memos() -> None:
    """Drop every memo and restart its counts (the test hook)."""
    global _counters, _epoch
    for memo in _TABLES:
        memo.clear()
    _epoch += 1
    _counters = _fresh_counters()


__all__ = ["MEMOS", "clear_memos", "count", "epoch", "memo_stats", "table"]
