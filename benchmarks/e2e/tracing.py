"""Layer attribution from outside the program.

The program is not edited.  A traced run rebinds each layer's public
entry point to a timing wrapper — in the defining module and in every
``repro.*`` module namespace that imported the name — and restores every
binding on exit.  Spans stay in memory until the run ends.

A span is the list ``[name, start, end, parent, query_id, count]``:
``parent`` indexes the enclosing span (``-1`` at the top), ``count`` is
whatever the target's ``probe`` reads off the return value.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import sys
import time
import warnings
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

NAME, START, END, PARENT, QUERY, COUNT = range(6)

#: the span the harness opens around every query; its self time is the
#: time no layer below accounts for
ROOT = "bench.query"


class Target(NamedTuple):
    layer: str
    module: str
    #: ``function`` or ``Class.method``
    attribute: str
    #: reads a count off the wrapped call's return value
    probe: Optional[Callable[[object], int]] = None


TARGETS: Tuple[Target, ...] = (
    Target("io", "repro.graph.io", "read_edge_list"),
    Target("csr", "repro.core.arraystate", "csr_of"),
    Target("convert", "repro.core.arraystate", "ArraySearchState.from_search_state"),
    Target("convert", "repro.core.arraystate", "ArraySearchState.to_search_state"),
    Target("prototypes", "repro.core.prototypes", "generate_prototypes", len),
    Target(
        "constraints", "repro.core.constraints", "generate_constraints",
        lambda constraint_set: len(constraint_set.non_local),
    ),
    Target("mstar", "repro.core.candidate_set", "max_candidate_set"),
    Target("search", "repro.core.search", "search_prototype"),
    Target("lcc", "repro.core.lcc", "local_constraint_checking"),
    Target("nlcc", "repro.core.nlcc", "non_local_constraint_checking"),
    Target("walk", "repro.core.arraystate", "array_token_walk"),
    Target("enum", "repro.core.enumeration", "enumerate_matches_array"),
    Target("enum", "repro.core.enumeration", "extend_from_child_matches_array"),
    Target("pipeline", "repro.core.pipeline", "run_pipeline"),
    Target("topdown", "repro.core.topdown", "exploratory_search"),
    Target("batch", "repro.core.batch", "run_batch"),
)


class Recorder:
    """In-memory span store shared by all wrappers of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.query_id: Optional[str] = None
        #: the harness passes a clock that skips its calibration probe
        self._clock = clock

    def wrap(self, layer: str, function, probe=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.query_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[COUNT] = probe(result)
            return result

        return traced

    def query(self, query_id: str, function):
        """Run ``function`` as the root span of one query."""
        self.query_id = query_id
        try:
            return self.wrap(ROOT, function)()
        finally:
            self.query_id = None

    def take(self) -> List[list]:
        """Hand over the spans recorded so far (call between queries)."""
        taken = self.spans[:]
        # cleared in place: the wrappers hold a reference to this list
        del self.spans[:]
        return taken


def append_round(spans: List[list], round_spans: Sequence[list]) -> None:
    """Add one ``take()`` to a longer span list, keeping the tree intact.

    ``parent`` indexes the list a span was recorded in, and ``take()``
    restarts that list, so the indices are shifted to the longer list's.
    """
    offset = len(spans)
    for span in round_spans:
        if span[PARENT] >= 0:
            span[PARENT] += offset
    spans.extend(round_spans)


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Seconds per span name, excluding time covered by child spans.

    Spans of one thread nest properly, so a span's children never overlap
    and its self time is its duration minus its direct children's.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    totals: Dict[str, float] = collections.defaultdict(float)
    for span, seconds in zip(spans, own):
        totals[span[NAME]] += seconds
    return totals


def call_counts(spans: Sequence[list]) -> Dict[str, int]:
    return collections.Counter(span[NAME] for span in spans)


def probe_totals(spans: Sequence[list]) -> Dict[str, int]:
    totals: Dict[str, int] = collections.Counter()
    for span in spans:
        totals[span[NAME]] += span[COUNT]
    return totals


def dump_jsonl(spans: Sequence[list], path) -> None:
    keys = ("name", "start", "end", "parent", "query_id", "count")
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class Installed:
    """The rebindings of one traced stretch."""

    def __init__(self) -> None:
        #: (namespace object, attribute, original value), in binding order
        self.rebound: List[Tuple[object, str, object]] = []
        #: layers with a target that could not be wrapped
        self.missing: List[str] = []

    def bind(self, owner, attribute: str, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self.rebound.append((owner, attribute, original))

    def restore(self) -> None:
        while self.rebound:
            owner, attribute, original = self.rebound.pop()
            setattr(owner, attribute, original)


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@contextlib.contextmanager
def installed(
    recorder: Recorder, targets: Sequence[Target] = TARGETS
) -> Iterator[Installed]:
    """Wrap every target that still exists for the length of the block.

    Later refactors will move these functions (``arraystate.py`` is due to
    be split); a target that is gone costs its layer's metrics, which read
    ``null``, and never the run.
    """
    state = Installed()
    try:
        for target in targets:
            owner, _, leaf = target.attribute.rpartition(".")
            try:
                module = importlib.import_module(target.module)
                namespace = getattr(module, owner) if owner else module
                raw = vars(namespace)[leaf]
            except (ImportError, AttributeError, KeyError):
                warnings.warn(
                    f"trace target {target.module}.{target.attribute} is "
                    f"gone: layer {target.layer!r} reports null",
                    stacklevel=3,
                )
                if target.layer not in state.missing:
                    state.missing.append(target.layer)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    recorder.wrap(target.layer, raw.__func__, target.probe)
                )
            else:
                wrapped = recorder.wrap(target.layer, raw, target.probe)
            if owner:  # a method: one binding, on its class
                state.bind(namespace, leaf, raw, wrapped)
                continue
            for other in _repro_modules():
                for attribute, value in list(vars(other).items()):
                    if value is raw:
                        state.bind(other, attribute, raw, wrapped)
        yield state
    finally:
        state.restore()
