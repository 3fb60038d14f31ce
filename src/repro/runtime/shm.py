"""Zero-copy shared-memory export of the immutable :class:`GraphCsr`.

The worker pool's replica model (§4) has every worker hold the background
graph once.  Fork gives workers a copy-on-write view of the Python graph
object, but the memoized CSR arrays are the structures the array kernels
actually touch — re-deriving them per worker costs O(V+E) Python time and
duplicates hundreds of megabytes on web-scale graphs.  This module packs
every frozen ``GraphCsr`` array into **one** named
:mod:`multiprocessing.shared_memory` segment:

* the pool owner builds a :class:`SharedGraphCsr` (create + copy-in) and
  ships its picklable :class:`SharedCsrHandle` through the pool
  initializer;
* each worker calls :func:`attach_shared_csr`, mapping the segment and
  rebuilding a ``GraphCsr`` whose numpy arrays are read-only views over
  the shared buffer — zero copies; the pair-key table is re-derived from
  the shared ``src`` / ``indices`` (one multiply-add: the rows arrive
  sorted by destination) and the ``index_of`` dict, which cannot live in
  a flat buffer, is built only if a dict consumer reads it;
* the owner ``close()``s (context manager, pool shutdown or the module's
  ``atexit`` sweep) which unlinks the segment exactly once, so crashed
  runs don't leak ``/dev/shm`` entries.

Ownership protocol: the creating process is the only one that unlinks.
Workers just map the segment; their mappings die with the process (the
attach-side registry exists for tests and explicit :func:`detach_all`).
All ``SharedMemory(...)`` construction in the package lives here —
repro-lint rule R6 flags strays.
"""

from __future__ import annotations

import atexit
import os
import uuid
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..graph.csr import GraphCsr
    from ..graph.graph import Graph

__all__ = [
    "PAYLOAD_VERSION",
    "SharedCsrHandle",
    "SharedGraphCsr",
    "attach_shared_csr",
    "detach_all",
    "owned_segment_names",
]

#: Wire-format version stamped into every :class:`SharedCsrHandle` and
#: checked on attach.  Version 2: the multi-word role-mask era — scope
#: and solution payloads stay bitmap-only (and therefore mask-width
#: independent; workers re-derive masks from labels), but owner and
#: workers must agree on that contract, so mixed-version pools refuse to
#: attach instead of silently misreading the segment.
PAYLOAD_VERSION = 2

#: GraphCsr array slots exported into the segment (edge_label_codes is
#: appended only when the graph carries edge labels)
_ARRAY_FIELDS: Tuple[str, ...] = (
    "order",
    "indptr",
    "indices",
    "src",
    "mirror",
    "degrees",
    "zero_degree",
    "label_codes",
    "vid_gt",
    "pair_code",
)

#: array starts are 8-byte aligned inside the segment
_ALIGN = 8

#: segments created by this process, by name — the atexit sweep unlinks
#: whatever an aborted run left behind
_OWNED: Dict[str, "SharedGraphCsr"] = {}

#: segments attached (not owned) by this process, by name
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def _segment_name() -> str:
    """A fresh, recognisably-ours segment name (helps leak forensics)."""
    return f"repro-csr-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedCsrHandle:
    """Picklable recipe for attaching a shared CSR segment.

    Plain data only: the segment name, the per-array layout
    ``(slot, dtype string, length, byte offset)`` and the scalar/dict
    metadata a :class:`GraphCsr` needs beyond its arrays.
    """

    __slots__ = ("name", "layout", "meta")

    def __init__(
        self,
        name: str,
        layout: List[Tuple[str, str, int, int]],
        meta: Dict[str, Any],
    ) -> None:
        self.name = name
        self.layout = layout
        self.meta = meta

    def __getstate__(self) -> Tuple[str, List, Dict[str, Any]]:
        return (self.name, self.layout, self.meta)

    def __setstate__(self, state: Tuple[str, List, Dict[str, Any]]) -> None:
        self.name, self.layout, self.meta = state


class SharedGraphCsr:
    """Owner side: one shared segment holding every ``GraphCsr`` array.

    Create from a built CSR, hand :attr:`handle` to workers, and
    :meth:`close` (or use as a context manager) when the pool is done —
    closing unlinks the segment.  Idempotent; an :mod:`atexit` sweep
    closes anything still open at interpreter exit.
    """

    def __init__(self, csr: "GraphCsr") -> None:
        fields = list(_ARRAY_FIELDS)
        if csr.edge_label_codes is not None:
            fields.append("edge_label_codes")
        layout: List[Tuple[str, str, int, int]] = []
        offset = 0
        for slot in fields:
            arr = getattr(csr, slot)
            offset = _aligned(offset)
            layout.append((slot, arr.dtype.str, int(arr.shape[0]), offset))
            offset += arr.nbytes
        #: total bytes of the backing segment (the shm.segment_bytes gauge)
        self.nbytes: int = max(offset, 1)
        self._shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(
                create=True, size=self.nbytes, name=_segment_name()
            )
        )
        for (slot, dtype, length, start) in layout:
            view = np.frombuffer(
                self._shm.buf, dtype=np.dtype(dtype), count=length, offset=start
            )
            view[:] = getattr(csr, slot)
        self.handle = SharedCsrHandle(
            self._shm.name,
            layout,
            {
                "payload_version": PAYLOAD_VERSION,
                "num_vertices": csr.num_vertices,
                "num_directed_edges": csr.num_directed_edges,
                "num_labels": csr.num_labels,
                "label_ids": dict(csr.label_ids),
                "edge_label_ids": dict(csr.edge_label_ids),
            },
        )
        _OWNED[self._shm.name] = self

    @property
    def name(self) -> str:
        return self.handle.name

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        _OWNED.pop(shm.name, None)
        try:
            shm.close()
        except BufferError:  # pragma: no cover - live exported views
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedGraphCsr":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()


def attach_shared_csr(handle: SharedCsrHandle, graph: "Graph") -> "GraphCsr":
    """Map a shared segment and build a ``GraphCsr`` over its buffers.

    The returned CSR's arrays are read-only views into the segment — no
    copies.  Only the pair-key table behind ``edge_positions`` is rebuilt
    (the owner's edge order is already the sorted one); ``index_of`` stays
    lazy as on every CSR.  The caller is responsible for installing the
    result as the graph's memoized CSR if desired (the pool initializer
    does).
    """
    from ..graph.csr import GraphCsr, sorted_pair_table

    version = handle.meta.get("payload_version")
    if version != PAYLOAD_VERSION:
        raise ValueError(
            f"shared CSR payload version {version!r} does not match this "
            f"process's version {PAYLOAD_VERSION}; owner and workers must "
            "run the same build"
        )
    shm = _ATTACHED.get(handle.name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=handle.name)
        _ATTACHED[handle.name] = shm
    csr = GraphCsr.__new__(GraphCsr)
    csr._lazy = {"graph": graph}
    for (slot, dtype, length, start) in handle.layout:
        view = np.frombuffer(
            shm.buf, dtype=np.dtype(dtype), count=length, offset=start
        )
        view.flags.writeable = False
        setattr(csr, slot, view)
    if "edge_label_codes" not in {slot for slot, _, _, _ in handle.layout}:
        csr.edge_label_codes = None
    meta = handle.meta
    csr.num_vertices = meta["num_vertices"]
    csr.num_directed_edges = meta["num_directed_edges"]
    csr.num_labels = meta["num_labels"]
    csr.label_ids = dict(meta["label_ids"])
    csr.edge_label_ids = dict(meta["edge_label_ids"])
    # derived from src / indices on the worker's side: not part of the payload
    csr.pair_keys = sorted_pair_table(csr.src, csr.indices, csr.num_vertices)
    # View-parentage links never cross the wire: an attached CSR is always
    # a root snapshot from the worker's perspective.
    csr.parent = None
    csr.parent_vertex_index = None
    csr.parent_edge_index = None
    return csr


def detach_all() -> None:
    """Close every attached (non-owned) mapping in this process.

    A mapping with live numpy views cannot unmap; it stays registered
    (and referenced, so no unraisable ``__del__``) until the views die —
    worst case the mapping lives until process exit, which releases it
    regardless.
    """
    leftovers: Dict[str, shared_memory.SharedMemory] = {}
    while _ATTACHED:
        name, shm = _ATTACHED.popitem()
        try:
            shm.close()
        except BufferError:  # numpy views still alive — keep mapped
            leftovers[name] = shm
    _ATTACHED.update(leftovers)


def owned_segment_names() -> List[str]:
    """Names of segments this process currently owns (test hook)."""
    return sorted(_OWNED)


def _cleanup_at_exit() -> None:  # pragma: no cover - exercised at exit
    for owner in list(_OWNED.values()):
        owner.close()
    detach_all()


atexit.register(_cleanup_at_exit)
