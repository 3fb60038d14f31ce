"""The array backend: CSR search state, one LCC fixpoint, one token walk.

This package mirrors the paper's actual system shape (§4: a static CSR
with bit vectors for deactivation).  On the ``array`` backend a run's
whole level state lives here — M*, every prototype scope, the token
frontiers and the level unions; the dict-of-sets
:class:`~repro.core.state.SearchState` is materialized only at the
public-API boundary (``to_search_state`` / ``from_search_state``) and by
the set-based ``reference`` backend.  A scope rebuilt from outside a run
(a checkpoint, a derived prototype, a re-enumerated outcome) is given by
ids: ``ArraySearchState.from_ids``.

* :mod:`.searchstate` — :class:`ArraySearchState` (per-vertex role
  masks, ``vertex_active``, per-directed-edge ``edge_alive``) and the
  only code that knows the role-mask layout;
* :mod:`.fixpoint` — :func:`array_kernel_fixpoint`, the semi-naive
  arc-consistency rounds of LCC and ``M*``, on either layout;
* :mod:`.walk` — :func:`array_token_walk`, one NLCC constraint as a
  batched token frontier;
* :mod:`.accounting` — the batched per-round message accounting both
  of them charge through.

The immutable CSR (:class:`~repro.graph.csr.GraphCsr`, ``csr_of``,
``sorted_pair_table``) lives in :mod:`repro.graph.csr` and is
re-exported here.
"""

from ...graph.csr import GraphCsr, csr_of, sorted_pair_table
from .fixpoint import array_kernel_fixpoint
from .searchstate import MAX_ARRAY_ROLES, ArraySearchState
from .walk import ArrayWalkOutcome, array_token_walk

__all__ = [
    "ArraySearchState",
    "ArrayWalkOutcome",
    "GraphCsr",
    "MAX_ARRAY_ROLES",
    "array_kernel_fixpoint",
    "array_token_walk",
    "csr_of",
]
