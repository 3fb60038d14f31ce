"""The vectorized arc-consistency fixpoint (Alg. 4 and the §3.1 ``M*`` rule).

One semi-naive loop over :class:`~repro.core.kernels.RoleKernel` bit
tables, with boolean worklist arrays instead of per-vertex inboxes and
the witness fold as one ``np.bitwise_or.reduceat`` over CSR segments per
round.  Role refinement and edge viability are one gather each into the
kernel's whole-mask tables (:meth:`~repro.core.kernels.RoleKernel.role_tables`)
when the masks fit one word, carry no edge labels and the kernel has at
most :data:`~repro.core.kernels.TABLE_MAX_ROLES` roles; otherwise one
pass per role bit.  The loop runs on either mask layout of
:mod:`~repro.core.arraystate.searchstate`: the few places where the two
differ — a per-bit test reads one word column, a per-word comparison
folds across the row, a per-vertex flag broadcasts over the words — go
through the :func:`~repro.core.arraystate.searchstate.mask_layout`
adapters, taken once per call.  Each round keeps only its rank-pair
message row and visit row; the call folds all of them, and its
``fixpoint.*`` counters, once when it ends — even when a round raises.

Exactness contract: every round reproduces the dict semantics
*bit-for-bit*, including its quirks — the asymmetric initial edge
aliveness (edges from candidates toward non-candidate neighbors are alive
until pruned; the reverse direction never was; when ``M*`` runs on the
label view instead of ``G`` those edges are not in the CSR, and the
``carried`` argument charges their round-1 messages in closed form),
candidates holding empty role sets (the level union creates them;
they survive every round untouched because only vertices with a
non-empty mask are evaluated), and the full-round edge-dedup rule that
skips a pair from the larger-id side only when the smaller endpoint is
still a *candidate* (not merely mask non-empty).  ``tests/core/test_arraystate.py`` pins all of this against
the set-based reference on randomized workloads, and
``tests/core/test_enumeration_parity.py`` pins the two layouts to each
other in every mode.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...graph.csr import GraphCsr
from ..kernels import TABLE_MAX_ROLES, RoleKernel
from .accounting import _RoundAccounting
from .searchstate import (
    ArraySearchState, bit_addresses, mask_layout, mask_table, word_columns,
)

_ZERO = np.uint64(0)

#: dense-round switch floor: below this many role-holding vertices the
#: sparse bookkeeping is too cheap to be worth replacing (and
#: unit-test-sized graphs stay on the classic semi-naive schedule)
ADAPTIVE_MIN_VERTICES = 1024

#: switch to a dense round when the worklist covers at least this
#: fraction of the surviving role-holding vertices
ADAPTIVE_DENSITY_THRESHOLD = 0.5


def _segment_or(contrib: np.ndarray, csr: GraphCsr) -> np.ndarray:
    """Per-vertex OR of a per-edge mask array over CSR row segments.

    ``contrib`` may be ``(edges,)`` or ``(edges, n_words)``; the fold runs
    along axis 0 either way.
    """
    if contrib.shape[0] == 0:
        return np.zeros(
            (csr.num_vertices,) + contrib.shape[1:], dtype=np.uint64
        )
    # The sentinel keeps reduceat in bounds for empty trailing rows; empty
    # segments yield a neighbor's garbage value, zeroed via zero_degree.
    padded = np.concatenate(
        [contrib, np.zeros((1,) + contrib.shape[1:], dtype=np.uint64)]
    )
    out = np.bitwise_or.reduceat(padded, csr.indptr[:-1], axis=0)
    out[csr.zero_degree] = _ZERO
    return out


def array_kernel_fixpoint(
    astate: ArraySearchState,
    kernel: RoleKernel,
    engine,
    delta: bool = True,
    mandatory_masks: Optional[Dict[int, int]] = None,
    warm_mask: Optional[np.ndarray] = None,
    carried: Optional[np.ndarray] = None,
) -> int:
    """Run the bitmask arc-consistency fixed point over ``astate`` in place.

    ``mandatory_masks`` selects the rule applied per role bit: ``None`` is
    LCC (Alg. 4 — a role survives iff *every* template neighbor is
    witnessed by an active neighbor); a dict is max-candidate-set
    generation (§3.1 — all *mandatory* neighbors and at least one template
    neighbor witnessed; roles without template edges always survive).
    Returns the number of rounds, the reference rounds' count (the final
    no-change round is paid in both).

    ``delta=True`` is the semi-naive mode: after round 1 only vertices
    whose mask changed re-broadcast and only vertices whose witnesses
    changed are re-evaluated — the same per-round states as the reference
    rounds (an unchanged inbox re-derives the unchanged answer), fewer
    messages.  ``delta=False`` re-broadcasts every round and sends exactly
    the reference's messages.  Per-vertex inboxes are replaced by an
    invariant: after round 1, the inbox entry of ``v`` from ``u`` always
    equals ``u``'s current mask whenever the directed edge ``u -> v`` is
    alive (changed vertices re-broadcast; drops remove edges and entries
    together), so the witness fold can be recomputed live each round as
    one masked gather plus ``np.bitwise_or.reduceat`` over CSR rows.

    ``warm_mask`` (a boolean vertex array) enables warm-start accounting
    for the very first round: only the flagged vertices are charged as
    round-1 broadcasters.  This models seeding a child prototype's search
    from the parent scope's surviving worklist — a receiver can
    reconstruct an unchanged neighbor's initial mask (a pure function of
    its vertex label) from persisted parent-scope knowledge, so only
    scope-modified vertices need to re-send.  Evaluation is untouched
    (every nonzero vertex is still refined in round 1), so the fixed
    point *and* the iteration count are bit-identical to a cold start;
    only the round-1 message/visit charge shrinks.

    ``carried`` is the round-1 traffic of edges ``astate.csr`` does not
    hold: :func:`~repro.core.arraystate.accounting.cut_traffic` of the
    label view ``M*`` runs on, whose candidates' edges toward unlabelled
    neighbours the same round on ``G`` sends one message along and then
    drops.  It is charged with round 1, and a non-empty cut counts
    round 1 as changed (on ``G`` those drops change it), so the rounds,
    messages and visits equal the fixpoint's on ``G``.

    The semi-naive mode switches rounds dense by rule: when the worklist
    of the *next* round — re-broadcasters plus the ``pending`` vertices
    forced to re-evaluate by witness loss (elimination cascades flow
    almost entirely through ``pending``) — would cover at least
    :data:`ADAPTIVE_DENSITY_THRESHOLD` of the
    surviving role-holding vertices (and the scope is at least
    :data:`ADAPTIVE_MIN_VERTICES` large), the round runs dense —
    evaluating every nonzero vertex, like ``delta=False`` — instead of
    building the received/pending worklist machinery for a worklist that
    is most of the graph anyway.  The fixed point is identical by
    construction (a dense round evaluates a superset of the sparse
    round's vertices against the same witness fold, exactly the
    ``delta=False`` semantics); only the per-round message/visit
    accounting differs.  The switch itself is driven by exact vertex
    counts, never wall clock, so it is fully deterministic for a given
    scope.
    """
    csr = astate.csr
    if astate.roles != kernel.roles:
        raise ValueError("array state and kernel must share one role layout")
    n = csr.num_vertices
    indices = csr.indices
    src = csr.src
    mirror = csr.mirror
    mask = astate.role_mask
    active = astate.vertex_active
    alive = astate.edge_alive

    n_words = astate.n_words
    per_row, any_word, all_words = mask_layout(n_words)

    nbits = len(kernel.roles)
    mcs_mode = mandatory_masks is not None
    edge_labeled = kernel.edge_labeled and not mcs_mode
    # Whole-mask tables replace the per-bit passes wherever they can
    # index a mask: one word, no edge labels, few enough roles.
    tabled = n_words == 1 and not edge_labeled and nbits <= TABLE_MAX_ROLES
    if tabled:
        survive, union = kernel.role_tables(mandatory_masks)
    else:
        #: per-role (bit index, word, in-word bit)
        bits = bit_addresses(nbits)
        neighbor_masks = [kernel.neighbor_masks[1 << b] for b in range(nbits)]
        nm = mask_table(neighbor_masks, n_words)
        #: roles without template edges: the label match suffices under M*
        isolated = [required == 0 for required in neighbor_masks]
        if mcs_mode:
            mand = mask_table(
                [mandatory_masks[1 << b] for b in range(nbits)], n_words
            )
    if edge_labeled:
        ecode = csr.edge_label_codes
        if ecode is None:
            ecode = np.zeros(csr.num_directed_edges, dtype=np.int64)
        any_nm = mask_table(
            [kernel.any_neighbor_masks[1 << b] for b in range(nbits)], n_words
        )
        num_codes = len(csr.edge_label_ids) + 1
        #: per-bit list of (graph edge-label code, required mask)
        labeled_req: List[List[Tuple[int, np.ndarray]]] = []
        #: per-bit: a neighbor is required over an edge label the graph
        #: never carries, so the role can never be witnessed
        unwitnessable: List[bool] = []
        wanted_codes: Set[int] = set()
        #: per-bit acceptable-neighbor mask by graph edge-label code
        lab_rows = [0] * (nbits * num_codes)
        for b in range(nbits):
            reqs = []
            missing = False
            for wanted, required in kernel.labeled_neighbor_masks[1 << b].items():
                code = csr.edge_label_ids.get(wanted)
                if code is None:
                    missing = missing or required != 0
                    continue
                wanted_codes.add(code)
                lab_rows[b * num_codes + code] = required
                reqs.append((code, mask_table([required], n_words)[0]))
            labeled_req.append(reqs)
            unwitnessable.append(missing)
        lab_nm = mask_table(lab_rows, n_words).reshape(
            (nbits, num_codes) + mask.shape[1:]
        )

    accounting = _RoundAccounting(engine, csr)
    tracing = engine.tracer.enabled

    # Per-call tallies, folded into the always-on metrics once the loop
    # ends (normally or not), like the rounds' traffic.
    dense_rounds = sparse_rounds = adaptive_rounds = evaluated = 0
    worklists: List[int] = []

    iterations = 0
    broadcasters: Optional[np.ndarray] = None  # None = full round
    pending = np.zeros(n, dtype=bool)
    received = np.zeros(n, dtype=bool)
    try:
        while True:
            iterations += 1
            round_started = time.perf_counter() if tracing else None

            # --------------------------------------------- broadcast
            nonzero = any_word(mask != _ZERO)
            if broadcasters is None:
                seeds = active
                sending = nonzero
                if iterations == 1 and warm_mask is not None:
                    # Warm start: only scope-modified vertices are charged
                    # for the first broadcast (accounting only — the
                    # witness fold below reads masks directly, never the
                    # sent set).
                    seeds = active & warm_mask
                    sending = nonzero & warm_mask
            else:
                seeds = broadcasters
                sending = broadcasters
            sent = alive & sending[src]
            sent_idx = np.nonzero(sent)[0]
            # `active` mutates below; snapshot the seed set for the
            # round's accounting (taken at the end of the iteration so the
            # trace span covers the whole round, not just the broadcast).
            seed_idx = np.nonzero(seeds)[0]
            received.fill(False)
            delivered = indices[sent_idx]
            received[delivered[active[delivered]]] = True

            # ------------------------------------------ witness fold
            contrib = np.where(per_row(alive[mirror]), mask[indices], _ZERO)
            witnessed = _segment_or(contrib, csr)
            if edge_labeled:
                witnessed_label = {
                    code: _segment_or(
                        np.where(per_row(ecode == code), contrib, _ZERO), csr
                    )
                    for code in wanted_codes
                }

            # --------------------------------------- role refinement
            if broadcasters is None:
                evaluate = nonzero
            else:
                evaluate = (received | pending) & nonzero
            pending = np.zeros(n, dtype=bool)
            idx = np.nonzero(evaluate)[0]
            m_eval = mask[idx]
            w_eval = witnessed[idx]
            if tabled:
                # witness masks are role masks: index the table directly
                surviving = m_eval & survive[w_eval.view(np.int64)]
            else:
                surviving = np.zeros(m_eval.shape, dtype=np.uint64)
                m_words = word_columns(m_eval)
                s_words = word_columns(surviving)
                for b, word, bit in bits:
                    has = (m_words[word] & bit) != _ZERO
                    if not has.any():
                        continue
                    if mcs_mode:
                        if isolated[b]:
                            ok = True  # isolated role: label match suffices
                        else:
                            ok = all_words(
                                (mand[b] & ~w_eval) == _ZERO
                            ) & any_word((nm[b] & w_eval) != _ZERO)
                    elif edge_labeled:
                        if unwitnessable[b]:
                            ok = False
                        else:
                            ok = all_words((any_nm[b] & ~w_eval) == _ZERO)
                            for code, required in labeled_req[b]:
                                wl = witnessed_label[code][idx]
                                ok = ok & all_words((wl & required) == required)
                    else:
                        required = nm[b]
                        ok = all_words((w_eval & required) == required)
                    column = s_words[word]
                    column |= np.where(has & ok, bit, _ZERO)
            changed_eval = any_word(surviving != m_eval)
            mask[idx] = surviving
            changed_vertices = np.zeros(n, dtype=bool)
            changed_vertices[idx[changed_eval]] = True
            elim_idx = idx[changed_eval & all_words(surviving == _ZERO)]

            if elim_idx.shape[0]:
                active[elim_idx] = False
                elim_bool = np.zeros(n, dtype=bool)
                elim_bool[elim_idx] = True
                out_idx = np.nonzero(elim_bool[src] & alive)[0]
                # neighbors losing an inbox witness re-evaluate next round
                pending[indices[out_idx]] = True
                alive[mirror[out_idx]] = False
                alive[out_idx] = False

            # -------------------------------------- edge elimination
            changed = bool(changed_vertices.any())
            nonzero = any_word(mask != _ZERO)
            if broadcasters is None:
                scope = nonzero
                cand = alive & scope[src]
                # pair handled from the smaller-id side when both are
                # candidates
                cand &= csr.vid_gt | ~active[indices]
            else:
                scope = changed_vertices & nonzero
                cand = alive & scope[src]
            cand_idx = np.nonzero(cand)[0]
            if cand_idx.shape[0]:
                ms = mask[src[cand_idx]]
                md = mask[indices[cand_idx]]
                if tabled:
                    viable = (union[ms.view(np.int64)] & md) != _ZERO
                else:
                    viable = np.zeros(cand_idx.shape[0], dtype=bool)
                    if edge_labeled:
                        codes = ecode[cand_idx]
                    ms_words = word_columns(ms)
                    for b, word, bit in bits:
                        has = (ms_words[word] & bit) != _ZERO
                        if not has.any():
                            continue
                        if edge_labeled:
                            acceptable = any_nm[b] | lab_nm[b][codes]
                        else:
                            acceptable = nm[b]
                        viable |= has & any_word((acceptable & md) != _ZERO)
                drop_idx = cand_idx[~viable]
                if drop_idx.shape[0]:
                    changed = True
                    dst_t = indices[drop_idx]
                    pending[dst_t[active[dst_t]]] = True
                    rev = mirror[drop_idx]
                    src_t = src[drop_idx]
                    pending[src_t[alive[rev]]] = True
                    alive[drop_idx] = False
                    alive[rev] = False

            if iterations == 1 and carried is not None and carried.any():
                changed = True  # on G, round 1 drops the carried edges
            accounting.record_round(
                seed_idx, sent_idx, round_started,
                carried if iterations == 1 else None,
            )
            if broadcasters is None:
                dense_rounds += 1
            else:
                sparse_rounds += 1
            worklists.append(seed_idx.shape[0])
            evaluated += idx.shape[0]
            if not changed:
                break
            if delta:
                broadcasters = changed_vertices & nonzero
                scope_count = int(np.count_nonzero(nonzero))
                if scope_count >= ADAPTIVE_MIN_VERTICES:
                    # The round's true worklist: re-broadcasters plus the
                    # witness-loss re-evaluations queued in `pending`
                    # (elimination cascades have *empty* broadcaster sets
                    # — all their work arrives via `pending`).
                    worklist_count = int(
                        np.count_nonzero(broadcasters | (pending & nonzero))
                    )
                    if worklist_count >= (
                        ADAPTIVE_DENSITY_THRESHOLD * scope_count
                    ):
                        # The worklist is most of the scope: run the next
                        # round dense (delta=False semantics, a superset
                        # of the sparse evaluation — same fixed point).
                        broadcasters = None
                        adaptive_rounds += 1
            else:
                broadcasters = None
    finally:
        # Whatever ran is charged, even when a round raised.
        accounting.flush()
        metrics = engine.metrics
        metrics.counter("fixpoint.rounds_dense").inc(dense_rounds)
        metrics.counter("fixpoint.rounds_sparse").inc(sparse_rounds)
        metrics.counter("fixpoint.rounds_adaptive_dense").inc(adaptive_rounds)
        metrics.counter("fixpoint.worklist_vertices").inc(sum(worklists))
        metrics.counter("fixpoint.active_vertices").inc(evaluated)
        h_worklist = metrics.histogram("fixpoint.worklist_size")
        for worklist in worklists:
            h_worklist.observe(worklist)
    return iterations
