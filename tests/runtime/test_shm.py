"""Shared-memory CSR lifecycle and pooled-payload parity tests.

Covers the three guarantees of the zero-copy pool:

* segment lifecycle — owner creates/unlinks exactly once, attachers get
  read-only zero-copy views, nothing leaks after pool close or a worker
  exception (``/dev/shm`` is scanned directly);
* payload parity — a packed-bitmap ``array`` task reconstructs, worker
  side, exactly the scope the legacy dict payload ships;
* result parity — pooled runs (shm bitmaps on or off) are bit-identical
  to the sequential dict oracle on KERNEL-STRESS- and NLCC-STRESS-shaped
  workloads, and stable across repeated runs (the dropped per-vertex
  ``sorted()`` in ``state_to_payload`` must not matter).
"""

import contextlib
import glob
import os
import pickle
import signal

import numpy as np
import pytest

from repro.core import PipelineOptions, run_pipeline
from repro.core.arraystate import ArraySearchState, csr_of
from repro.core.candidate_set import max_candidate_set
from repro.core.template import PatternTemplate
from repro.core.topdown import exploratory_search
from repro.errors import WorkerPoolError
from repro.graph.generators.random_labeled import gnm_graph
from repro.runtime import Engine, MessageStats, PartitionedGraph, parallel
from repro.runtime.parallel import (
    PoolTask,
    PrototypeSearchPool,
    _search_task,
    array_task,
)
from repro.runtime.shm import (
    SharedGraphCsr,
    attach_shared_csr,
    detach_all,
    owned_segment_names,
)


def shm_segments():
    """Names of our segments currently present in /dev/shm."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - tmpfs-less host
        return []
    return sorted(
        os.path.basename(p) for p in glob.glob("/dev/shm/repro-csr-*")
    )


def assert_no_segments():
    assert owned_segment_names() == []
    assert shm_segments() == []


@contextlib.contextmanager
def deadline(seconds):
    """Fail (instead of hanging the suite) if the block outlives ``seconds``."""
    def expired(signum, frame):
        raise TimeoutError(f"still blocked after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _die_in_worker(task):
    """Stands in for ``_search_task``: the worker vanishes mid-task."""
    os._exit(1)


def kernel_workload():
    """A scaled-down KERNEL-STRESS: low-label-diversity G(n, m) + path."""
    graph = gnm_graph(600, 2000, num_labels=4, seed=7)
    labels = {v: v % 4 for v in range(6)}
    edges = [(v, v + 1) for v in range(5)]
    template = PatternTemplate.from_edges(edges, labels, name="shm-path6")
    return graph, template


def nlcc_workload():
    """A scaled-down NLCC-STRESS: two-label G(n, m) with hubs + C4."""
    graph = gnm_graph(300, 900, num_labels=2, seed=13)
    rng = np.random.default_rng(17)
    for hub in rng.choice(300, size=2, replace=False).tolist():
        for v in rng.choice(300, size=30, replace=False).tolist():
            if v != hub and not graph.has_edge(hub, v):
                graph.add_edge(hub, v)
    template = PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        {0: 0, 1: 1, 2: 1, 3: 0},
        name="shm-c4",
    )
    return graph, template


def array_options(**overrides):
    return PipelineOptions(num_ranks=2, count_matches=True, **overrides)


def assert_results_equal(got, want, stats=False):
    """Results must match; execution stats (``stats=True``) only between
    pooled runs — sequential sweeps share one NLCC recycling cache across
    all prototypes, so their token counts legitimately differ from a
    pool's per-worker caches.  The launched/recycled *split* is compared
    as a sum: which worker serves which prototype is executor-scheduling
    dependent, and a warm cache turns a launch into a recycle — only the
    total token demand per prototype is deterministic."""
    assert got.match_vectors == want.match_vectors
    for proto in want.prototype_set:
        g = got.outcome_for(proto.id)
        w = want.outcome_for(proto.id)
        assert g.solution_vertices == w.solution_vertices
        assert g.solution_edges == w.solution_edges
        assert g.match_mappings == w.match_mappings
        assert g.distinct_matches == w.distinct_matches
        if stats:
            assert (
                g.counts.get("nlcc.tokens_launched", 0) + g.counts.get("cache.nlcc.hits", 0)
                == w.counts.get("nlcc.tokens_launched", 0) + w.counts.get("cache.nlcc.hits", 0)
            )
            assert g.lcc_iterations == w.lcc_iterations
            assert g.post_lcc_vertices == w.post_lcc_vertices
            assert g.post_lcc_edges == w.post_lcc_edges


class TestSegmentLifecycle:
    def test_attach_roundtrip_zero_copy(self):
        graph, _template = kernel_workload()
        csr = csr_of(graph)
        shared = SharedGraphCsr(csr)
        try:
            assert shared.name in owned_segment_names()
            assert shared.name in shm_segments()
            attached = attach_shared_csr(shared.handle, graph)
            for slot, _dtype, _length, _offset in shared.handle.layout:
                original = getattr(csr, slot)
                view = getattr(attached, slot)
                assert np.array_equal(view, original)
                assert view.dtype == original.dtype
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0] = 0
            assert attached.index_of == csr.index_of
            assert attached.num_vertices == csr.num_vertices
            assert attached.num_directed_edges == csr.num_directed_edges
            assert attached.label_ids == csr.label_ids
            assert attached.edge_label_codes is None
        finally:
            del attached, view, original  # release views so detach unmaps
            detach_all()
            shared.close()
        assert_no_segments()

    def test_handle_survives_pickling(self):
        graph, _template = kernel_workload()
        with SharedGraphCsr(csr_of(graph)) as shared:
            handle = pickle.loads(pickle.dumps(shared.handle))
            assert handle.name == shared.handle.name
            assert handle.layout == shared.handle.layout
            assert handle.meta == shared.handle.meta
            attached = attach_shared_csr(handle, graph)
            assert attached.num_vertices == csr_of(graph).num_vertices
            del attached  # release views so detach unmaps
            detach_all()
        assert_no_segments()

    def test_close_unlinks_and_is_idempotent(self):
        graph, _template = kernel_workload()
        shared = SharedGraphCsr(csr_of(graph))
        name = shared.name
        shared.close()
        assert name not in shm_segments()
        from multiprocessing.shared_memory import SharedMemory

        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)
        shared.close()  # second close is a no-op
        assert_no_segments()

    def test_stale_payload_version_refuses_to_attach(self):
        # Protocol drift between owner and worker builds must fail loudly
        # at attach time, not corrupt reads later.
        graph, _template = kernel_workload()
        with SharedGraphCsr(csr_of(graph)) as shared:
            stale = pickle.loads(pickle.dumps(shared.handle))
            stale.meta["payload_version"] = 1
            with pytest.raises(ValueError, match="payload version 1"):
                attach_shared_csr(stale, graph)
            missing = pickle.loads(pickle.dumps(shared.handle))
            del missing.meta["payload_version"]
            with pytest.raises(ValueError, match="payload version None"):
                attach_shared_csr(missing, graph)
            # the refused attaches must not have registered a mapping
            assert not owned_segment_names() or shared.name in shm_segments()
            detach_all()
        assert_no_segments()

    def test_double_close_clears_owner_registry_once(self):
        graph, _template = kernel_workload()
        shared = SharedGraphCsr(csr_of(graph))
        name = shared.name
        assert name in owned_segment_names()
        shared.close()
        assert shared._shm is None
        assert name not in owned_segment_names()
        shared.close()  # no FileNotFoundError, no registry mutation
        assert shared._shm is None
        assert_no_segments()

    def test_owner_unlink_after_worker_crash(self):
        # Simulate a worker that attached and then died without detaching:
        # attach in-process (the mapping outlives the "worker"), close the
        # owner, and verify the segment is gone and a fresh attach fails.
        graph, _template = kernel_workload()
        shared = SharedGraphCsr(csr_of(graph))
        name = shared.name
        handle = pickle.loads(pickle.dumps(shared.handle))
        attached = attach_shared_csr(handle, graph)
        assert attached.num_vertices == csr_of(graph).num_vertices
        del attached  # the crashed worker's views are garbage now
        shared.close()  # owner tears down regardless of the stale attacher
        assert name not in shm_segments()
        assert name not in owned_segment_names()
        detach_all()  # drop the stale mapping cached under the dead name
        with pytest.raises(FileNotFoundError):
            attach_shared_csr(handle, graph)
        detach_all()
        assert_no_segments()

    def test_context_manager_cleans_up_on_exception(self):
        graph, _template = kernel_workload()
        name = None
        with pytest.raises(RuntimeError):
            with SharedGraphCsr(csr_of(graph)) as shared:
                name = shared.name
                raise RuntimeError("boom")
        assert name is not None
        assert name not in shm_segments()
        assert_no_segments()


class TestPoolLifecycle:
    def test_pooled_run_leaves_no_segments(self):
        graph, template = kernel_workload()
        run_pipeline(graph, template, 1, array_options(worker_processes=2))
        assert_no_segments()

    def test_worker_exception_does_not_leak(self):
        graph, template = kernel_workload()
        pool = PrototypeSearchPool(
            graph, template, 1, array_options(worker_processes=2), 2
        )
        name = pool._shm.name
        assert name in shm_segments()
        # An unknown prototype id blows up inside the worker; the pool
        # (and its segment) must still tear down cleanly afterwards.
        future = pool._pool.submit(
            _search_task, PoolTask(999, "array", (b"", b"", None), 0)
        )
        with pytest.raises(KeyError):
            future.result()
        pool.close()
        assert name not in shm_segments()
        assert_no_segments()

    def test_dead_worker_is_a_typed_error_without_leak_or_hang(
        self, monkeypatch
    ):
        # Workers fork at the first submit, after the patch, so the level's
        # tasks run the stand-in and the executor breaks.
        monkeypatch.setattr(parallel, "_search_task", _die_in_worker)
        graph, template = kernel_workload()
        pool = PrototypeSearchPool(
            graph, template, 1, array_options(worker_processes=2), 2
        )
        name = pool._shm.name
        tasks = [PoolTask(i, "array", (b"", b"", None), 1) for i in range(3)]
        with deadline(60), pytest.raises(WorkerPoolError) as raised:
            pool.search_level(tasks)
        assert "worker died" in str(raised.value)
        # search_level closed the pool itself; close() stays idempotent
        assert name not in shm_segments()
        pool.close()
        assert_no_segments()

        # the drivers surface the same error and return no partial result
        graph, template = nlcc_workload()
        with deadline(60), pytest.raises(WorkerPoolError):
            run_pipeline(graph, template, 1, array_options(worker_processes=2))
        assert_no_segments()

    def test_reference_backend_exports_nothing(self):
        graph, template = kernel_workload()
        with PrototypeSearchPool(
            graph, template, 1,
            array_options(worker_processes=2, backend="reference"), 2,
        ) as pool:
            assert pool._shm is None
            assert_no_segments()


class TestPayloadParity:
    def test_mask_payload_matches_dict_payload(self):
        graph, template = kernel_workload()
        csr = csr_of(graph)
        options = array_options()
        pgraph = PartitionedGraph(graph, options.num_ranks)
        engine = Engine(pgraph, MessageStats(options.num_ranks), options.batch_size)
        base_state = max_candidate_set(graph, template, engine)
        base_astate = ArraySearchState.from_search_state(
            base_state, roles=sorted(template.graph.vertices())
        )
        from repro.core.prototypes import generate_prototypes

        for proto in generate_prototypes(template, 1, None):
            ascope = base_astate.for_prototype_search(proto)
            task = array_task(proto.id, ascope)
            vertex_bits, edge_bits, warm_bits = task.data
            assert warm_bits is None
            rebuilt = ArraySearchState.from_scope_payload(
                csr, proto, vertex_bits, edge_bits
            )
            assert np.array_equal(rebuilt.vertex_active, ascope.vertex_active)
            assert np.array_equal(rebuilt.edge_alive, ascope.edge_alive)
            assert np.array_equal(rebuilt.role_mask, ascope.role_mask)
            dict_scope = base_state.for_prototype_search(proto)
            state = rebuilt.to_search_state()
            assert state.candidates == dict_scope.candidates
            assert state.active_edges == dict_scope.active_edges

    def test_array_payload_bytes_much_smaller_than_dict(self):
        graph, template = kernel_workload()
        options = array_options()
        pgraph = PartitionedGraph(graph, options.num_ranks)
        engine = Engine(pgraph, MessageStats(options.num_ranks), options.batch_size)
        base_state = max_candidate_set(graph, template, engine)
        base_astate = ArraySearchState.from_search_state(
            base_state, roles=sorted(template.graph.vertices())
        )
        from repro.core.prototypes import generate_prototypes
        from repro.runtime.parallel import dict_task

        proto = next(iter(generate_prototypes(template, 1, None)))
        packed = array_task(proto.id, base_astate.for_prototype_search(proto))
        legacy = dict_task(proto.id, base_state.for_prototype_search(proto))
        assert len(pickle.dumps(packed)) * 10 < len(pickle.dumps(legacy))


@pytest.mark.usefixtures("complete_constraint_lists")
class TestPooledParity:
    """Both backends run the complete lists here, so the pooled runs'
    walk statistics are comparable across backends."""

    @pytest.mark.parametrize("workload", [kernel_workload, nlcc_workload])
    def test_pipeline_matches_sequential(self, workload):
        graph, template = workload()
        sequential = run_pipeline(graph, template, 1, array_options())
        pooled_shm = run_pipeline(
            graph, template, 1, array_options(worker_processes=2)
        )
        pooled_dict = run_pipeline(
            graph, template, 1,
            array_options(worker_processes=2, backend="reference"),
        )
        assert_results_equal(pooled_shm, sequential)
        assert_results_equal(pooled_dict, sequential)
        assert_results_equal(pooled_shm, pooled_dict, stats=True)
        assert_no_segments()

    def test_exploratory_matches_sequential(self):
        graph, template = nlcc_workload()
        force_all = dict(stop_condition=lambda level: False)
        sequential = exploratory_search(
            graph, template, 1, options=array_options(), **force_all
        )
        pooled = exploratory_search(
            graph, template, 1,
            options=array_options(worker_processes=2), **force_all
        )
        assert_results_equal(pooled, sequential)
        assert_no_segments()

    def test_pooled_results_order_stable(self):
        # state_to_payload ships role sets unsorted; determinism must come
        # from task-order result collection, in both payload formats.
        graph, template = nlcc_workload()
        first = run_pipeline(
            graph, template, 1,
            array_options(worker_processes=2, backend="reference"),
        )
        second = run_pipeline(
            graph, template, 1,
            array_options(worker_processes=2, backend="reference"),
        )
        shm = run_pipeline(
            graph, template, 1, array_options(worker_processes=2)
        )
        assert_results_equal(second, first, stats=True)
        assert_results_equal(shm, first, stats=True)
