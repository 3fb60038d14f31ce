"""The interprocedural rules (R9–R13) behind ``repro analyze``.

These rules reason across function boundaries — call graph, CFG,
dataflow, effect summaries — and are therefore slower and subtler than
the per-file passes in :mod:`.rules`.  They carry ``deep = True``: the
default ``repro lint`` run skips them, ``repro analyze`` /
``repro lint --deep`` / an explicit ``--rule R9`` runs them.

Each rule guards one contract that has no runtime tripwire:

* **R9** ``shm-use-after-release`` — a shared-memory segment (or a view
  derived from one) must not be touched after ``close()``/``unlink()``
  released it, including releases a helper performed on the caller's
  behalf.  Reading a closed segment is a use-after-free that numpy
  cannot detect: the mapping is gone or recycled.
* **R10** ``resident-state-immutability`` — :class:`GraphCsr` /
  :class:`RoleKernel` instances are frozen after construction
  (``.setflags(write=False)`` is the runtime boundary); no attribute
  rebinding or in-place array stores afterwards, because the instances
  are shared across worker processes and memoized caches.
* **R11** ``pickles-empty-export`` — types that deliberately pickle to
  empty (``Tracer``, ``MetricsRegistry``) lose all worker-side state at
  the process boundary; workers must export that state into the result
  payload and the parent must merge it.
* **R12** ``dtype-contract`` — CSR arrays are fixed-width integers;
  object-dtype escapes and silent int→float upcasts (numpy's float64
  default, true division) defeat the vectorized kernels or crash
  indexing.
* **R13** ``options-threading-interprocedural`` — a
  ``PipelineOptions`` field read in a leaf function is only honored if
  every driver call chain forwards ``options`` down to it; a defaulted
  ``options`` parameter that the caller silently omits resets the leaf
  to defaults.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import CallGraph, CallSite, annotation_class, callgraph_of
from .cfg import BranchMarker, WithExit, build_cfg
from .dataflow import Analysis, solve, statement_facts
from .effects import (
    EffectsIndex,
    dtype_label,
    effects_of,
    map_arguments,
)
from .framework import ModuleSource, Project, Rule, Violation, register_rule

__all__ = [
    "ShmUseAfterReleaseRule",
    "ResidentStateImmutabilityRule",
    "PicklesEmptyExportRule",
    "DtypeContractRule",
    "OptionsThreadingDeepRule",
]

#: constructors/attachers whose result is (or wraps) a shared-memory
#: mapping — the values R9 tracks
SHM_SOURCES = frozenset(
    {"share_csr", "attach_shared_csr", "SharedGraphCsr", "SharedMemory"}
)

#: the wrapper module implementing the ownership protocol itself —
#: close-then-unlink inside it is the protocol, not a violation
SHM_WRAPPER_BASENAMES = frozenset({"shm.py"})

#: classes whose instances are immutable once constructed
RESIDENT_CLASSES = frozenset({"GraphCsr", "RoleKernel"})

#: calls returning an already-constructed resident instance
RESIDENT_PRODUCERS = frozenset(
    {"csr_of", "cached_kernel", "from_columns", "induced_view",
     "attach_shared_csr"}
)

#: methods of resident classes allowed to initialize ``self``
CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

#: types whose ``__reduce__`` ships no state across the process boundary
PICKLES_EMPTY_TYPES = frozenset({"Tracer", "MetricsRegistry"})

#: methods that move pickles-empty state into a picklable payload
EXPORT_METHODS = frozenset({"export", "to_payload"})

#: executor methods that ship a callable to another process
SUBMIT_METHODS = frozenset({"submit", "map", "apply_async"})

#: GraphCsr slots that must stay integer-family dtypes
INT_SLOTS = frozenset(
    {"order", "indptr", "indices", "src", "mirror", "pair_keys", "degrees",
     "zero_degree", "label_codes", "pair_code", "edge_label_codes"}
)


def _call_final_name(node: ast.Call) -> str:
    """Last path component of the called name (``np.zeros`` -> zeros)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_shm_source(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and _call_final_name(node) in SHM_SOURCES
    )


def _shallow_nodes(statement: object) -> Iterator[ast.AST]:
    """AST nodes belonging to *this* statement, not to nested bodies.

    CFG blocks hold compound statements (With/For) whose ``.body`` lives
    in other blocks — a naive ``ast.walk`` would double-count it.
    """
    if isinstance(statement, BranchMarker):
        yield from ast.walk(statement.test)
    elif isinstance(statement, WithExit):
        return
    elif isinstance(statement, (ast.With, ast.AsyncWith)):
        for item in statement.items:
            yield from ast.walk(item.context_expr)
            if item.optional_vars is not None:
                yield from ast.walk(item.optional_vars)
    elif isinstance(statement, (ast.For, ast.AsyncFor)):
        yield from ast.walk(statement.target)
        yield from ast.walk(statement.iter)
    elif isinstance(
        statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return
    elif isinstance(statement, ast.stmt):
        yield from ast.walk(statement)


def _assigned_names(statement: object) -> Set[str]:
    """Local names (re)bound by this statement."""
    names: Set[str] = set()
    if isinstance(statement, ast.Assign):
        for target in statement.targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    names.add(node.id)
    elif isinstance(statement, ast.AnnAssign):
        if isinstance(statement.target, ast.Name) and statement.value:
            names.add(statement.target.id)
    elif isinstance(statement, (ast.With, ast.AsyncWith)):
        for item in statement.items:
            if isinstance(item.optional_vars, ast.Name):
                names.add(item.optional_vars.id)
    elif isinstance(statement, (ast.For, ast.AsyncFor)):
        for node in ast.walk(statement.target):
            if isinstance(node, ast.Name):
                names.add(node.id)
    elif isinstance(statement, ast.Delete):
        for target in statement.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


# ----------------------------------------------------------------------
# R9: use of shared memory after release
# ----------------------------------------------------------------------
class _ReleaseState:
    """Per-function context shared by the R9 transfer function."""

    def __init__(
        self,
        roots: Set[str],
        derived: Dict[str, Set[str]],
        sites: Dict[int, CallSite],
        effects: EffectsIndex,
    ) -> None:
        self.roots = roots            #: names bound to shm segments
        self.derived = derived        #: name -> shm roots it aliases
        self.sites = sites            #: id(call node) -> CallSite
        self.effects = effects

    def roots_of(self, name: str) -> Set[str]:
        if name in self.roots:
            return {name}
        return self.derived.get(name, set())

    def releases(self, statement: object) -> Set[str]:
        released: Set[str] = set()
        if isinstance(statement, WithExit):
            for item in statement.items:
                if _is_shm_source(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    released.add(item.optional_vars.id)
            return released
        for node in _shallow_nodes(statement):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("close", "unlink")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in self.roots):
                released.add(func.value.id)
                continue
            site = self.sites.get(id(node))
            if site is None:
                continue
            for callee_qname in site.callees:
                callee = self.effects.graph.functions.get(callee_qname)
                callee_fx = self.effects.by_qname.get(callee_qname)
                if callee is None or callee_fx is None:
                    continue
                if not callee_fx.closes:
                    continue
                for arg, param in map_arguments(node, callee):
                    if (isinstance(arg, ast.Name)
                            and arg.id in self.roots
                            and param in callee_fx.closes):
                        released.add(arg.id)
        return released


class _ReleaseAnalysis(Analysis):
    """Forward may-analysis: names released on *some* path so far."""

    may = True

    def __init__(self, state: _ReleaseState) -> None:
        self.state = state

    def transfer(self, fact, statement):
        released = set(fact)
        released |= self.state.releases(statement)
        # a rebind installs a fresh value under the name
        released -= _assigned_names(statement)
        return frozenset(released)


@register_rule
class ShmUseAfterReleaseRule(Rule):
    """Shared-memory views must not be used after close()/unlink()."""

    id = "R9"
    title = "shm-use-after-release"
    deep = True
    rationale = (
        "reading a numpy view into a closed SharedMemory segment is a "
        "use-after-free the interpreter cannot catch — the mapping is "
        "unmapped (crash) or recycled (silent garbage)"
    )
    contract = (
        "A name bound to a shared-memory segment (share_csr, "
        "attach_shared_csr, SharedGraphCsr, SharedMemory) — or any view "
        "derived from one — must not be read after a path on which it "
        "was released via .close()/.unlink(), whether the release "
        "happened inline, at a with-block exit, or inside a helper the "
        "segment was passed to.  Re-calling .close()/.unlink() stays "
        "legal (the wrapper is idempotent), and rebinding the name "
        "starts a fresh lifetime."
    )
    example_bad = (
        "shared = share_csr(csr)\n"
        "view = shared.view()\n"
        "shared.close()\n"
        "total = view.indptr[-1]   # R9: view derived from closed segment\n"
    )
    example_good = (
        "shared = share_csr(csr)\n"
        "view = shared.view()\n"
        "total = view.indptr[-1]\n"
        "shared.close()            # release strictly after the last use\n"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = callgraph_of(project)
        effects = effects_of(project)
        for qname, info in graph.functions.items():
            module = info.module
            if module.basename in SHM_WRAPPER_BASENAMES:
                continue
            yield from self._check_function(
                module, qname, info.node, graph, effects
            )

    # ------------------------------------------------------------------
    def _collect(
        self, func_node: ast.AST
    ) -> Tuple[Set[str], Dict[str, Set[str]]]:
        """(shm-rooted names, derived-name -> roots) for one function."""
        roots: Set[str] = set()
        for node in ast.walk(func_node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _is_shm_source(
                    node.value
                ):
                    roots.add(target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if _is_shm_source(item.context_expr) and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        roots.add(item.optional_vars.id)
        derived: Dict[str, Set[str]] = {}
        for _round in range(3):  # alias-of-alias chains are shallow
            changed = False
            for node in ast.walk(func_node):
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    continue
                target = node.targets[0].id
                if target in roots or _is_shm_source(node.value):
                    continue
                sources: Set[str] = set()
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        if sub.id in roots:
                            sources.add(sub.id)
                        else:
                            sources |= derived.get(sub.id, set())
                if sources - derived.get(target, set()):
                    derived.setdefault(target, set()).update(sources)
                    changed = True
            if not changed:
                break
        return roots, derived

    def _check_function(
        self,
        module: ModuleSource,
        qname: str,
        func_node: ast.AST,
        graph: CallGraph,
        effects: EffectsIndex,
    ) -> Iterator[Violation]:
        roots, derived = self._collect(func_node)
        if not roots:
            return
        sites = {
            id(site.node): site
            for site in graph.calls_from.get(qname, ())
        }
        state = _ReleaseState(roots, derived, sites, effects)
        analysis = _ReleaseAnalysis(state)
        cfg = build_cfg(func_node)
        in_facts = solve(cfg, analysis)
        reported: Set[int] = set()
        for statement, fact in statement_facts(cfg, analysis, in_facts):
            if not fact:
                continue
            for node in _shallow_nodes(statement):
                if not (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)):
                    continue
                hit = state.roots_of(node.id) & fact
                if not hit:
                    continue
                if self._is_release_receiver(node, module):
                    continue  # re-close/unlink is idempotent, allowed
                if node.id not in state.roots and not self._dereferences(
                    node, module
                ):
                    # derived names may hold scalar copies (shared.size);
                    # only a dereference provably touches the mapping
                    continue
                if id(node) in reported:
                    continue
                reported.add(id(node))
                root = ", ".join(sorted(hit))
                yield module.violation(
                    self, node,
                    f"'{node.id}' used after shared-memory segment "
                    f"'{root}' was released on some path "
                    f"(close()/unlink() already ran)",
                )

    @staticmethod
    def _dereferences(node: ast.Name, module: ModuleSource) -> bool:
        """True when the use reads through the value (attr/subscript)."""
        parent = module.parents.get(node)
        return (
            (isinstance(parent, ast.Attribute) and parent.value is node)
            or (isinstance(parent, ast.Subscript)
                and parent.value is node)
        )

    @staticmethod
    def _is_release_receiver(node: ast.Name, module: ModuleSource) -> bool:
        parent = module.parents.get(node)
        grand = module.parents.get(parent) if parent is not None else None
        return (
            isinstance(parent, ast.Attribute)
            and parent.attr in ("close", "unlink")
            and isinstance(grand, ast.Call)
            and grand.func is parent
        )


# ----------------------------------------------------------------------
# R10: resident state is immutable after construction
# ----------------------------------------------------------------------
@register_rule
class ResidentStateImmutabilityRule(Rule):
    """No stores into GraphCsr/RoleKernel state after construction."""

    id = "R10"
    title = "resident-state-immutability"
    deep = True
    rationale = (
        "GraphCsr and RoleKernel instances are memoized and shared "
        "across worker processes; a post-construction store corrupts "
        "every holder of the reference and desynchronizes shm copies"
    )
    contract = (
        "After construction ends (the .setflags(write=False) freeze), "
        "GraphCsr and RoleKernel instances are immutable: no attribute "
        "rebinding (csr.indptr = ...), no in-place array stores "
        "(csr.indices[k] = ...; alias = csr.src; alias[k] = ...), and "
        "no thawing (csr.indptr.flags.writeable = True).  Stores are "
        "legal only while constructing: inside __init__/__new__/"
        "__post_init__ of the class itself, or onto a local the same "
        "function just created via ClassName(...) / "
        "ClassName.__new__(ClassName)."
    )
    example_bad = (
        "csr = csr_of(graph)\n"
        "csr.degrees[v] -= 1        # R10: in-place store into resident array\n"
        "csr.indptr = new_indptr    # R10: attribute rebinding\n"
    )
    example_good = (
        "view = GraphCsr.__new__(GraphCsr)   # construction scope\n"
        "view.degrees = degrees.copy()       # ok: still constructing\n"
        "view.degrees.setflags(write=False)  # freeze ends construction\n"
    )

    def check_module(
        self, project: Project, module: ModuleSource
    ) -> Iterator[Violation]:
        yield from self._check_self_stores(module)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    # ------------------------------------------------------------------
    def _check_self_stores(
        self, module: ModuleSource
    ) -> Iterator[Violation]:
        """self.x = ... outside construction methods of resident classes."""
        for class_node in ast.walk(module.tree):
            if not (isinstance(class_node, ast.ClassDef)
                    and class_node.name in RESIDENT_CLASSES):
                continue
            for method in class_node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name in CONSTRUCTION_METHODS:
                    continue
                for node in ast.walk(method):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self"):
                        yield module.violation(
                            self, node,
                            f"store into self.{node.attr} outside "
                            f"construction of resident class "
                            f"{class_node.name} (only "
                            f"{'/'.join(sorted(CONSTRUCTION_METHODS))} "
                            f"may initialize)",
                        )

    # ------------------------------------------------------------------
    def _resident_names(
        self, func_node: ast.AST
    ) -> Tuple[Set[str], Set[str], Dict[str, str]]:
        """(resident names, construction-scope names, array aliases).

        Array aliases map ``a`` -> ``csr`` for ``a = csr.attr``.
        """
        resident: Set[str] = set()
        constructing: Set[str] = set()
        args = getattr(func_node, "args", None)
        if args is not None:
            for arg in (list(getattr(args, "posonlyargs", []))
                        + list(args.args) + list(args.kwonlyargs)):
                cls = annotation_class(arg.annotation)
                if cls in RESIDENT_CLASSES:
                    resident.add(arg.arg)
        for node in ast.walk(func_node):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)):
                continue
            target = node.targets[0].id
            call = node.value
            name = _call_final_name(call)
            if name in RESIDENT_CLASSES or (
                name == "__new__"
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id in RESIDENT_CLASSES
            ):
                constructing.add(target)
                resident.discard(target)
            elif name in RESIDENT_PRODUCERS:
                resident.add(target)
                constructing.discard(target)
        aliases: Dict[str, str] = {}
        for node in ast.walk(func_node):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in resident):
                aliases[node.targets[0].id] = node.value.value.id
        return resident, constructing, aliases

    def _check_function(
        self, module: ModuleSource, func_node: ast.AST
    ) -> Iterator[Violation]:
        resident, _constructing, aliases = self._resident_names(func_node)
        if not resident and not aliases:
            return
        for node in ast.walk(func_node):
            # csr.attr = ... (attribute rebinding)
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in resident):
                yield module.violation(
                    self, node,
                    f"attribute rebinding {node.value.id}.{node.attr} "
                    f"on resident instance after construction",
                )
            # csr.attr[...] = ... / alias[...] = ... (in-place store)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Store
            ):
                base = node.value
                if (isinstance(base, ast.Attribute)
                        and isinstance(base.value, ast.Name)
                        and base.value.id in resident):
                    yield module.violation(
                        self, node,
                        f"in-place store into "
                        f"{base.value.id}.{base.attr}[...] on resident "
                        f"instance (arrays are frozen after "
                        f"construction)",
                    )
                elif isinstance(base, ast.Name) and base.id in aliases:
                    yield module.violation(
                        self, node,
                        f"in-place store through '{base.id}', an alias "
                        f"of resident array "
                        f"{aliases[base.id]}.<slot> (arrays are frozen "
                        f"after construction)",
                    )
            # csr.attr.flags.writeable = True (thawing)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and node.attr == "writeable"):
                chain = node.value
                if (isinstance(chain, ast.Attribute)
                        and chain.attr == "flags"
                        and isinstance(chain.value, ast.Attribute)
                        and isinstance(chain.value.value, ast.Name)
                        and chain.value.value.id in resident):
                    parent = module.parents.get(node)
                    value = getattr(parent, "value", None)
                    if not (isinstance(value, ast.Constant)
                            and value.value is False):
                        yield module.violation(
                            self, node,
                            f"thawing resident array "
                            f"{chain.value.value.id}."
                            f"{chain.value.attr} "
                            f"(writeable may only be set to False)",
                        )


# ----------------------------------------------------------------------
# R11: pickles-empty worker state must be exported and merged
# ----------------------------------------------------------------------
@register_rule
class PicklesEmptyExportRule(Rule):
    """Worker-side Tracer/MetricsRegistry state must cross the boundary."""

    id = "R11"
    title = "pickles-empty-export"
    deep = True
    rationale = (
        "Tracer and MetricsRegistry pickle to empty by design; state "
        "accumulated inside a worker process silently evaporates unless "
        "the worker exports it into the result payload and the parent "
        "merges it"
    )
    contract = (
        "A function shipped to a worker (via executor submit/map/"
        "apply_async or a pool initializer) that constructs a "
        "pickles-empty type (Tracer, MetricsRegistry) and mutates it "
        "must call .export()/.to_payload() on that instance before "
        "returning, and the submitting module must merge worker "
        "payloads parent-side (a .merge(...) call)."
    )
    example_bad = (
        "def _task(payload):\n"
        "    registry = MetricsRegistry()\n"
        "    registry.incr('steps', run(payload))\n"
        "    return {'ok': True}     # R11: registry state dropped\n"
    )
    example_good = (
        "def _task(payload):\n"
        "    registry = MetricsRegistry()\n"
        "    registry.incr('steps', run(payload))\n"
        "    return {'ok': True, 'metrics': registry.export()}\n"
        "# parent: outcome.metrics.merge(payload['metrics'])\n"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = callgraph_of(project)
        entries, submit_sites = self._worker_entries(project, graph)
        if not entries:
            return
        dropping: Set[str] = set()
        for entry_qname in sorted(entries):
            info = graph.functions.get(entry_qname)
            if info is None:
                continue
            module_path = entry_qname.split("::", 1)[0]
            for qname in sorted(graph.reachable_from({entry_qname})):
                if qname.split("::", 1)[0] != module_path:
                    continue  # cross-module helpers: parent-side code
                reached = graph.functions[qname]
                for violation in self._check_worker_function(
                    reached.module, reached.node
                ):
                    dropping.add(entry_qname)
                    yield violation
        # parent side: a module that ships workers touching
        # pickles-empty state must merge the payloads back
        for module, node, worker_qnames in submit_sites:
            touches = any(
                self._constructs_pickles_empty(graph, q)
                for q in worker_qnames
            )
            if touches and not self._module_merges(module):
                yield module.violation(
                    self, node,
                    "worker payloads carry pickles-empty state "
                    "(Tracer/MetricsRegistry) but this module never "
                    "merges it parent-side (.merge(...) missing)",
                )

    # ------------------------------------------------------------------
    def _worker_entries(
        self, project: Project, graph: CallGraph
    ) -> Tuple[Set[str], List[Tuple[ModuleSource, ast.AST, Tuple[str, ...]]]]:
        entries: Set[str] = set()
        submit_sites: List[
            Tuple[ModuleSource, ast.AST, Tuple[str, ...]]
        ] = []
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                referenced: List[str] = []
                is_submit = False
                if (isinstance(func, ast.Attribute)
                        and func.attr in SUBMIT_METHODS
                        and node.args
                        and isinstance(node.args[0], ast.Name)):
                    referenced.append(node.args[0].id)
                    is_submit = True
                for keyword in node.keywords:
                    if keyword.arg == "initializer" and isinstance(
                        keyword.value, ast.Name
                    ):
                        referenced.append(keyword.value.id)
                resolved: List[str] = []
                for name in referenced:
                    resolved.extend(graph.resolve_name(module, name))
                entries.update(resolved)
                if is_submit and resolved:
                    submit_sites.append((module, node, tuple(resolved)))
        return entries, submit_sites

    def _check_worker_function(
        self, module: ModuleSource, func_node: ast.AST
    ) -> Iterator[Violation]:
        constructed: Dict[str, ast.AST] = {}
        mutated: Set[str] = set()
        exported: Set[str] = set()
        for node in ast.walk(func_node):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and _call_final_name(node.value)
                    in PICKLES_EMPTY_TYPES):
                constructed[node.targets[0].id] = node.value
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                receiver = node.func.value
                if isinstance(receiver, ast.Name):
                    if node.func.attr in EXPORT_METHODS:
                        exported.add(receiver.id)
                    else:
                        mutated.add(receiver.id)
        for name, node in sorted(constructed.items()):
            if name in mutated and name not in exported:
                yield module.violation(
                    self, node,
                    f"worker-side '{name}' "
                    f"({_call_final_name(node)}) is mutated but never "
                    f"exported — its state pickles to empty and is "
                    f"lost at the process boundary",
                )

    def _constructs_pickles_empty(
        self, graph: CallGraph, entry_qname: str
    ) -> bool:
        module_path = entry_qname.split("::", 1)[0]
        for qname in graph.reachable_from({entry_qname}):
            if qname.split("::", 1)[0] != module_path:
                continue
            node = graph.functions[qname].node
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and _call_final_name(sub)
                        in PICKLES_EMPTY_TYPES):
                    return True
        return False

    @staticmethod
    def _module_merges(module: ModuleSource) -> bool:
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "merge"):
                return True
        return False


# ----------------------------------------------------------------------
# R12: CSR dtype contract
# ----------------------------------------------------------------------
@register_rule
class DtypeContractRule(Rule):
    """CSR arrays stay integer dtypes; no object escapes, no float indices."""

    id = "R12"
    title = "dtype-contract"
    deep = True
    rationale = (
        "the array kernels assume fixed-width integer CSR slots; an "
        "object-dtype escape silently falls back to per-element python "
        "dispatch, and a float array used as an index raises at runtime"
    )
    contract = (
        "GraphCsr/SharedGraphCsr integer slots (indptr, indices, src, "
        "mirror, degrees, order, zero_degree, label_codes, pair_code, "
        "edge_label_codes) must be built from integer-family arrays — "
        "np.zeros(n) without dtype= is float64, true division produces "
        "float, and both propagate through helper returns.  No "
        "dtype=object arrays in non-test code, and no float-inferred "
        "value may be used as an array index."
    )
    example_bad = (
        "degrees = np.zeros(n)                # float64 by default\n"
        "csr = GraphCsr(degrees=degrees, ...) # R12: float into int slot\n"
        "mid = total / 2\n"
        "pivot = order[mid]                   # R12: float index\n"
    )
    example_good = (
        "degrees = np.zeros(n, dtype=np.int64)\n"
        "csr = GraphCsr(degrees=degrees, ...)\n"
        "mid = total // 2\n"
        "pivot = order[mid]\n"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = callgraph_of(project)
        effects = effects_of(project)
        for qname, info in graph.functions.items():
            module = info.module
            env = effects.function_env(info)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    yield from self._check_ctor(
                        module, node, env, effects
                    )
                    yield from self._check_object_dtype(module, node)
                elif isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, ast.Load
                ):
                    yield from self._check_index(module, node, env)
        for module in project.modules:
            for site in graph.module_calls.get(module.rel_path, ()):
                yield from self._check_object_dtype(module, site.node)

    # ------------------------------------------------------------------
    def _check_ctor(
        self,
        module: ModuleSource,
        node: ast.Call,
        env: Dict[str, Optional[str]],
        effects: EffectsIndex,
    ) -> Iterator[Violation]:
        if _call_final_name(node) not in ("GraphCsr", "SharedGraphCsr"):
            return
        for keyword in node.keywords:
            if keyword.arg not in INT_SLOTS:
                continue
            label = effects.infer_expr(keyword.value, env)
            if label in ("float", "object"):
                yield module.violation(
                    self, keyword.value,
                    f"{label}-dtype value bound to integer CSR slot "
                    f"'{keyword.arg}' (kernels require fixed-width "
                    f"integers; add dtype=np.int64 at the source)",
                )

    def _check_object_dtype(
        self, module: ModuleSource, node: ast.Call
    ) -> Iterator[Violation]:
        name = _call_final_name(node)
        if name not in (
            "array", "asarray", "empty", "zeros", "ones", "full",
            "fromiter",
        ):
            return
        for keyword in node.keywords:
            if keyword.arg == "dtype" and dtype_label(
                keyword.value
            ) == "object":
                yield module.violation(
                    self, node,
                    "object-dtype array escapes the vectorized kernels "
                    "(per-element python dispatch; use a fixed-width "
                    "dtype or a list)",
                )

    def _check_index(
        self,
        module: ModuleSource,
        node: ast.Subscript,
        env: Dict[str, Optional[str]],
    ) -> Iterator[Violation]:
        index = node.slice
        if isinstance(index, ast.Name) and env.get(index.id) == "float":
            yield module.violation(
                self, index,
                f"'{index.id}' is float-inferred (numpy defaults / true "
                f"division) but used as an array index — use // or an "
                f"explicit integer dtype",
            )


# ----------------------------------------------------------------------
# R13: options threading through the call graph
# ----------------------------------------------------------------------
@register_rule
class OptionsThreadingDeepRule(Rule):
    """PipelineOptions must be forwarded down to every leaf that reads it."""

    id = "R13"
    title = "options-threading-interprocedural"
    deep = True
    rationale = (
        "a call chain that silently drops its options argument resets "
        "every PipelineOptions field the leaf reads to defaults — the "
        "driver's configuration is ignored with no error"
    )
    contract = (
        "When a function holding a PipelineOptions parameter calls a "
        "function that (transitively) reads PipelineOptions fields and "
        "whose options parameter is defaulted, the call must forward "
        "options explicitly — omitting it silently reverts the callee "
        "to default options."
    )
    example_bad = (
        "def driver(graph, options):\n"
        "    return expand(graph)       # R13: options dropped\n"
        "def expand(graph, options=None):\n"
        "    opts = options or PipelineOptions()\n"
        "    if opts.budget: ...\n"
    )
    example_good = (
        "def driver(graph, options):\n"
        "    return expand(graph, options=options)\n"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = callgraph_of(project)
        effects = effects_of(project)
        needy = self._needy_functions(graph, effects)
        for qname, sites in graph.calls_from.items():
            caller_fx = effects.by_qname.get(qname)
            if caller_fx is None or caller_fx.options_param is None:
                continue
            info = graph.functions[qname]
            module = info.module
            for site in sites:
                if site.external or len(site.callees) != 1:
                    continue
                callee_qname = site.callees[0]
                if callee_qname not in needy:
                    continue
                callee = graph.functions.get(callee_qname)
                callee_fx = effects.by_qname.get(callee_qname)
                if callee is None or callee_fx is None:
                    continue
                opt = callee_fx.options_param
                if opt is None or opt not in callee.defaults:
                    continue  # no param / required param: not silent
                if self._passes_options(site.node, callee, opt):
                    continue
                yield module.violation(
                    self, site.node,
                    f"call drops PipelineOptions: {callee.name}() reads "
                    f"options fields (transitively) but '{opt}' is not "
                    f"forwarded — the callee silently falls back to "
                    f"defaults",
                )

    # ------------------------------------------------------------------
    def _needy_functions(
        self, graph: CallGraph, effects: EffectsIndex
    ) -> Set[str]:
        """Functions whose options parameter observably matters."""
        needy = {
            qname
            for qname, fx in effects.by_qname.items()
            if fx.options_param is not None and fx.options_fields
        }
        changed = True
        while changed:
            changed = False
            for qname, sites in graph.calls_from.items():
                if qname in needy:
                    continue
                fx = effects.by_qname.get(qname)
                if fx is None or fx.options_param is None:
                    continue
                for site in sites:
                    for callee_qname in site.callees:
                        if callee_qname not in needy:
                            continue
                        callee = graph.functions.get(callee_qname)
                        callee_fx = effects.by_qname.get(callee_qname)
                        if callee is None or callee_fx is None:
                            continue
                        target = callee_fx.options_param
                        if target is None:
                            continue
                        for arg, param in map_arguments(
                            site.node, callee
                        ):
                            if (param == target
                                    and isinstance(arg, ast.Name)
                                    and arg.id == fx.options_param):
                                needy.add(qname)
                                changed = True
                                break
                        if qname in needy:
                            break
                    if qname in needy:
                        break
        return needy

    @staticmethod
    def _passes_options(
        node: ast.Call, callee, opt: str
    ) -> bool:
        for keyword in node.keywords:
            if keyword.arg == opt or keyword.arg is None:
                return True  # explicit or **kwargs forwarding
        positional = callee.positional_params()
        if opt in positional:
            if any(isinstance(a, ast.Starred) for a in node.args):
                return True  # *args splat may cover it
            if len(node.args) > positional.index(opt):
                return True
        return False
