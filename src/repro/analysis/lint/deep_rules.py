"""The interprocedural rules (R10, R12, R13) behind ``repro analyze``.

These rules reason across function boundaries — call graph and effect
summaries — and are therefore slower and subtler than the per-file
passes in :mod:`.rules`.  They carry ``deep = True``: the default
``repro lint`` run skips them, ``repro analyze`` / ``repro lint --deep``
/ an explicit ``--rule R10`` runs them.

Each rule guards one contract that has no runtime tripwire:

* **R10** ``resident-state-immutability`` — :class:`GraphCsr` /
  :class:`RoleKernel` instances are frozen after construction
  (``.setflags(write=False)`` is the runtime boundary); no attribute
  rebinding or in-place array stores afterwards, because the instances
  are memoized (``csr_of``, ``cached_kernel``) and shared by every run,
  view and cache entry that holds the reference.
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
from typing import Dict, Iterator, Optional, Set, Tuple

from .callgraph import CallGraph, annotation_class, callgraph_of
from .effects import (
    EffectsIndex,
    dtype_label,
    effects_of,
    map_arguments,
)
from .framework import ModuleSource, Project, Rule, Violation, register_rule

__all__ = [
    "ResidentStateImmutabilityRule",
    "DtypeContractRule",
    "OptionsThreadingDeepRule",
]

#: classes whose instances are immutable once constructed
RESIDENT_CLASSES = frozenset({"GraphCsr", "RoleKernel"})

#: calls returning an already-constructed resident instance
RESIDENT_PRODUCERS = frozenset(
    {"csr_of", "cached_kernel", "from_columns", "induced_view"}
)

#: methods of resident classes allowed to initialize ``self``
CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

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
        "GraphCsr and RoleKernel instances are memoized and shared by "
        "every run, view and cache entry holding the reference; a "
        "post-construction store corrupts all of them at once"
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
        if _call_final_name(node) != "GraphCsr":
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
