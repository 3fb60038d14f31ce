"""Project-wide call graph over a lint :class:`~.framework.Project`.

The deep rules (R10, R12, R13) reason about properties that cross
function boundaries — a dtype returned through a helper, an ``options``
parameter dropped three calls above the leaf that reads it.  This module
resolves the project's call sites into a name-indexed graph good enough
for those checks:

* **Definition index** — every module-level function and every method,
  keyed by qualified name ``"pkg/mod.py::func"`` /
  ``"pkg/mod.py::Class.func"``.
* **Name resolution** — bare-name calls resolve through the defining
  module first, then ``from x import f`` aliases, then (uniquely-named)
  project-wide functions.
* **Method dispatch by class** — ``self.m(...)`` binds to the enclosing
  class (walking its project-local bases); ``obj.m(...)`` uses the flow
  of ``obj = ClassName(...)`` assignments and parameter annotations to
  pick the class, and falls back to *every* project class defining
  ``m`` when the receiver's class is unknown (an over-approximation:
  rules stay sound for may-properties).
* **Conservative unknown-callee model** — calls into code the project
  does not define (numpy, stdlib, dynamic dispatch through variables)
  are recorded as unresolved sites with
  :attr:`CallSite.external` = True; each rule decides what the safe
  assumption is for its property (e.g. R12 treats values returned by
  external calls as unknown-dtype).

All of it is a pure AST pass — no imports of the analyzed code.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .framework import ModuleSource, Project

__all__ = [
    "CallGraph",
    "annotation_class",
    "CallSite",
    "FunctionInfo",
    "callgraph_of",
]


class FunctionInfo:
    """One defined function or method and the lookups rules need."""

    __slots__ = (
        "qname", "module", "node", "class_name", "params", "defaults",
    )

    def __init__(
        self,
        qname: str,
        module: ModuleSource,
        node: ast.AST,
        class_name: Optional[str],
    ) -> None:
        self.qname = qname
        self.module = module
        self.node = node
        self.class_name = class_name
        args = node.args
        ordered = list(getattr(args, "posonlyargs", [])) + list(args.args)
        #: positional parameter names, in order (incl. self/cls)
        self.params: List[str] = [a.arg for a in ordered] + [
            a.arg for a in args.kwonlyargs
        ]
        #: parameter names that carry a default value (may be omitted)
        defaulted = ordered[len(ordered) - len(args.defaults):]
        self.defaults: Set[str] = {a.arg for a in defaulted}
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self.defaults.add(arg.arg)

    @property
    def name(self) -> str:
        return self.node.name

    def positional_params(self) -> List[str]:
        """Positional parameter names, skipping self/cls on methods."""
        params = [
            a.arg
            for a in (
                list(getattr(self.node.args, "posonlyargs", []))
                + list(self.node.args.args)
            )
        ]
        if self.class_name is not None and params and params[0] in (
            "self", "cls"
        ):
            return params[1:]
        return params


class CallSite:
    """One resolved (or deliberately unresolved) call expression."""

    __slots__ = ("node", "caller", "callees", "external")

    def __init__(
        self,
        node: ast.Call,
        caller: Optional[str],
        callees: Tuple[str, ...],
        external: bool,
    ) -> None:
        self.node = node
        self.caller = caller          #: qname of the enclosing function
        self.callees = callees        #: candidate callee qnames
        self.external = external      #: True when resolution gave up


def _iter_functions(
    module: ModuleSource,
) -> Iterator[Tuple[ast.AST, Optional[str]]]:
    """(function node, enclosing class name) pairs, outermost first."""
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            class_name = None
            for ancestor in module.ancestors(node):
                if isinstance(ancestor, ast.ClassDef):
                    class_name = ancestor.name
                    break
                if isinstance(
                    ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    break  # nested function: not a method
            yield node, class_name


def annotation_class(node: Optional[ast.expr]) -> Optional[str]:
    """Class name out of an annotation (handles strings and Optional[...])."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # forward reference: "GraphCsr" or "Optional[GraphCsr]"
        text = node.value.strip()
        if text.startswith("Optional[") and text.endswith("]"):
            text = text[len("Optional["):-1]
        tail = text.split(".")[-1].strip()
        return tail if tail.isidentifier() else None
    if isinstance(node, ast.Subscript):
        base = annotation_class(node.value)
        if base == "Optional":
            inner = node.slice
            if isinstance(inner, ast.Index):  # pragma: no cover - py<3.9
                inner = inner.value
            return annotation_class(inner)
    return None


class CallGraph:
    """The resolved call structure of one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: qname -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: simple name -> qnames of module-level functions
        self._by_name: Dict[str, List[str]] = {}
        #: method name -> qnames across all classes
        self._methods: Dict[str, List[str]] = {}
        #: (rel_path, class name) -> {method name -> qname}
        self._class_methods: Dict[Tuple[str, str], Dict[str, str]] = {}
        #: class name -> base class names (project classes only)
        self._bases: Dict[str, List[str]] = {}
        #: function AST node -> qname (for enclosing-function lookups)
        self._node_qname: Dict[int, str] = {}
        self._node_info: Dict[int, FunctionInfo] = {}
        #: per-module import aliases: rel_path -> {local name -> source name}
        self._imports: Dict[str, Dict[str, str]] = {}
        #: qname -> its call sites
        self.calls_from: Dict[str, List[CallSite]] = {}
        #: module-level (no enclosing function) call sites per rel_path
        self.module_calls: Dict[str, List[CallSite]] = {}
        #: qname -> qnames of call sites that may invoke it
        self.callers_of: Dict[str, Set[str]] = {}

        self._index(project)
        for module in project.modules:
            self._resolve_module(module)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index(self, project: Project) -> None:
        for module in project.modules:
            aliases: Dict[str, str] = {}
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        aliases[alias.asname or alias.name] = alias.name
                elif isinstance(node, ast.ClassDef):
                    self._bases.setdefault(node.name, []).extend(
                        base.id for base in node.bases
                        if isinstance(base, ast.Name)
                    )
            self._imports[module.rel_path] = aliases
            for node, class_name in _iter_functions(module):
                if class_name is None:
                    qname = f"{module.rel_path}::{node.name}"
                    self._by_name.setdefault(node.name, []).append(qname)
                else:
                    qname = f"{module.rel_path}::{class_name}.{node.name}"
                    self._methods.setdefault(node.name, []).append(qname)
                    self._class_methods.setdefault(
                        (module.rel_path, class_name), {}
                    )[node.name] = qname
                info = FunctionInfo(qname, module, node, class_name)
                # last definition wins (redefinitions are rare and benign)
                self.functions[qname] = info
                self._node_qname[id(node)] = qname
                self._node_info[id(node)] = info

    def info_for_node(self, node: ast.AST) -> Optional[FunctionInfo]:
        """The FunctionInfo of a function AST node, if indexed."""
        return self._node_info.get(id(node))

    def qname_of_node(self, node: ast.AST) -> Optional[str]:
        return self._node_qname.get(id(node))

    def enclosing_function(
        self, module: ModuleSource, node: ast.AST
    ) -> Optional[str]:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return self._node_qname.get(id(ancestor))
        return None

    def class_method(self, class_name: str, method: str) -> Optional[str]:
        """Resolve ``ClassName.method`` walking project-local bases."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for (_, cls), methods in self._class_methods.items():
                if cls == current and method in methods:
                    return methods[method]
            queue.extend(self._bases.get(current, []))
        return None

    def is_project_class(self, name: str) -> bool:
        return any(cls == name for (_, cls) in self._class_methods) or (
            name in self._bases
        )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _receiver_classes(
        self,
        module: ModuleSource,
        func_node: Optional[ast.AST],
        receiver: ast.expr,
    ) -> List[str]:
        """Candidate class names for the receiver of ``recv.m(...)``."""
        if isinstance(receiver, ast.Call):
            name = receiver.func
            if isinstance(name, ast.Name) and self.is_project_class(name.id):
                return [name.id]
            if isinstance(name, ast.Attribute) and self.is_project_class(
                name.attr
            ):
                return [name.attr]
            return []
        if not isinstance(receiver, ast.Name) or func_node is None:
            return []
        target = receiver.id
        classes: List[str] = []
        args = getattr(func_node, "args", None)
        if args is not None:
            for arg in (list(getattr(args, "posonlyargs", []))
                        + list(args.args) + list(args.kwonlyargs)):
                if arg.arg == target:
                    cls = annotation_class(arg.annotation)
                    if cls is not None and self.is_project_class(cls):
                        classes.append(cls)
        for node in ast.walk(func_node):
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if (isinstance(node.targets[0], ast.Name)
                        and node.targets[0].id == target):
                    value = node.value
            elif isinstance(node, ast.AnnAssign):
                if (isinstance(node.target, ast.Name)
                        and node.target.id == target):
                    cls = annotation_class(node.annotation)
                    if cls is not None and self.is_project_class(cls):
                        classes.append(cls)
                    value = node.value
            if isinstance(value, ast.Call):
                name = value.func
                if (isinstance(name, ast.Name)
                        and self.is_project_class(name.id)):
                    classes.append(name.id)
                elif (isinstance(name, ast.Attribute)
                      and name.attr == "__new__"
                      and isinstance(name.value, ast.Name)
                      and self.is_project_class(name.value.id)):
                    classes.append(name.value.id)
        return classes

    def _resolve_call(
        self,
        module: ModuleSource,
        func_node: Optional[ast.AST],
        node: ast.Call,
    ) -> Tuple[Tuple[str, ...], bool]:
        func = node.func
        if isinstance(func, ast.Name):
            name = self._imports[module.rel_path].get(func.id, func.id)
            local = f"{module.rel_path}::{name}"
            if local in self.functions:
                return (local,), False
            # constructor call: dispatch to the class's __init__ if any
            if self.is_project_class(name):
                init = self.class_method(name, "__init__")
                return ((init,), False) if init else ((), False)
            candidates = self._by_name.get(name, [])
            if candidates:
                return tuple(candidates), False
            return (), True
        if isinstance(func, ast.Attribute):
            method = func.attr
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id in (
                "self", "cls"
            ):
                for ancestor in (
                    module.ancestors(node) if func_node is not None else ()
                ):
                    if isinstance(ancestor, ast.ClassDef):
                        resolved = self.class_method(ancestor.name, method)
                        if resolved is not None:
                            return (resolved,), False
                        break
            for cls in self._receiver_classes(module, func_node, receiver):
                resolved = self.class_method(cls, method)
                if resolved is not None:
                    return (resolved,), False
            # module-qualified helper call: io.read_edge_list(...)
            if isinstance(receiver, ast.Name):
                for qname in self._by_name.get(method, ()):
                    if qname.split("::")[0].endswith(f"{receiver.id}.py"):
                        return (qname,), False
            candidates = self._methods.get(method, [])
            if candidates:
                # unknown receiver class: every project method of the name
                return tuple(candidates), True
            if self._by_name.get(method):
                return tuple(self._by_name[method]), True
            return (), True
        return (), True

    def _resolve_module(self, module: ModuleSource) -> None:
        for func_node, _class in _iter_functions(module):
            qname = self._node_qname[id(func_node)]
            sites: List[CallSite] = []
            for node in ast.walk(func_node):
                if not isinstance(node, ast.Call):
                    continue
                # skip calls belonging to a nested function (they get
                # their own entry)
                owner = self.enclosing_function(module, node)
                if owner != qname:
                    continue
                callees, external = self._resolve_call(
                    module, func_node, node
                )
                site = CallSite(node, qname, callees, external)
                sites.append(site)
                for callee in callees:
                    self.callers_of.setdefault(callee, set()).add(qname)
            self.calls_from[qname] = sites
        module_sites: List[CallSite] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and self.enclosing_function(
                module, node
            ) is None:
                callees, external = self._resolve_call(module, None, node)
                module_sites.append(CallSite(node, None, callees, external))
        self.module_calls[module.rel_path] = module_sites

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def resolve_name(
        self, module: ModuleSource, name: str
    ) -> Tuple[str, ...]:
        """Qnames a bare function name denotes when used from ``module``.

        The same module-local → import-alias → unique-project-name
        cascade call resolution uses, for rules that meet function
        *references* (``callbacks.append(handler)``) rather than calls.
        """
        target = self._imports.get(module.rel_path, {}).get(name, name)
        local = f"{module.rel_path}::{target}"
        if local in self.functions:
            return (local,)
        return tuple(self._by_name.get(target, ()))

    def reachable_from(self, roots: Set[str]) -> Set[str]:
        """Transitive callee closure of ``roots`` (roots included)."""
        seen: Set[str] = set()
        queue = [q for q in roots if q in self.functions]
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            for site in self.calls_from.get(current, ()):
                queue.extend(
                    c for c in site.callees
                    if c in self.functions and c not in seen
                )
        return seen


def callgraph_of(project: Project) -> CallGraph:
    """The project's call graph, built once and memoized on the project."""
    graph = project.cache.get("callgraph")
    if graph is None:
        graph = CallGraph(project)
        project.cache["callgraph"] = graph
    return graph
