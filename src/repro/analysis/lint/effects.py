"""Per-function value-source and effect summaries.

For every function the call graph knows, one :class:`FunctionEffects`
records the facts the interprocedural rules consume:

* ``options_param`` / ``options_fields`` — the function's
  ``PipelineOptions``-shaped parameter and the fields it reads off it
  (the leaves R13 traces back to the drivers);
* ``return_dtype`` — the numpy dtype family (``int`` / ``uint`` /
  ``float`` / ``bool`` / ``object``) of the function's return value when
  it is statically evident, propagated through project-internal calls
  (R12's interprocedural half).  ``None`` = unknown.

Unknown callees follow the conservative model documented in
:mod:`.callgraph`: an external call returns unknown dtype.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from .callgraph import CallGraph, FunctionInfo, callgraph_of
from .framework import Project

__all__ = [
    "EffectsIndex",
    "FunctionEffects",
    "dtype_label",
    "effects_of",
    "infer_call_dtype",
    "map_arguments",
]

#: names of the PipelineOptions parameter the drivers thread
OPTIONS_PARAM_NAMES = frozenset({"options"})

_FLOAT_DTYPES = frozenset({
    "float", "float16", "float32", "float64", "double", "half", "single",
    "f2", "f4", "f8",
})
_INT_DTYPES = frozenset({
    "int", "int8", "int16", "int32", "int64", "intp", "int_", "long",
    "i1", "i2", "i4", "i8",
})
_UINT_DTYPES = frozenset({
    "uint8", "uint16", "uint32", "uint64", "uintp", "uint",
    "u1", "u2", "u4", "u8",
})
_BOOL_DTYPES = frozenset({"bool", "bool_", "b1"})

#: numpy constructors whose default dtype is float64 when ``dtype=`` is
#: omitted — the "silent upcast" R12 hunts
_FLOAT_DEFAULT_CTORS = frozenset({"zeros", "ones", "empty", "full"})
#: numpy constructors that take their dtype from ``dtype=`` but give no
#: static answer without it
_NEUTRAL_CTORS = frozenset({
    "array", "asarray", "ascontiguousarray", "fromiter", "frombuffer",
    "arange", "concatenate", "repeat",
})


def dtype_label(node: Optional[ast.expr]) -> Optional[str]:
    """Classify a ``dtype=`` expression into its family, if recognizable."""
    name: Optional[str] = None
    if node is None:
        return None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.lstrip("<>=|")
    elif isinstance(node, ast.Call):
        # np.dtype("...") wrapper
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "dtype" and node.args):
            return dtype_label(node.args[0])
        return None
    if name is None:
        return None
    lowered = name.lower()
    if lowered in _FLOAT_DTYPES:
        return "float"
    if lowered in _INT_DTYPES:
        return "int"
    if lowered in _UINT_DTYPES:
        return "uint"
    if lowered in _BOOL_DTYPES:
        return "bool"
    if lowered in ("object", "object_", "o"):
        return "object"
    return None


def _dtype_keyword(node: ast.Call) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == "dtype":
            return keyword.value
    return None


def infer_call_dtype(node: ast.Call) -> Optional[str]:
    """Dtype family of a numpy-constructor / ``astype`` call, if evident."""
    func = node.func
    name = ""
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    keyword = _dtype_keyword(node)
    explicit = dtype_label(keyword)
    if name == "astype":
        if explicit is not None:
            return explicit
        return dtype_label(node.args[0]) if node.args else None
    if name in _FLOAT_DEFAULT_CTORS:
        if keyword is None:
            return "float"  # numpy's default dtype
        return explicit     # None when the dtype expr is unrecognized
    if name in _NEUTRAL_CTORS:
        return explicit
    return None


def map_arguments(
    site_node: ast.Call, callee: FunctionInfo
) -> List[tuple]:
    """(argument expr, callee param name) pairs for one call site.

    Positional arguments map onto the callee's positional parameters
    (``self``/``cls`` already skipped); ``*args`` splats end the
    positional mapping conservatively.
    """
    pairs: List[tuple] = []
    positional = callee.positional_params()
    for index, arg in enumerate(site_node.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(positional):
            pairs.append((arg, positional[index]))
    for keyword in site_node.keywords:
        if keyword.arg is not None:
            pairs.append((keyword.value, keyword.arg))
    return pairs


class FunctionEffects:
    """The computed summary of one function."""

    __slots__ = (
        "qname", "options_param", "options_fields", "return_dtype",
    )

    def __init__(self, qname: str) -> None:
        self.qname = qname
        self.options_param: Optional[str] = None
        self.options_fields: Set[str] = set()
        self.return_dtype: Optional[str] = None


def _is_options_param(arg: ast.arg) -> bool:
    if arg.arg in OPTIONS_PARAM_NAMES:
        return True
    annotation = arg.annotation
    text = ""
    if isinstance(annotation, ast.Name):
        text = annotation.id
    elif isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        text = annotation.value
    elif isinstance(annotation, ast.Attribute):
        text = annotation.attr
    return "PipelineOptions" in text


class EffectsIndex:
    """Every function's :class:`FunctionEffects`, fixpointed project-wide."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.by_qname: Dict[str, FunctionEffects] = {}
        for qname, info in graph.functions.items():
            self.by_qname[qname] = self._local_summary(qname, info)
        self._dtype_fixpoint()

    # ------------------------------------------------------------------
    def _local_summary(
        self, qname: str, info: FunctionInfo
    ) -> FunctionEffects:
        effects = FunctionEffects(qname)
        node = info.node
        for arg in (
            list(getattr(node.args, "posonlyargs", []))
            + list(node.args.args) + list(node.args.kwonlyargs)
        ):
            if _is_options_param(arg):
                effects.options_param = arg.arg
                break
        option_param = effects.options_param
        if option_param is None:
            return effects
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Load)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == option_param):
                effects.options_fields.add(sub.attr)
        return effects

    # ------------------------------------------------------------------
    def infer_expr(
        self,
        expr: ast.expr,
        env: Dict[str, Optional[str]],
    ) -> Optional[str]:
        """Dtype family of an expression under local bindings ``env``."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Div):
                return "float"
            left = self.infer_expr(expr.left, env)
            right = self.infer_expr(expr.right, env)
            if left == right:
                return left
            if "float" in (left, right) and {left, right} <= {
                "float", "int", "uint"
            }:
                return "float"
            return None
        if isinstance(expr, ast.Call):
            direct = infer_call_dtype(expr)
            if direct is not None:
                return direct
            if (isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "astype"):
                return None
            site_callees = self._callees_of_expr(expr)
            labels = {
                self.by_qname[c].return_dtype
                for c in site_callees
                if c in self.by_qname
            }
            if len(labels) == 1:
                return labels.pop()
            return None
        if isinstance(expr, ast.IfExp):
            body = self.infer_expr(expr.body, env)
            orelse = self.infer_expr(expr.orelse, env)
            return body if body == orelse else None
        return None

    def _callees_of_expr(self, expr: ast.Call) -> List[str]:
        for sites in self.graph.calls_from.values():
            for site in sites:
                if site.node is expr:
                    return list(site.callees)
        return []

    def function_env(
        self, info: FunctionInfo
    ) -> Dict[str, Optional[str]]:
        """name -> dtype family for the function's local assignments."""
        env: Dict[str, Optional[str]] = {}
        for sub in ast.walk(info.node):
            target: Optional[str] = None
            value: Optional[ast.expr] = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                if isinstance(sub.targets[0], ast.Name):
                    target = sub.targets[0].id
                    value = sub.value
            elif isinstance(sub, ast.AnnAssign) and isinstance(
                sub.target, ast.Name
            ):
                target = sub.target.id
                value = sub.value
            if target is None or value is None:
                continue
            label = self.infer_expr(value, env)
            # conflicting rebinds degrade to unknown
            if target in env and env[target] != label:
                env[target] = None
            else:
                env[target] = label
        return env

    def _dtype_fixpoint(self) -> None:
        for _round in range(3):  # shallow call chains converge fast
            changed = False
            for qname, info in self.graph.functions.items():
                effects = self.by_qname[qname]
                env = self.function_env(info)
                labels: Set[Optional[str]] = set()
                for sub in ast.walk(info.node):
                    if isinstance(sub, ast.Return) and sub.value is not None:
                        labels.add(self.infer_expr(sub.value, env))
                label = labels.pop() if len(labels) == 1 else None
                if label != effects.return_dtype:
                    effects.return_dtype = label
                    changed = True
            if not changed:
                break


def effects_of(project: Project) -> EffectsIndex:
    """The project's effect summaries, memoized alongside the call graph."""
    index = project.cache.get("effects")
    if index is None:
        index = EffectsIndex(callgraph_of(project))
        project.cache["effects"] = index
    return index
