"""The project-specific rules behind ``repro lint``.

Each rule is motivated by a bug class this codebase has actually hit
(see docs/INTERNALS.md §10 for the full write-ups):

* **R1** ``optional-int-truthiness`` — ``if x:`` on int / Optional[int]
  option and counter fields conflates 0 with None/absent (the
  ``reload_ranks=0`` bug of the kernels PR).
* **R2** ``options-consumed`` — a :class:`PipelineOptions` field that no
  driver module reads is a dead knob: setting it changes nothing and no
  error says so.
* **R3** ``tracer-guard`` — span/counter bookkeeping in the hot kernel
  modules must sit behind a ``tracer.enabled`` check so untraced runs
  stay zero-overhead.
* R4 is retired: it guarded the dict fallbacks of the array dispatch
  switches, which were collapsed into ``PipelineOptions.backend``.
* **R5** ``hot-loop-hygiene`` — per-element Python loops over CSR
  arrays, ``np.append`` inside loops, and object-dtype arrays undo the
  vectorization the hot modules exist for.
* R6 is retired: it guarded the shared-memory segments of the
  process pool, which was deleted.
* **R7** ``batched-template-execution`` — a ``for`` loop calling
  ``run_pipeline`` once per template recomputes kernels, prototypes and
  the ``M*`` traversal from scratch every iteration; multi-template
  work belongs in the ``core/batch.py`` executor.
* **R8** ``metric-accumulation`` — hot-module cache/metric counting via
  ad-hoc ``stats["hits"] += 1`` dicts (or bare attribute counters) never
  reaches the always-on :class:`MetricsRegistry`, so the numbers are
  invisible to the run report (``repro report``); updates must go
  through registry counter handles.

All rules are pure AST passes — no imports of the checked code, so the
linter runs on any snapshot of the tree, broken or not.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .framework import ModuleSource, Project, Rule, Violation, register_rule

__all__ = [
    "BatchedTemplateExecutionRule",
    "HotLoopHygieneRule",
    "MetricAccumulationRule",
    "OptionalIntTruthinessRule",
    "OptionsThreadingRule",
    "TracerGuardRule",
]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _annotation_is_int(node: Optional[ast.expr]) -> Optional[str]:
    """Classify an annotation as ``"int"`` / ``"optional_int"`` / None."""
    if node is None:
        return None
    if isinstance(node, ast.Name) and node.id == "int":
        return "int"
    if isinstance(node, ast.Constant) and node.value in ("int", "Optional[int]"):
        return "int" if node.value == "int" else "optional_int"
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            if _annotation_is_int(_subscript_slice(node)) == "int":
                return "optional_int"
        if isinstance(base, ast.Attribute) and base.attr == "Optional":
            if _annotation_is_int(_subscript_slice(node)) == "int":
                return "optional_int"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # PEP 604 ``int | None``
        parts = {_expr_label(node.left), _expr_label(node.right)}
        if parts == {"int", "None"}:
            return "optional_int"
    return None


def _subscript_slice(node: ast.Subscript) -> ast.expr:
    inner = node.slice
    if isinstance(inner, ast.Index):  # pragma: no cover - py<3.9 form
        inner = inner.value
    return inner


def _expr_label(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and node.value is None:
        return "None"
    return "?"


def _call_name(node: ast.Call) -> str:
    """Trailing name of the called expression: ``a.b.c(...)`` → ``c``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _enclosing_function(
    module: ModuleSource, node: ast.AST
) -> Optional[ast.AST]:
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


# ----------------------------------------------------------------------
# R1 — optional-int truthiness
# ----------------------------------------------------------------------
@register_rule
class OptionalIntTruthinessRule(Rule):
    """``if x:`` on an int/Optional[int] option, counter, or parameter.

    0 is falsy: ``if options.reload_ranks:`` silently treats a requested
    0-rank reload like "no reload", and ``options.reload_ranks or
    default`` drops an explicit 0.  Both must spell the intent:
    ``is not None`` (presence) or an explicit comparison (magnitude).

    Checked in every position the value is actually truth-tested: ``if``
    / ``while`` / ternary / ``assert`` tests, comprehension filters,
    ``not``, and the short-circuited (non-final) operands of ``and`` /
    ``or`` — the final operand of a value-position ``x or default`` is
    the result, not a test, and stays legal.
    """

    id = "R1"
    title = "optional-int truthiness"
    rationale = (
        "the reload_ranks=0 bug: truthiness conflated 'set to zero' with "
        "'not set'"
    )

    #: class-name suffixes whose int-ish fields are collected project-wide
    _CLASS_SUFFIXES = ("Options", "Outcome", "Result", "Report", "Stats")

    #: always-on field names (keeps fixtures and external callers honest
    #: even when the defining class is outside the scanned root)
    _SEED_FIELDS: Dict[str, str] = {
        "reload_ranks": "optional_int",
        "delegate_degree_threshold": "optional_int",
        "max_prototypes": "optional_int",
        "match_mappings": "optional_int",
        "distinct_matches": "optional_int",
    }

    def check_project(self, project: Project) -> Iterator[Violation]:
        fields = dict(self._SEED_FIELDS)
        for module in project.modules:
            fields.update(self._collect_fields(module))
        for module in project.modules:
            yield from self._check_truthiness(module, fields)

    # ------------------------------------------------------------------
    def _collect_fields(self, module: ModuleSource) -> Dict[str, str]:
        """int / Optional[int] attribute names from option/result classes."""
        fields: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith(self._CLASS_SUFFIXES):
                continue
            for stmt in ast.walk(node):
                kind = None
                name = None
                if isinstance(stmt, ast.AnnAssign):
                    kind = _annotation_is_int(stmt.annotation)
                    target = stmt.target
                    if isinstance(target, ast.Name):
                        name = target.id
                    elif (isinstance(target, ast.Attribute)
                          and isinstance(target.value, ast.Name)
                          and target.value.id == "self"):
                        name = target.attr
                elif (isinstance(stmt, ast.Assign)
                      and len(stmt.targets) == 1
                      and isinstance(stmt.targets[0], ast.Attribute)
                      and isinstance(stmt.targets[0].value, ast.Name)
                      and stmt.targets[0].value.id == "self"
                      and isinstance(stmt.value, ast.Constant)
                      and type(stmt.value.value) is int):
                    kind = "int"
                    name = stmt.targets[0].attr
                if kind is not None and name is not None:
                    fields[name] = kind
        return fields

    @staticmethod
    def _param_int_kinds(func: ast.AST) -> Dict[str, str]:
        """int/Optional[int]-annotated parameter and local names."""
        kinds: Dict[str, str] = {}
        args = getattr(func, "args", None)
        if args is not None:
            for arg in (list(getattr(args, "posonlyargs", []))
                        + list(args.args) + list(args.kwonlyargs)):
                kind = _annotation_is_int(arg.annotation)
                if kind is not None:
                    kinds[arg.arg] = kind
        for node in ast.walk(func):
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                kind = _annotation_is_int(node.annotation)
                if kind is not None:
                    kinds[node.target.id] = kind
        return kinds

    def _check_truthiness(
        self, module: ModuleSource, fields: Dict[str, str]
    ) -> Iterator[Violation]:
        param_kinds: Dict[ast.AST, Dict[str, str]] = {}
        seen: Set[int] = set()
        for node in ast.walk(module.tree):
            for root in self._truth_roots(node):
                for leaf in self._expand(root):
                    if id(leaf) in seen:
                        continue
                    seen.add(id(leaf))
                    violation = self._leaf_violation(
                        module, leaf, fields, param_kinds
                    )
                    if violation is not None:
                        yield violation

    def _leaf_violation(
        self,
        module: ModuleSource,
        leaf: ast.expr,
        fields: Dict[str, str],
        param_kinds: Dict[ast.AST, Dict[str, str]],
    ) -> Optional[Violation]:
        kind = None
        label = ""
        if isinstance(leaf, ast.Attribute):
            kind = fields.get(leaf.attr)
            label = f"field `.{leaf.attr}`"
        elif isinstance(leaf, ast.Name):
            func = _enclosing_function(module, leaf)
            if func is not None:
                if func not in param_kinds:
                    param_kinds[func] = self._param_int_kinds(func)
                kind = param_kinds[func].get(leaf.id)
                label = f"`{leaf.id}`"
        if kind is None:
            return None
        wanted = (
            "`is not None` or an explicit compare"
            if kind == "optional_int"
            else "an explicit compare (e.g. `> 0`)"
        )
        return module.violation(
            self,
            leaf,
            f"truthiness test on {kind.replace('_', ' ')} {label}; "
            f"use {wanted}",
        )

    @staticmethod
    def _truth_roots(node: ast.AST) -> Iterator[ast.expr]:
        """Expressions ``node`` itself evaluates for truth."""
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            yield node.test
        elif isinstance(node, ast.Assert):
            yield node.test
        elif isinstance(node, ast.comprehension):
            yield from node.ifs
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.BoolOp):
            # short-circuiting truth-tests every operand except the last;
            # the last is the expression's *value* (`x or default`), and
            # is tested only when an enclosing truth context covers the
            # whole BoolOp (handled by _expand from that root)
            yield from node.values[:-1]

    @classmethod
    def _expand(cls, root: ast.expr) -> Iterator[ast.expr]:
        """Atoms of ``root`` that are bare truthiness tests."""
        if isinstance(root, ast.BoolOp):
            for value in root.values:
                yield from cls._expand(value)
        elif isinstance(root, ast.UnaryOp) and isinstance(root.op, ast.Not):
            yield from cls._expand(root.operand)
        else:
            yield root


# ----------------------------------------------------------------------
# R2 — options consumed
# ----------------------------------------------------------------------
@register_rule
class OptionsThreadingRule(Rule):
    """Every ``PipelineOptions`` field must actually reach the drivers.

    Every field declared on the ``PipelineOptions`` dataclass is read
    (``something.field``) in at least one driver module outside the
    dataclass body itself — a field nobody consumes is a silently dead
    knob.  (Which keywords a prototype search receives needs no check:
    ``pipeline.search_one`` is the one ``search_prototype`` call.)
    """

    id = "R2"
    title = "options consumed"
    rationale = (
        "PipelineOptions fields outlived their last reader: a set flag "
        "changed nothing and no error said so"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        drivers = [m for m in project.modules if m.is_driver]
        options = self._find_options_class(project)
        if options is not None:
            yield from self._check_consumption(project, drivers, *options)

    # ------------------------------------------------------------------
    def _find_options_class(
        self, project: Project
    ) -> Optional[Tuple[ModuleSource, ast.ClassDef]]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == "PipelineOptions":
                    return module, node
        return None

    def _check_consumption(
        self,
        project: Project,
        drivers: List[ModuleSource],
        options_module: ModuleSource,
        options_class: ast.ClassDef,
    ) -> Iterator[Violation]:
        fields = {}
        for stmt in options_class.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                fields[stmt.target.id] = stmt
        if not fields:
            return
        class_lines = range(
            options_class.lineno,
            (options_class.end_lineno or options_class.lineno) + 1,
        )
        consumed: Set[str] = set()
        for module in drivers:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Attribute) and node.attr in fields:
                    if (module is options_module
                            and node.lineno in class_lines):
                        continue  # the dataclass body / __post_init__
                    consumed.add(node.attr)
        for name, stmt in fields.items():
            if name not in consumed:
                yield options_module.violation(
                    self,
                    stmt,
                    f"PipelineOptions.{name} is never read in any driver "
                    f"module (search/pipeline/topdown/restart/parallel/"
                    f"naive) — dead or dropped option",
                )


# ----------------------------------------------------------------------
# R3 — tracer zero-overhead guard
# ----------------------------------------------------------------------
@register_rule
class TracerGuardRule(Rule):
    """Span counter calls in hot modules must be ``enabled``-guarded.

    The tracing contract is one attribute check per guarded site when
    tracing is off.  A bare ``span.add(vertices_pruned=before - after)``
    evaluates its (often O(V)) arguments on every untraced run.
    """

    id = "R3"
    title = "tracer zero-overhead"
    rationale = (
        "counter computation (active_counts() diffs etc.) silently ran on "
        "untraced hot paths until guarded behind tracer.enabled"
    )
    hot_modules_only = True

    _COUNTER_METHODS = frozenset({"add", "record_span"})

    def check_module(
        self, project: Project, module: ModuleSource
    ) -> Iterator[Violation]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            span_names, guard_names = self._span_and_guard_names(func)
            if not span_names:
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                func_expr = node.func
                if not (isinstance(func_expr, ast.Attribute)
                        and func_expr.attr in self._COUNTER_METHODS):
                    continue
                receiver = func_expr.value
                if not (isinstance(receiver, ast.Name)
                        and receiver.id in span_names):
                    continue
                if self._is_guarded(module, node, guard_names, func):
                    continue
                yield module.violation(
                    self,
                    node,
                    f"unguarded `{receiver.id}.{func_expr.attr}(...)` in hot "
                    f"module; wrap in `if tracer.enabled:` (or a variable "
                    f"assigned from it) so untraced runs skip the counter "
                    f"computation",
                )

    # ------------------------------------------------------------------
    def _span_and_guard_names(
        self, func: ast.AST
    ) -> Tuple[Set[str], Set[str]]:
        """Names bound to spans/tracers and to enabled-flags in ``func``."""
        span_names: Set[str] = set()
        guard_names: Set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            for arg in list(args.args) + list(args.kwonlyargs):
                if arg.arg == "tracer":
                    span_names.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value = node.value
                if isinstance(value, ast.Attribute):
                    if value.attr == "tracer":
                        span_names.add(target.id)
                    elif value.attr == "enabled":
                        guard_names.add(target.id)
                elif isinstance(value, ast.Call):
                    name = _call_name(value)
                    if name in ("span", "Tracer"):
                        span_names.add(target.id)
                elif (isinstance(value, ast.IfExp)
                      and isinstance(value.body, ast.Call)
                      and _call_name(value.body) in ("Tracer",)):
                    span_names.add(target.id)
            elif isinstance(node, ast.With):
                for item in node.items:
                    ctx = item.context_expr
                    if (item.optional_vars is not None
                            and isinstance(item.optional_vars, ast.Name)
                            and isinstance(ctx, ast.Call)
                            and _call_name(ctx) == "span"):
                        span_names.add(item.optional_vars.id)
        return span_names, guard_names

    def _is_guarded(
        self,
        module: ModuleSource,
        node: ast.AST,
        guard_names: Set[str],
        func: ast.AST,
    ) -> bool:
        for ancestor in module.ancestors(node):
            if ancestor is func:
                break
            if isinstance(ancestor, (ast.If, ast.IfExp)) and self._test_guards(
                ancestor.test, guard_names
            ):
                return True
        return False

    @staticmethod
    def _test_guards(test: ast.expr, guard_names: Set[str]) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id in guard_names:
                return True
        return False


# ----------------------------------------------------------------------
# R5 — hot-loop hygiene
# ----------------------------------------------------------------------
@register_rule
class HotLoopHygieneRule(Rule):
    """Vectorization-undoing patterns in the hot kernel modules.

    Flags ``np.append`` inside a loop (quadratic reallocation),
    object-dtype array construction (boxes every element), and Python
    ``for`` loops iterating a CSR array field per element (the exact
    shape the array kernels replaced with gathers and reduceat folds).
    Explicit ``.tolist()`` conversions are allowed — they document the
    crossing back into dict-land.
    """

    id = "R5"
    title = "hot-loop hygiene"
    rationale = (
        "PRs 2/4 replaced per-element CSR loops with vectorized folds; a "
        "stray Python loop or np.append quietly reverts the speedup"
    )
    hot_modules_only = True

    _CSR_ARRAY_ATTRS = frozenset({
        "indptr", "indices", "src", "mirror", "degrees",
        "vertex_active", "edge_alive", "role_mask",
    })

    def check_module(
        self, project: Project, module: ModuleSource
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, ast.For):
                yield from self._check_for(module, node)

    def _check_call(
        self, module: ModuleSource, node: ast.Call
    ) -> Iterator[Violation]:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "append"
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")):
            if any(isinstance(a, (ast.For, ast.While))
                   for a in module.ancestors(node)):
                yield module.violation(
                    self,
                    node,
                    "np.append inside a loop reallocates the whole array "
                    "per iteration; collect parts and np.concatenate once",
                )
        for keyword in node.keywords:
            if keyword.arg != "dtype":
                continue
            value = keyword.value
            is_object = (
                (isinstance(value, ast.Name) and value.id == "object")
                or (isinstance(value, ast.Constant) and value.value == "object")
                or (isinstance(value, ast.Attribute)
                    and value.attr in ("object_", "object"))
            )
            if is_object:
                yield module.violation(
                    self,
                    keyword.value,
                    "object-dtype array construction boxes every element; "
                    "use a numeric dtype or keep the data in dict form",
                )

    def _check_for(
        self, module: ModuleSource, node: ast.For
    ) -> Iterator[Violation]:
        target = self._csr_iteration_target(node.iter)
        if target is None:
            return
        yield module.violation(
            self,
            node,
            f"per-element Python loop over CSR array `{target}`; use "
            f"vectorized gathers/folds (or an explicit .tolist() at a "
            f"documented dict boundary)",
        )

    def _csr_iteration_target(self, iter_expr: ast.expr) -> Optional[str]:
        # for x in csr.indices: ...
        if (isinstance(iter_expr, ast.Attribute)
                and iter_expr.attr in self._CSR_ARRAY_ATTRS):
            return iter_expr.attr
        # for i in range(len(csr.indices)): ...
        if (isinstance(iter_expr, ast.Call)
                and _call_name(iter_expr) == "range"
                and len(iter_expr.args) == 1
                and isinstance(iter_expr.args[0], ast.Call)
                and _call_name(iter_expr.args[0]) == "len"
                and iter_expr.args[0].args):
            inner = iter_expr.args[0].args[0]
            if (isinstance(inner, ast.Attribute)
                    and inner.attr in self._CSR_ARRAY_ATTRS):
                return inner.attr
        # for v in np.nonzero(...)[0]: ...   (and bare np.nonzero(...))
        probe = iter_expr
        if isinstance(probe, ast.Subscript):
            probe = probe.value
        if isinstance(probe, ast.Call) and _call_name(probe) == "nonzero":
            return "np.nonzero(...)"
        return None


# ----------------------------------------------------------------------
# R7 — batched template execution
# ----------------------------------------------------------------------
@register_rule
class BatchedTemplateExecutionRule(Rule):
    """Per-template ``run_pipeline`` loops outside the batch executor.

    A ``for`` loop over a template/motif/pattern collection that calls
    ``run_pipeline`` in its body re-pays kernel compilation, prototype
    generation and the ``M*`` background traversal once per iteration —
    precisely the redundancy :mod:`repro.core.batch` exists to share.
    Flagged when either the loop target or the iterated expression
    mentions a template-ish name; intentional baselines carry an
    explicit suppression comment.
    """

    id = "R7"
    title = "batched template execution"
    rationale = (
        "looping run_pipeline over a template list recomputes kernels, "
        "prototypes and M* per template; core/batch.py shares them"
    )

    _EXECUTOR_BASENAME = "batch.py"

    #: loop target / iterable name fragments marking a template sweep
    _HINTS = (
        "template", "motif", "pattern", "prototype", "protos",
        "instantiation", "quer",
    )

    def check_module(
        self, project: Project, module: ModuleSource
    ) -> Iterator[Violation]:
        if module.basename == self._EXECUTOR_BASENAME:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not self._calls_run_pipeline(node):
                continue
            if not (self._templateish(node.target)
                    or self._templateish(node.iter)):
                continue
            yield module.violation(
                self,
                node,
                "run_pipeline called once per template inside a loop; "
                "route multi-template work through core/batch.py "
                "(TemplateLibrary/run_batch) to share kernels, prototypes "
                "and the M* traversal",
            )

    @staticmethod
    def _calls_run_pipeline(loop: ast.AST) -> bool:
        for stmt in getattr(loop, "body", ()):
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and _call_name(sub) == "run_pipeline"):
                    return True
        return False

    @classmethod
    def _templateish(cls, node: ast.expr) -> bool:
        for sub in ast.walk(node):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None:
                lowered = name.lower()
                if any(hint in lowered for hint in cls._HINTS):
                    return True
        return False


# ----------------------------------------------------------------------
# R8 — metric accumulation through the registry
# ----------------------------------------------------------------------
@register_rule
class MetricAccumulationRule(Rule):
    """Hot-module metric counting must go through registry handles.

    An ad-hoc ``stats["hits"] += 1`` dict (as the kernel cache once
    kept) or a bare ``self.misses += 1`` attribute counter lives and
    dies in its own module: it never reaches the always-on
    :class:`~repro.runtime.metrics.MetricsRegistry`, so the count never
    reaches the run's stats document or its report (``repro report``).
    Hot modules accumulate through a resolved ``metrics.counter(...)`` /
    ``histogram(...)`` handle instead.
    """

    id = "R8"
    title = "metric accumulation"
    rationale = (
        "kernels.py counted cache hits in a module dict that the "
        "metrics report never saw; registry handles reach it for free"
    )
    hot_modules_only = True

    #: subscript keys / attribute names that mark a metric counter
    _METRIC_NAMES = frozenset(
        {"hits", "misses", "hit_count", "miss_count", "evictions"}
    )

    def check_module(
        self, project: Project, module: ModuleSource
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            name = self._metric_target_name(node.target)
            if name is None:
                continue
            yield module.violation(
                self,
                node,
                f"ad-hoc metric accumulation on {name!r} in a hot module; "
                f"resolve a handle once (`m = metrics.counter(...)`) and "
                f"`m.inc(...)` so the count reaches snapshots and reports",
            )

    @classmethod
    def _metric_target_name(cls, target: ast.expr) -> Optional[str]:
        """The metric-ish key/attr an AugAssign accumulates into, if any."""
        if isinstance(target, ast.Subscript):
            inner = _subscript_slice(target)
            if (isinstance(inner, ast.Constant)
                    and isinstance(inner.value, str)
                    and inner.value in cls._METRIC_NAMES):
                return inner.value
        if (isinstance(target, ast.Attribute)
                and target.attr in cls._METRIC_NAMES):
            return target.attr
        return None
