"""Core machinery of ``repro lint`` — the project-specific AST checker.

The codebase deliberately maintains two semantically-identical
implementations of every hot path (the dict visitor walk and the CSR
array kernels), threads a growing :class:`~repro.core.pipeline.PipelineOptions`
through half a dozen driver modules, and promises zero tracing overhead
when no tracer is attached.  Each of those properties has been broken
before by an innocent-looking edit; this module checks them mechanically.

Pieces:

* :class:`Violation` — one finding (rule id, file, line, message, the
  offending source line).
* :class:`Rule` — base class; subclasses implement either
  :meth:`Rule.check_module` (per-file AST pass) or
  :meth:`Rule.check_project` (cross-file invariants).
* :class:`Project` — the parsed file set handed to rules: every
  ``*.py`` under the scanned root, with source text, AST, and parent
  maps precomputed once.
* :class:`Baseline` — the committed debt ledger.  Entries are matched by
  ``(rule, path, normalized source line)`` — not line numbers — so
  unrelated edits don't invalidate the baseline, while any change to a
  baselined line resurfaces its violation.
* :func:`run_lint` — discovery + rules + suppression + baseline, one
  call.

Suppression: append ``# repro-lint: ignore[R3]`` (or a comma-separated
list, or no bracket for all rules) to the offending line or place it
alone on the line directly above.  For a multi-line statement the
comment may sit on the statement's *first* line (or alone above it) and
covers violations anchored to any of its continuation lines.

The rules are per-file and cross-file AST passes: R1–R3, R5, R7 and R8.
Retired ids are never reused: R4, R6, R9 and R11 went with the code they
guarded, and the interprocedural tier (R10, R12, R13) became runtime
checks and tests (docs/INTERNALS.md §14).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Baseline",
    "LintReport",
    "ModuleSource",
    "Project",
    "Rule",
    "Violation",
    "all_rules",
    "register_rule",
    "rule_sort_key",
    "run_lint",
]

#: modules holding the performance-critical kernels; several rules apply
#: only here (matching by file name keeps fixture suites trivial to write).
#: ``csr.py`` is the CSR the array backend runs on: its constructors stay
#: under the hot-loop rule (R5) they were written under.
HOT_MODULE_BASENAMES = frozenset({"lcc.py", "nlcc.py", "csr.py", "kernels.py"})

#: packages whose every module is hot: the array backend's state, fixpoint,
#: token walk and round accounting (matched by directory name, so generic
#: module names inside them never make a same-named module elsewhere hot)
HOT_PACKAGE_DIRS = frozenset({"arraystate"})

#: the modules that take PipelineOptions: R2 looks for field reads here
DRIVER_BASENAMES = frozenset(
    {"search.py", "pipeline.py", "topdown.py", "restart.py", "naive.py",
     "flips.py", "motifs.py", "batch.py", "wildcards.py"}
)

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass(frozen=True)
class Violation:
    """One lint finding."""

    rule: str
    path: str          #: path relative to the scanned root (posix)
    line: int          #: 1-based line number
    col: int           #: 0-based column
    message: str
    snippet: str       #: stripped source line the finding anchors to

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across pure line-number churn."""
        return (self.rule, self.path, self.snippet)

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


class ModuleSource:
    """One parsed python file plus the lookups rules keep needing."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.rel_path = path.relative_to(root).as_posix()
        self.basename = path.name
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=str(path))
        #: child AST node -> parent AST node, for ancestor walks
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        #: line -> first line of the innermost statement spanning it, so a
        #: suppression comment on a multi-line call's first line covers
        #: violations anchored to its continuation lines
        self.stmt_start: Dict[int, int] = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            end = getattr(node, "end_lineno", None) or node.lineno
            for lineno in range(node.lineno, end + 1):
                # later statement starts are innermost (body statements of
                # a compound statement re-map their own lines)
                current = self.stmt_start.get(lineno, 0)
                if node.lineno > current:
                    self.stmt_start[lineno] = node.lineno

    # ------------------------------------------------------------------
    @property
    def is_hot(self) -> bool:
        return (
            self.basename in HOT_MODULE_BASENAMES
            or self.path.parent.name in HOT_PACKAGE_DIRS
        )

    @property
    def is_driver(self) -> bool:
        return self.basename in DRIVER_BASENAMES

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def violation(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Violation:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            rule=rule.id,
            path=self.rel_path,
            line=lineno,
            col=col,
            message=message,
            snippet=self.source_line(lineno),
        )

    def suppressed_rules(self, lineno: int) -> Optional[frozenset]:
        """Rules suppressed at ``lineno``; empty frozenset = all rules.

        Returns ``None`` when no suppression comment applies.  Accepted
        placements: trailing on the line itself, alone on the line
        directly above, and — for violations anchored to a continuation
        line of a multi-line statement — trailing on the statement's
        first line or alone directly above it.
        """
        start = self.stmt_start.get(lineno, lineno)
        #: (line to inspect, whether a trailing comment counts there)
        candidates = [(lineno, True), (lineno - 1, False)]
        if start != lineno:
            candidates += [(start, True), (start - 1, False)]
        for candidate, trailing_ok in candidates:
            if not (1 <= candidate <= len(self.lines)):
                continue
            text = self.lines[candidate - 1]
            if not trailing_ok and not text.lstrip().startswith("#"):
                continue
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                return frozenset()
            return frozenset(
                part.strip().upper() for part in rules.split(",") if part.strip()
            )
        return None

    def is_suppressed(self, violation: Violation) -> bool:
        rules = self.suppressed_rules(violation.line)
        if rules is None:
            return False
        return not rules or violation.rule in rules


class Project:
    """The scanned file set, parsed once and shared by every rule."""

    def __init__(self, root: Path, modules: Sequence[ModuleSource]) -> None:
        self.root = root
        self.modules = list(modules)
        self.by_rel_path = {m.rel_path: m for m in self.modules}

    @classmethod
    def load(
        cls, root: Path, paths: Optional[Sequence[Path]] = None
    ) -> "Project":
        """Parse ``root`` (or an explicit file list) into a project.

        Files that fail to parse are skipped with a synthetic ``parse``
        violation recorded on the project (surfaced by the runner) —
        a lint tool must never crash on the code it inspects.
        """
        root = root.resolve()
        if paths is None:
            paths = sorted(p for p in root.rglob("*.py"))
        modules = []
        errors: List[Violation] = []
        for path in paths:
            path = path.resolve()
            try:
                modules.append(ModuleSource(root, path))
            except (SyntaxError, UnicodeDecodeError) as error:
                rel = path.relative_to(root).as_posix()
                errors.append(Violation(
                    rule="parse",
                    path=rel,
                    line=getattr(error, "lineno", 1) or 1,
                    col=0,
                    message=f"cannot parse: {error}",
                    snippet="",
                ))
        project = cls(root, modules)
        project.parse_errors = errors
        return project

    parse_errors: List[Violation] = []


class Rule:
    """One named invariant.  Subclasses set ``id``/``title``/``rationale``
    and implement :meth:`check_module` or :meth:`check_project`."""

    id: str = ""
    title: str = ""
    #: one-line statement of the historical bug class motivating the rule
    rationale: str = ""
    #: restrict the per-module pass to the hot kernel modules
    hot_modules_only: bool = False

    def check_project(self, project: Project) -> Iterator[Violation]:
        for module in project.modules:
            if self.hot_modules_only and not module.is_hot:
                continue
            yield from self.check_module(project, module)

    def check_module(
        self, project: Project, module: ModuleSource
    ) -> Iterator[Violation]:
        return iter(())


_REGISTRY: Dict[str, Rule] = {}


def register_rule(rule_cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> Dict[str, Rule]:
    """The registry (importing the rule modules populates it)."""
    from . import rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


def rule_sort_key(rule_id: str) -> Tuple[int, str]:
    """Natural order for rule ids: R2 before R10 (lexicographic fails)."""
    digits = "".join(ch for ch in rule_id if ch.isdigit())
    return (int(digits) if digits else 0, rule_id)


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class Baseline:
    """The committed ledger of accepted pre-existing violations.

    Stored as JSON; each entry carries a count so several identical
    lines in one file stay distinguishable.  Matching consumes counts:
    if a file gains a *new* copy of an already-baselined line, the
    extra copy is reported.
    """

    VERSION = 1

    def __init__(self, entries: Optional[Dict[Tuple[str, str, str], int]] = None
                 ) -> None:
        self.entries: Dict[Tuple[str, str, str], int] = dict(entries or {})

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "Baseline":
        baseline = cls()
        for violation in violations:
            key = violation.key()
            baseline.entries[key] = baseline.entries.get(key, 0) + 1
        return baseline

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        if document.get("version") != cls.VERSION:
            raise ValueError(
                f"unsupported baseline version {document.get('version')!r}"
            )
        entries: Dict[Tuple[str, str, str], int] = {}
        for entry in document.get("entries", ()):
            key = (entry["rule"], entry["path"], entry["snippet"])
            entries[key] = entries.get(key, 0) + int(entry.get("count", 1))
        return cls(entries)

    def save(self, path: Path) -> None:
        entries = [
            {"rule": rule, "path": rel, "snippet": snippet, "count": count}
            for (rule, rel, snippet), count in sorted(self.entries.items())
        ]
        document = {"version": self.VERSION, "entries": entries}
        # sort_keys on top of the sorted entry list: byte-stable output,
        # so regenerating the baseline produces reviewable diffs
        Path(path).write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def split(
        self, violations: Sequence[Violation]
    ) -> Tuple[List[Violation], List[Violation]]:
        """Partition into (new, baselined) consuming entry counts."""
        remaining = dict(self.entries)
        fresh: List[Violation] = []
        known: List[Violation] = []
        for violation in violations:
            key = violation.key()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                known.append(violation)
            else:
                fresh.append(violation)
        return fresh, known


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Everything one lint run produced."""

    root: str
    violations: List[Violation] = field(default_factory=list)
    baselined: List[Violation] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, object]:
        by_rule: Dict[str, int] = {}
        for violation in self.violations:
            by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
        return {
            "root": self.root,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "violations": [v.to_json() for v in self.violations],
            "baselined": [v.to_json() for v in self.baselined],
            "suppressed": self.suppressed,
            "summary": {
                "new": len(self.violations),
                "baselined": len(self.baselined),
                "by_rule": by_rule,
            },
        }


def run_lint(
    root: Path,
    rule_ids: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    paths: Optional[Sequence[Path]] = None,
) -> LintReport:
    """Check every python file under ``root`` against the registered rules.

    ``rule_ids`` restricts the pass; ``baseline`` partitions findings
    into new vs accepted.  Suppression comments are honored before the
    baseline is consulted.
    """
    registry = all_rules()
    if rule_ids:
        unknown = [r for r in rule_ids if r not in registry]
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(registry, key=rule_sort_key))}"
            )
        rules = [registry[r] for r in rule_ids]
    else:
        rules = [registry[r] for r in sorted(registry, key=rule_sort_key)]

    project = Project.load(Path(root), paths=paths)
    found: List[Violation] = list(project.parse_errors)
    suppressed = 0
    for rule in rules:
        for violation in rule.check_project(project):
            module = project.by_rel_path.get(violation.path)
            if module is not None and module.is_suppressed(violation):
                suppressed += 1
                continue
            found.append(violation)
    found.sort(key=lambda v: (v.path, v.line, v.rule, v.col))

    if baseline is not None:
        fresh, known = baseline.split(found)
    else:
        fresh, known = found, []
    return LintReport(
        root=str(project.root),
        violations=fresh,
        baselined=known,
        suppressed=suppressed,
        files_checked=len(project.modules),
        rules_run=[rule.id for rule in rules],
    )
