"""Contracts on the source of ``src/repro`` that no behaviour test sees.

* R1: an int / Optional[int] option, counter or parameter is never
  truth-tested bare.  ``if options.reload_ranks:`` treats a requested
  ``reload_ranks=0`` like "no reload"; spell presence as ``is not None``
  and magnitude as an explicit compare.  Tested positions: ``if`` /
  ``while`` / ternary / ``assert``, comprehension filters, ``not`` and
  every ``and`` / ``or`` operand but the last (the last is the value of
  ``x or default``, not a test).
* R2: every ``PipelineOptions`` field is read somewhere in ``src/repro``
  outside its class body; a field nobody reads is a knob that does
  nothing.
* Every ``PipelineOptions`` field says what it decides: a ``#:`` comment
  right above it in the class and a row in ``docs/API.md``'s field table.
"""

import ast
import dataclasses
import itertools
from pathlib import Path

import pytest

from repro.core.pipeline import PipelineOptions

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
API = ROOT / "docs" / "API.md"
CLASS_SUFFIXES = ("Options", "Outcome", "Result", "Report", "Stats")
SEED_FIELDS = {
    "reload_ranks", "delegate_degree_threshold", "max_prototypes",
    "match_mappings", "distinct_matches",
}
INT_ANNOTATIONS = {"int", "Optional[int]", "int | None", "None | int"}


def source_trees():
    return {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


def is_int(annotation):
    return annotation is not None and (
        ast.unparse(annotation).strip("'\"") in INT_ANNOTATIONS
    )


def int_fields(trees):
    """int-ish fields of the option / outcome / result / stats classes."""
    fields = set(SEED_FIELDS)
    for tree in trees:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and cls.name.endswith(CLASS_SUFFIXES)):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.AnnAssign) and is_int(node.annotation):
                    target = node.target
                elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                      and isinstance(node.value, ast.Constant)
                      and type(node.value.value) is int):
                    target = node.targets[0]
                else:
                    continue
                if isinstance(target, ast.Name):
                    fields.add(target.id)
                elif (isinstance(target, ast.Attribute)
                      and ast.unparse(target.value) == "self"):
                    fields.add(target.attr)
    return fields


def int_names(func):
    """int-annotated parameters and locals of one function."""
    names = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)
             and is_int(arg.annotation)}
    return names | {
        node.target.id for node in ast.walk(func)
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and is_int(node.annotation)
    }


def truth_tests(node):
    """The sub-expressions ``node`` evaluates for truth."""
    if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
        yield node.test
    elif isinstance(node, ast.comprehension):
        yield from node.ifs
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand
    elif isinstance(node, ast.BoolOp):
        yield from node.values[:-1]


def atoms(test):
    if isinstance(test, ast.BoolOp):
        for value in test.values:
            yield from atoms(value)
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        yield from atoms(test.operand)
    else:
        yield test


def truthiness_findings(tree, fields):
    """``{"line: expr"}`` of every bare int truth test in ``tree``."""
    found = set()

    def visit(node, ints):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ints = int_names(node)
        for atom in (a for test in truth_tests(node) for a in atoms(test)):
            if (isinstance(atom, ast.Attribute) and atom.attr in fields
                    or isinstance(atom, ast.Name) and atom.id in ints):
                found.add(f"{atom.lineno}: {ast.unparse(atom)}")
        for child in ast.iter_child_nodes(node):
            visit(child, ints)

    visit(tree, set())
    return found


def test_no_bare_truth_test_on_an_int():
    trees = source_trees()
    fields = int_fields(trees.values())
    assert SEED_FIELDS < fields
    found = sorted(
        f"{path.relative_to(SRC)}:{finding}"
        for path, tree in trees.items()
        for finding in truthiness_findings(tree, fields)
    )
    assert found == []


@pytest.mark.parametrize("body, flagged", [
    ("if options.reload_ranks:\n    pass", True),
    ("while not o.max_prototypes:\n    pass", True),
    ("x = 1 if r.distinct_matches else 2", True),
    ("assert o.reload_ranks and ready", True),
    ("xs = [v for v in vs if o.match_mappings]", True),
    ("x = o.max_prototypes or 3", True),
    ("x = ready or o.max_prototypes", False),
    ("if o.reload_ranks is not None and o.reload_ranks > 0:\n    pass", False),
    ("def f(n: Optional[int]):\n    return n or 1 if n else 0", True),
    ("def f(n: int = 0):\n    return n > 0 or not ready", False),
])
def test_the_check_sees_every_truth_position(body, flagged):
    tree = ast.parse(body)
    assert bool(truthiness_findings(tree, SEED_FIELDS)) is flagged


def test_every_pipeline_option_is_read():
    fields = {field.name for field in dataclasses.fields(PipelineOptions)}
    read = set()
    for tree in source_trees().values():
        skip = {
            id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "PipelineOptions"
            for node in ast.walk(cls)
        }
        read |= {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in skip
        }
    assert sorted(fields - read) == []


def option_fields():
    return [field.name for field in dataclasses.fields(PipelineOptions)]


def test_every_pipeline_option_has_a_doc_comment():
    path = SRC / "core" / "pipeline.py"
    lines = path.read_text().splitlines()
    (cls,) = (
        node for node in ast.parse("\n".join(lines)).body
        if isinstance(node, ast.ClassDef) and node.name == "PipelineOptions"
    )
    commented = {
        node.target.id for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and lines[node.lineno - 2].strip().startswith("#:")
    }
    assert [name for name in option_fields() if name not in commented] == []


def test_every_pipeline_option_has_an_api_row():
    text = API.read_text()
    section = text[text.index("### `PipelineOptions` fields"):].splitlines()
    start = next(i for i, line in enumerate(section) if line.startswith("|"))
    table = itertools.takewhile(lambda line: line.startswith("|"),
                                section[start + 2:])
    rows = [line.split("|")[1].strip().strip("`") for line in table]
    assert rows == option_fields()
