"""Command-line runner shared by ``repro lint`` and ``python -m``.

Every run checks the registered AST rules (R1–R3, R5, R7, R8), or only
those ``--rule`` names.  Exit codes: 0 clean (modulo baseline), 1 new
violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import textwrap
from pathlib import Path
from typing import List, Optional, Sequence

from .framework import (
    Baseline,
    LintReport,
    all_rules,
    rule_sort_key,
    run_lint,
)

__all__ = ["add_lint_arguments", "lint_from_args", "main"]

#: baseline file looked up next to the scanned root's repo when
#: ``--baseline`` is given without a value
DEFAULT_BASELINE_NAME = "lint-baseline.json"


def default_root() -> Path:
    """The installed ``repro`` package — what CI checks."""
    import repro

    return Path(repro.__file__).resolve().parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--rule", action="append", dest="rules", metavar="ID",
        help="run only this rule id (repeatable, e.g. --rule R1 --rule R3)",
    )
    parser.add_argument(
        "--baseline", nargs="?", const=DEFAULT_BASELINE_NAME, metavar="PATH",
        help="accepted-violations file; findings in it do not fail the run "
             f"(default path when the flag is bare: ./{DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write all current findings to the --baseline path and exit 0",
    )
    parser.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print the machine-readable report instead of one line per "
             "finding",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--explain", metavar="ID",
        help="print a rule's rationale and contract, then exit",
    )


def _resolve_targets(paths: Sequence[str]) -> tuple:
    """(root, explicit file list or None) from the positional args."""
    if not paths:
        return default_root(), None
    resolved = [Path(p).resolve() for p in paths]
    missing = [p for p in resolved if not p.exists()]
    if missing:
        raise FileNotFoundError(str(missing[0]))
    if len(resolved) == 1 and resolved[0].is_dir():
        return resolved[0], None
    files: List[Path] = []
    for path in resolved:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    try:
        import os

        root = Path(os.path.commonpath([str(p.parent) for p in files]))
    except ValueError:
        root = Path.cwd()
    return root, files


def _render_text(report: LintReport, baseline_used: bool) -> str:
    lines = [v.render() for v in report.violations]
    summary = (
        f"repro-lint: {len(report.violations)} new finding(s) across "
        f"{report.files_checked} file(s)"
    )
    extras = []
    if baseline_used:
        extras.append(f"{len(report.baselined)} baselined")
    if report.suppressed > 0:
        extras.append(f"{report.suppressed} suppressed")
    if extras:
        summary += f" ({', '.join(extras)})"
    lines.append(summary)
    return "\n".join(lines)


def _explain_rule(rule_id: str) -> int:
    registry = all_rules()
    rule = registry.get(rule_id.upper())
    if rule is None:
        known = ", ".join(sorted(registry, key=rule_sort_key))
        print(
            f"error: unknown rule id {rule_id!r}; known: {known}",
            file=sys.stderr,
        )
        return 2
    print(f"{rule.id}  {rule.title}")
    print(f"why: {rule.rationale}")
    print()
    print("contract:")
    print(textwrap.indent(inspect.cleandoc(rule.__doc__ or ""), "  "))
    return 0


def lint_from_args(args: argparse.Namespace) -> int:
    if getattr(args, "explain", None):
        return _explain_rule(args.explain)
    if args.list_rules:
        registry = all_rules()
        for rule_id in sorted(registry, key=rule_sort_key):
            rule = registry[rule_id]
            print(f"{rule_id}  {rule.title} — {rule.rationale}")
        return 0

    try:
        root, files = _resolve_targets(args.paths)
    except FileNotFoundError as error:
        print(f"error: no such path: {error}", file=sys.stderr)
        return 2

    baseline: Optional[Baseline] = None
    baseline_path: Optional[Path] = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if baseline_path.exists() and not args.write_baseline:
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, KeyError, json.JSONDecodeError) as error:
                print(
                    f"error: cannot read baseline {baseline_path}: {error}",
                    file=sys.stderr,
                )
                return 2
        elif not args.write_baseline:
            print(
                f"error: baseline {baseline_path} does not exist "
                f"(use --write-baseline to create it)",
                file=sys.stderr,
            )
            return 2

    try:
        report = run_lint(
            root, rule_ids=args.rules, baseline=baseline, paths=files
        )
    except ValueError as error:  # unknown rule id
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        if baseline_path is None:
            print(
                "error: --write-baseline requires --baseline PATH",
                file=sys.stderr,
            )
            return 2
        Baseline.from_violations(
            report.violations + report.baselined
        ).save(baseline_path)
        print(
            f"baseline written to {baseline_path} "
            f"({len(report.violations) + len(report.baselined)} entries)"
        )
        return 0

    if args.json_output:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(_render_text(report, baseline_used=baseline is not None))
    return 0 if report.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-specific AST invariant checks "
                    "(see docs/INTERNALS.md §10)",
    )
    add_lint_arguments(parser)
    return lint_from_args(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
