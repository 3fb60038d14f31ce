"""CI guard: the interprocedural analyzer is fast, armed, and clean.

Three assertions, in order of what usually breaks first:

* **armed** — every deep rule (R10, R12, R13) fires on its known-bad
  fixture under ``tests/analysis/fixtures/``.  A rule that stops firing
  there has been silently defanged (a refactor broke its call-graph or
  effects plumbing) and would report the real tree as "clean" forever
  after.
* **clean** — the full deep run over ``src/repro`` reports zero
  violations.  Genuine findings are fixed, not baselined away, so any
  violation here is a regression in the runtime/core code itself.
* **fast** — the deep run (call graph + effect summaries + three
  interprocedural rules over the whole tree) finishes
  inside ``BUDGET_SECONDS`` wall-clock.  The analyzer runs on every
  push; an accidental quadratic blowup in the fixpoints must fail CI,
  not quietly triple the job time.

Writes a JSON report (timings, per-rule fixture hits, violation dump)
to ``--out`` for the artifact upload.

Run from the repo root::

    PYTHONPATH=src python benchmarks/analyze_selfcheck.py --out analyze-report.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"
FIXTURES = REPO_ROOT / "tests" / "analysis" / "fixtures"

#: hard wall-clock ceiling for the full-tree deep run (seconds)
BUDGET_SECONDS = 30.0

DEEP_RULES = ("R10", "R12", "R13")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=Path("analyze-report.json"),
        help="where to write the JSON report (default: analyze-report.json)",
    )
    parser.add_argument(
        "--budget", type=float, default=BUDGET_SECONDS,
        help=f"wall-clock budget in seconds (default: {BUDGET_SECONDS})",
    )
    args = parser.parse_args(argv)

    failures = []

    started = time.perf_counter()
    fixture_report = run_lint(FIXTURES, deep=True)
    fixture_seconds = time.perf_counter() - started
    fired = {}
    for violation in fixture_report.violations:
        fired.setdefault(violation.rule, []).append(
            f"{violation.path}:{violation.line}"
        )
    for rule in DEEP_RULES:
        if rule not in fired:
            failures.append(
                f"{rule} no longer fires on its known-bad fixture — "
                "the rule has been defanged"
            )

    started = time.perf_counter()
    tree_report = run_lint(REPO_SRC, deep=True)
    tree_seconds = time.perf_counter() - started
    if not tree_report.clean:
        for violation in tree_report.violations:
            failures.append(f"violation: {violation.render()}")
    if tree_seconds > args.budget:
        failures.append(
            f"deep analyze took {tree_seconds:.1f}s — over the "
            f"{args.budget:.0f}s CI budget"
        )

    report = {
        "budget_seconds": args.budget,
        "tree_seconds": round(tree_seconds, 3),
        "tree_files": tree_report.files_checked,
        "tree_violations": [v.to_json() for v in tree_report.violations],
        "fixture_seconds": round(fixture_seconds, 3),
        "fixture_hits": {rule: sorted(fired.get(rule, [])) for rule in DEEP_RULES},
        "failures": failures,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(
        f"analyze self-check: {tree_report.files_checked} files in "
        f"{tree_seconds:.1f}s (budget {args.budget:.0f}s), "
        f"fixture rules fired: "
        + ", ".join(f"{r}x{len(fired.get(r, []))}" for r in DEEP_RULES)
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
