"""Interleaved parent/change pairs of the end-to-end benchmark, with verdicts.

    python3 benchmarks/ab_e2e.py --parent HEAD~1 --workload token-storm \
        --pairs 10 --seed 100

exports each side once — the committed files of ``--parent`` (``git
archive``; nothing is registered in ``.git``) and a copy of this checkout's
files as they are now, uncommitted edits included (tracked and unignored
files; set-up time differs by ~5 % between a checkout with ``.git`` and
caches and a bare export of the same code, so both sides get the bare form)
— then runs ``benchmarks/e2e/run.py --workload W --seed S --trace 0 --out
…`` once per side and pair: pair ``i`` uses seed ``--seed + i`` on both
sides, the parent goes first on even pairs and the change on odd ones.
Every pair runs from fresh copies of the two exports, removed after the
pair, so no one copy's on-disk and in-process layout recurs in every pair
and reads as a verdict.  Each side runs the benchmark files of its own
tree, so the comparison only means something while ``benchmarks/e2e/`` is
identical on both — checked up front.

For every end-to-end metric of ``BENCHMARK.json`` it prints both medians
with their quartiles, wins/pairs (ties count for neither side) and one
verdict, by the rules of the ``choosing-metrics`` guide:

* ``improved`` — the change wins at least nine tenths of the pairs *and*
  the medians differ, in the better direction, by more than the parent's
  inter-quartile distance (section 8);
* ``worse`` — the change's median is worse than the parent's by more than
  the metric's ``bound``;
* ``within bound`` — it is not, and the parent's own spread (IQR ÷ median)
  is no wider than the bound, or every run of the change reads better than
  every run of the parent;
* ``unresolved`` — anything else.  Never "unchanged": a spread wider than
  the bound cannot show that nothing moved.

Under ``setup_s`` it prints one informational row, ``setup raw s``: each
run's median of ``setup_times_s × setup_slowdown``, the set-up phase in
uncalibrated seconds.  The phase lasts 10–70 ms and shares one probe-based
slowdown estimate, which differs from process to process — two exports of
one commit have read 6–13 % apart in ``setup_s`` with equal raw seconds —
so the raw row says whether a ``setup_s`` shift is the code or the
estimate.  It has no verdict and never decides the exit code.

Exit code 1 if a run produces no document, an answer fails verification,
the change's failed share exceeds the parent's or any metric reads
``worse``; the raw values of every run go to ``--out`` (JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> dict:
    """Compare the paired runs of one metric on one workload."""
    sign = -1.0 if better == "lower" else 1.0  # gain > 0 means the change is better
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    gap = sign * (c_med - p_med)
    iqr = p_q3 - p_q1
    scale = abs(p_med) or 1.0
    if wins >= WIN_SHARE * len(gains) and gap > iqr:
        word = "improved"
    elif -gap > bound * scale:
        word = "worse"
    elif iqr <= bound * scale or min(
        sign * c for c in change
    ) > max(sign * p for p in parent):
        word = "within bound"
    else:
        word = "unresolved"
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "wins": wins, "losses": losses, "pairs": len(gains),
        "verdict": word,
    }


def setup_raw_seconds(document: dict) -> float:
    """One run's set-up phase in raw seconds (its calibration undone)."""
    return statistics.median(
        seconds * document["setup_slowdown"]
        for seconds in document["setup_times_s"]
    )


def export_ref(ref: str, dest: Path) -> None:
    """The committed files of ``ref``, unpacked under ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, stdout=subprocess.PIPE
    )
    unpack = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or unpack.returncode != 0:
        raise SystemExit(f"could not export {ref!r}")


def export_checkout(dest: Path) -> None:
    """This checkout's tracked and unignored files as they are on disk."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE,
    ).stdout
    for name in filter(None, listing.split(b"\0")):
        source = ROOT / os.fsdecode(name)
        if source.is_file():  # a tracked file may be deleted in the working tree
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def same_benchmark(trees: Dict[str, Path]) -> bool:
    compare = subprocess.run(
        ["diff", "-r", "-q",
         str(trees["parent"] / "benchmarks" / "e2e"),
         str(trees["change"] / "benchmarks" / "e2e")],
        capture_output=True, text=True,
    )
    if compare.returncode != 0:
        print(compare.stdout, file=sys.stderr)
    return compare.returncode == 0


def run_side(tree: Path, workload: str, seed: int, seconds: Optional[float],
             out: Path) -> dict:
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
        "--out", str(out), "--data-dir", str(out.parent / "data"),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if completed.returncode != 0 or not out.exists():
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(
            f"{workload} seed {seed} in {tree}: exit code {completed.returncode}"
        )
    return json.loads(out.read_text())


def run_pairs(exports: Dict[str, Path], workload: str, args, workdir: Path):
    """``args.pairs`` runs per side, alternating which side goes first,
    each pair from its own fresh copies of the two exports."""
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        trees = {
            side: workdir / f"{side}-run.{workload}.s{seed}" for side in exports
        }
        try:
            for side in order:
                shutil.copytree(exports[side], trees[side], symlinks=True)
            for side in order:
                out = workdir / side / f"{workload}.s{seed}.json"
                out.parent.mkdir(parents=True, exist_ok=True)
                document = run_side(trees[side], workload, seed, args.seconds, out)
                runs[side].append(document)
                print(
                    f"  {workload} pair {pair} seed {seed} {side:6s} "
                    f"wall_s {document['metrics']['wall_s']['value']:.4g} "
                    f"failed {document['failed']}/{document['attempted']}",
                    flush=True,
                )
        finally:
            for tree in trees.values():
                shutil.rmtree(tree, ignore_errors=True)
    return runs


def summarize(workload: str, runs: Dict[str, List[dict]], args, metrics) -> dict:
    """Print one row per end-to-end metric; returns the workload's report."""
    failed = {
        side: [sum(d["failed"] for d in docs), sum(d["attempted"] for d in docs)]
        for side, docs in runs.items()
    }
    summary = {
        "seeds": [args.seed + pair for pair in range(args.pairs)],
        "failed": failed,
        "correct": all(d["correct"] for docs in runs.values() for d in docs),
        "metrics": {},
    }
    print(
        f"\n{workload}: {args.pairs} pairs, seeds {args.seed}.."
        f"{args.seed + args.pairs - 1}, failed/attempted parent "
        f"{failed['parent']} change {failed['change']}"
    )
    for metric in metrics:
        name = metric["name"]
        values = {
            side: [d["metrics"][name]["value"] for d in docs]
            for side, docs in runs.items()
        }
        if any(v is None for side in values.values() for v in side):
            print(f"  {name:14s} no value on some run: unresolved")
            continue
        row = verdict(
            values["parent"], values["change"], metric["better"], metric["bound"]
        )
        row["values"] = values
        summary["metrics"][name] = row
        p, c = row["parent"], row["change"]
        print(
            f"  {name:14s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
            f"{metric['unit']:3s} wins {row['wins']}/{row['pairs']}"
            f" (losses {row['losses']})  {row['verdict']}"
        )
        if name == "setup_s":
            raw = {
                side: [setup_raw_seconds(d) for d in docs]
                for side, docs in runs.items()
            }
            summary["setup_raw_s"] = raw
            spread = {
                side: "{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(values))
                for side, values in raw.items()
            }
            print(
                f"  {'setup raw s':14s} parent {spread['parent']}"
                f"  change {spread['change']} s  "
                f" (uncalibrated; informational, no verdict)"
            )
    print(flush=True)
    return summary


def failed_share(summary: dict, side: str) -> float:
    failed, attempted = summary["failed"][side]
    return failed / attempted if attempted else 1.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seed", type=int, required=True,
        help="seed of the first pair; use seeds not used during development",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="where the two trees and the run outputs go "
        "(default: a temporary directory, removed afterwards)",
    )
    parser.add_argument("--out", type=Path, help="raw values and verdicts (JSON)")
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="ab_e2e."))
    exports = {side: workdir / f"{side}-tree" for side in ("parent", "change")}
    report: Dict[str, dict] = {}
    try:
        for tree in exports.values():
            if tree.exists():
                shutil.rmtree(tree)
        export_ref(args.parent, exports["parent"])
        export_checkout(exports["change"])
        if not same_benchmark(exports):
            raise SystemExit("benchmarks/e2e differs between the two sides")
        for workload in args.workload:
            runs = run_pairs(exports, workload, args, workdir)
            report[workload] = summarize(
                workload, runs, args, spec["end_to_end"]
            )
    finally:
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(report, indent=1) + "\n")
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    bad = any(
        not summary["correct"]
        or failed_share(summary, "change") > failed_share(summary, "parent")
        or any(row["verdict"] == "worse" for row in summary["metrics"].values())
        for summary in report.values()
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
