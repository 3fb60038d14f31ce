"""End-to-end benchmark: absolute time on four paper-shaped workloads.

    python3 benchmarks/e2e/run.py --workload token-storm --seed 0 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --trace 1     # every workload, then traced

With ``--workload`` the run happens in this process and the last line of
standard output is the result object the benchmark contract asks for.
Without it every workload runs in its own fresh child process, one at a
time, so peak RSS and the program's process-wide caches are per workload;
the children's documents are gathered into one file.

See README.md in this directory for metric definitions and rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# numpy asks for transparent huge pages on large arrays; on the reference
# VM that made a token-storm round spend between 0.1 s and 1.9 s in the
# kernel for the same page-fault count.  Must be set before numpy loads,
# and is not an option: every run of the benchmark measures the same thing.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
# Measure the checkout this file sits in, never an installed copy.
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

SPEC = HERE.parents[1] / "BENCHMARK.json"
WORKLOAD_NAMES = ("paper-stream", "clique-explore", "token-storm", "motif-census")


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="small inputs for the tests; numbers are NOT COMPARABLE",
    )
    parser.add_argument(
        "--record-expected", action="store_true",
        help="write the fingerprints this run observes instead of checking them",
    )
    parser.add_argument("--out", type=Path, help="result document (JSON)")
    parser.add_argument(
        "--data-dir", type=Path, default=HERE / ".data",
        help="where the generated graph files go",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (
            1.0 if args.quick else float(json.loads(SPEC.read_text())["run_seconds"])
        )
    return args


def _default_out(args, workload: str, trace: int) -> Path:
    preset = "quick" if args.quick else "full"
    return HERE / ".out" / f"{workload}.{preset}.s{args.seed}.t{trace}.json"


def _print_metrics(document: dict) -> None:
    tag = "" if document["comparable"] else "   NOT COMPARABLE (quick preset)"
    if not document["verified"]:
        tag += "   UNVERIFIED (fingerprints recorded, not checked)"
    print(
        f"{document['workload']}  seed={document['environment']['seed']}  "
        f"rounds={document['rounds']}+{document['traced_rounds']} traced  "
        f"failed={document['failed']}/{document['attempted']}{tag}"
    )
    for name, metric in document["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {metric['unit']}")
    if document["unstable_counts"]:
        print(f"  counts that differed between rounds: {document['unstable_counts']}")


def run_one(args) -> int:
    """Driver mode: one workload in this process."""
    import harness
    import tracing

    document = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        "quick" if args.quick else "full", args.data_dir,
        record_expected=args.record_expected,
    )
    spans = document.pop("spans")
    out = args.out or _default_out(args, args.workload, args.trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    if spans:
        tracing.dump_jsonl(spans, out.with_suffix(".spans.jsonl"))
    _print_metrics(document)
    print(
        json.dumps(
            {key: document[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one at a time."""
    documents = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            out = _default_out(args, workload, trace)
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(out), "--data-dir", str(args.data_dir),
            ]
            command += ["--quick"] if args.quick else []
            command += ["--record-expected"] if args.record_expected else []
            completed = subprocess.run(command, check=False)
            if completed.returncode != 0:
                print(f"{workload} (trace {trace}) exited with {completed.returncode}")
                return completed.returncode
            documents.append(json.loads(out.read_text()))
    out = args.out or HERE / ".out" / f"all.s{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"schema": 1, "runs": documents}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(d["correct"] for d in documents) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
