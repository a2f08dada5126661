#!/usr/bin/env python3
"""Served-rewrite benchmark: SQL text into ``ViewServer``, a plan out.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload cold-1k --seed 1 --seconds 10 --trace 0

Runs one workload (see ``e2e_workloads.py`` and ``README.md``) in this
process with inputs made from ``--seed``, checks the served answers, and
prints a human-readable summary followed, as the last line of standard
output, by one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ledger metrics with ``--trace 1``). With ``--trace 1`` the span dump and
the ledger table are also written under ``.bench_out/`` at the
repository root. Exit status is 0 only when every check passed; a failed
check prints the result with ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> str:
    """Python, numpy, the packed-sweep backend and the usable CPUs."""
    from repro.core.interning import packed_backend_name

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        f"python {platform.python_version()}, numpy {numpy_version}, "
        f"backend {packed_backend_name()}, "
        f"nproc {len(os.sched_getaffinity(0))} of {os.cpu_count()}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import e2e_workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = e2e_workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(e2e_workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    outcome = e2e_workloads.run(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    print(f"workload {args.workload} seed {args.seed}: {workload.parameters()}")
    print(f"environment: {environment()}")
    for line in outcome.report:
        print(line)
    if outcome.ledger is not None:
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        count = outcome.ledger.dump(
            f"{stem}.spans.tsv.gz", min(outcome.windows.values())[0]
        )
        Path(f"{stem}.ledger.txt").write_text("\n".join(outcome.report) + "\n")
        print(f"{count} spans written to {stem}.spans.tsv.gz")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
