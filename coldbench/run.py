"""Run one workload of the cold-path benchmark and print its metrics.

Usage, from the repository root::

    python3 coldbench/run.py --workload lake_sweep --seed 1 \\
        --seconds 9 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones from the
separate traced run, whose spans are written under ``.coldbench_out/``.
The line before it carries the run's details (drift probe, tail
percentile and sample counts, serve backlog, ...).

The benchmark imports the package from ``src/`` of the checkout it
sits in and writes only under ``.coldbench_work/`` (removed at exit)
and ``.coldbench_out/``.  Without ``src/repro`` it exits with code 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lake_sweep", "serve_open", "paper_cv")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"coldbench: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    base = ROOT / ".coldbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        if args.trace:
            from coldbench.trace import run_traced

            report = run_traced(args.workload, args.seed, args.seconds,
                                workdir, ROOT, ROOT / ".coldbench_out")
        else:
            from coldbench.workloads import run_workload

            report = run_workload(args.workload, args.seed, args.seconds,
                                  workdir, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details = report.pop("details")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
