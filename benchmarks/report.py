"""Regenerate the full Table 1 reproduction as plain text.

Runs the four systems (QO, RQ, NY, NY*) on every workload and every query
and prints one block per workload, in the layout of Table 1 of the paper
(size, length and width per system), followed by the per-cell rewriting
times.  ``docs/BENCHMARKS.md`` ("Reading the Table 1 reproduction")
explains the columns; ``repro table1`` prints the same blocks without
the timings.

Usage::

    python benchmarks/report.py            # all workloads
    python benchmarks/report.py S U P5     # selected workloads only
"""

from __future__ import annotations

import sys
import time

from repro.evaluation import SYSTEMS, Table1Evaluator, format_rows
from repro.workloads import TABLE1_WORKLOADS, get_workload


def report(workload_names: list[str]) -> None:
    grand_start = time.perf_counter()
    for name in workload_names:
        workload = get_workload(name)
        evaluator = Table1Evaluator(workload)
        start = time.perf_counter()
        rows = evaluator.rows()
        elapsed = time.perf_counter() - start
        print(f"=== {name} — {workload.description}")
        print(f"    ({len(workload.theory.tgds)} TGDs, evaluated in {elapsed:.1f}s)")
        print(format_rows(rows, systems=SYSTEMS))
        print()
        print("    rewriting time (seconds):")
        for row in rows:
            cells = "  ".join(
                f"{system}={row.cell(system).elapsed_seconds:.3f}" for system in SYSTEMS
            )
            print(f"      {row.query_name}: {cells}")
        print()
    print(f"total: {time.perf_counter() - grand_start:.1f}s")


if __name__ == "__main__":
    requested = sys.argv[1:] or list(TABLE1_WORKLOADS)
    report(requested)
