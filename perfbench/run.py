"""One benchmark for cold compile, warm serving and standing-query churn.

Run from the repository root::

    python3 perfbench/run.py --workload {cold,warm,churn} --seed N \\
        --seconds S --trace {0,1}

The workloads are described in ``perfbench/scenarios.py``.  The program is
imported from ``src/`` of the same checkout; nothing is built or
installed.  The last line of standard output is one JSON object::

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures of the
operations — each pass's latency median, 90th percentile and operations
per second, each a median over the run's passes — and the median set-up
time of a pass (``setup_s``), measured on the unmodified program.  Units
come from ``BENCHMARK.json``.  With ``--trace 1`` the layer boundaries
are wrapped (``tracing.py``) and the metrics are per-operation layer
figures over all passes: microseconds of self time per layer, work
counts per operation, and the shares of parallel rewriting generations,
answer-cache hits and incremental polls.  ``correct`` is false, and the
exit code 1, when
any answer disagreed with the oracles; the exit code is 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold", "warm", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SOURCES})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))

    import scenarios
    from tracing import Tracer, per_layer_metrics

    tracer = Tracer()
    if arguments.trace:
        tracer.install()
    try:
        measurement = asyncio.run(
            scenarios.WORKLOADS[arguments.workload](
                arguments.seed, arguments.seconds, tracer
            )
        )
    finally:
        tracer.restore()

    units = declared_units()
    operations = measurement.operations
    if arguments.trace:
        metrics = per_layer_metrics(tracer, operations)
        metrics["answer_cache_hit_pct"] = 100.0 * (
            measurement.answer_cache_hits / max(1, measurement.answer_responses)
        )
        metrics["incremental_poll_pct"] = 100.0 * (
            measurement.incremental_polls / max(1, measurement.polls)
        )
    else:
        metrics = scenarios.end_to_end_metrics(measurement)
    for error in measurement.errors:
        print(f"failure: {error}", file=sys.stderr)
    correct = measurement.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
