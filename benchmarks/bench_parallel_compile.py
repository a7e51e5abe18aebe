"""Machine-readable parallel-compilation benchmark (``make bench-json``).

Compiles the five Table 1 ontologies cold (sequential), cold (process
pool via :func:`repro.parallel.compile_workloads`) and warm (served from
the persistent store the parallel run filled), and writes one JSON
document — ``BENCH_parallel.json`` by default — so the performance
trajectory of the repository is tracked by artifacts instead of prose:

* per-ontology (and per-query) wall-clock and rewriting sizes for the
  sequential run;
* batch wall-clock and speedup for the parallel run, plus the two
  invariants that make the speedup trustworthy: identical sizes and
  byte-identical stores under every worker count;
* the **intra-query axis**: the slowest ontology recompiled query by
  query as ``rewrite(query, strategy=chunked)``, its frontier
  generations split across a pool of N processes
  (:class:`repro.scheduling.ChunkedProcessStrategy`, a test instrument
  that no compile path uses), and stored in input order, together with
  the per-query granularity ceiling (``ontology total / slowest query``)
  that intra-query scheduling exists to break — with few cores the
  recorded speedups fall below 1, so read them alongside the recorded
  ``cpu_count``;
* warm wall-clock (the compile-once serving layer, for scale).

The headline configuration is the plain ``TGD-rewrite`` engine (the NY
column): that is the expensive compilation path, and unlike NY* it is
not dominated by a single skewed query.  Run with ``--elimination`` to
measure the NY* engine instead.

The script is import-safe for test collectors; it only runs under
``python benchmarks/bench_parallel_compile.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.api import OBDASystem, resolve_engine_options  # noqa: E402
from repro.cache.store import RewritingStore  # noqa: E402
from repro.core.rewriter import TGDRewriter  # noqa: E402
from repro.parallel import compile_workloads, resolve_workers  # noqa: E402
from repro.scheduling import ChunkedProcessStrategy  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

WORKLOADS = ("V", "S", "U", "A", "P5")
SCHEMA_VERSION = 2


def _make_jobs(cache_root: Path, use_elimination: bool):
    """One (system, queries) job per Table 1 ontology, cache per ontology."""
    jobs = []
    for name in WORKLOADS:
        workload = get_workload(name)
        system = OBDASystem(
            workload.theory,
            use_elimination=use_elimination,
            use_nc_pruning=False,
            cache=cache_root / name,
        )
        jobs.append((system, [workload.query(q) for q in workload.query_names]))
    return jobs


def _sizes(results) -> dict[str, dict[str, int]]:
    return {
        name: {
            query_name: len(result.ucq)
            for query_name, result in zip(
                get_workload(name).query_names, job_results
            )
        }
        for name, job_results in zip(WORKLOADS, results)
    }


def _store_bytes(cache_root: Path) -> dict[str, bytes]:
    return {
        name: (cache_root / name / "rewritings.jsonl").read_bytes()
        for name in WORKLOADS
    }


def run(workers: int | None, use_elimination: bool) -> dict:
    """Execute the three measured phases and return the JSON document."""
    workers = resolve_workers(workers)
    document: dict = {
        "schema": SCHEMA_VERSION,
        "benchmark": "parallel_compile",
        "workloads": list(WORKLOADS),
        "configuration": {
            "use_elimination": use_elimination,
            "use_nc_pruning": False,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
    }

    with tempfile.TemporaryDirectory(prefix="bench-parallel-") as scratch:
        scratch = Path(scratch)

        # -- cold, sequential: one ontology at a time, workers=1 ----------
        sequential_root = scratch / "sequential"
        per_ontology = {}
        sequential_total = 0.0
        sequential_results = []
        for name in WORKLOADS:
            workload = get_workload(name)
            system = OBDASystem(
                workload.theory,
                use_elimination=use_elimination,
                use_nc_pruning=False,
                cache=sequential_root / name,
            )
            queries = [workload.query(q) for q in workload.query_names]
            started = time.perf_counter()
            results = system.compile_many(queries, workers=1)
            elapsed = time.perf_counter() - started
            sequential_total += elapsed
            sequential_results.append(results)
            per_ontology[name] = {
                "seconds": round(elapsed, 4),
                "per_query_seconds": {
                    q: round(r.statistics.elapsed_seconds, 4)
                    for q, r in zip(workload.query_names, results)
                },
                "sizes": {
                    q: len(r.ucq) for q, r in zip(workload.query_names, results)
                },
            }
        document["cold_sequential"] = {
            "total_seconds": round(sequential_total, 4),
            "per_ontology": per_ontology,
        }

        # -- cold, parallel: all five ontologies through one pool ---------
        parallel_root = scratch / "parallel"
        jobs = _make_jobs(parallel_root, use_elimination)
        started = time.perf_counter()
        parallel_results = compile_workloads(jobs, workers=workers)
        parallel_total = time.perf_counter() - started
        document["cold_parallel"] = {
            "total_seconds": round(parallel_total, 4),
            "workers": workers,
        }
        document["speedup_cold"] = round(sequential_total / parallel_total, 3)
        document["sizes_identical"] = _sizes(parallel_results) == _sizes(
            sequential_results
        )
        document["stores_identical"] = _store_bytes(parallel_root) == _store_bytes(
            sequential_root
        )

        # -- intra-query: split the slowest ontology's frontiers ----------
        # Per-query tasks cap the parallel speedup of one ontology at
        # total / slowest-query; the chunked strategy removes that ceiling
        # by spreading each frontier generation across the pool.
        slowest = max(per_ontology, key=lambda name: per_ontology[name]["seconds"])
        slowest_sequential = per_ontology[slowest]["seconds"]
        slowest_query = max(per_ontology[slowest]["per_query_seconds"].values())
        ceiling = (
            slowest_sequential / slowest_query if slowest_query > 0 else None
        )
        # The engine and fingerprint of the sequential run's system.
        workload = get_workload(slowest)
        options = resolve_engine_options(
            workload.theory, use_elimination=use_elimination, use_nc_pruning=False
        )
        engine = TGDRewriter(
            workload.theory,
            use_elimination=options.use_elimination,
            use_nc_pruning=options.use_nc_pruning,
        )
        intra_root = scratch / "intra"
        store = RewritingStore(intra_root / slowest)
        queries = [workload.query(q) for q in workload.query_names]
        started = time.perf_counter()
        with ChunkedProcessStrategy(workers=workers) as strategy:
            intra_results = [
                engine.rewrite(query, strategy=strategy) for query in queries
            ]
        for query, result in zip(queries, intra_results):
            store.put(query, options.fingerprint, result)
        intra_total = time.perf_counter() - started
        document["intra_query"] = {
            "ontology": slowest,
            "strategy": "chunked",
            "workers": workers,
            "seconds": round(intra_total, 4),
            "sequential_seconds": slowest_sequential,
            "speedup": round(slowest_sequential / intra_total, 3)
            if intra_total > 0
            else None,
            "per_query_granularity_ceiling": round(ceiling, 3)
            if ceiling is not None
            else None,
            "sizes_identical": {
                q: len(r.ucq) for q, r in zip(workload.query_names, intra_results)
            }
            == per_ontology[slowest]["sizes"],
            "stores_identical": (
                intra_root / slowest / "rewritings.jsonl"
            ).read_bytes()
            == (sequential_root / slowest / "rewritings.jsonl").read_bytes(),
        }

        # -- warm: served back from the store the parallel run filled -----
        warm_jobs = _make_jobs(parallel_root, use_elimination)
        started = time.perf_counter()
        warm_results = compile_workloads(warm_jobs, workers=workers)
        warm_total = time.perf_counter() - started
        document["warm"] = {
            "total_seconds": round(warm_total, 4),
            "all_hits": all(
                result.statistics.persistent_cache_hits == 1
                for job_results in warm_results
                for result in job_results
            ),
        }
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_parallel.json", help="where to write the JSON"
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool size for the parallel phase (default: one per CPU)",
    )
    parser.add_argument(
        "--elimination", action="store_true",
        help="measure the NY* engine (TGD-rewrite*) instead of plain NY",
    )
    arguments = parser.parse_args(argv)
    document = run(arguments.workers, arguments.elimination)
    Path(arguments.output).write_text(
        json.dumps(document, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    print(
        f"cold sequential {document['cold_sequential']['total_seconds']}s, "
        f"cold x{document['configuration']['workers']} workers "
        f"{document['cold_parallel']['total_seconds']}s "
        f"(speedup {document['speedup_cold']}x), "
        f"warm {document['warm']['total_seconds']}s -> {arguments.output}"
    )
    print(
        f"sizes identical: {document['sizes_identical']}; "
        f"stores identical: {document['stores_identical']}; "
        f"warm all hits: {document['warm']['all_hits']}"
    )
    intra = document["intra_query"]
    print(
        f"intra-query ({intra['ontology']}, {intra['workers']} workers): "
        f"{intra['sequential_seconds']}s sequential -> {intra['seconds']}s "
        f"chunked (speedup {intra['speedup']}x, per-query ceiling "
        f"{intra['per_query_granularity_ceiling']}x); "
        f"sizes identical: {intra['sizes_identical']}; "
        f"stores identical: {intra['stores_identical']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
