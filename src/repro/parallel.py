"""Parallel workload compilation: partition, compile in workers, merge once.

The paper's pitch is *compile once, evaluate anywhere* — so cold-compile
wall-clock is one of the two numbers that matter (the other being
rewriting size).  A workload's queries are independent compilation units,
and :meth:`repro.core.rewriter.TGDRewriter.rewrite` is a pure function of
``(rules, options, query)`` (deterministic rename-apart, per-expansion
fresh variables), which makes the fan-out trivial to get *exactly* right:

1. **Pre-scan (parent).**  Every query is first probed against its
   system's in-process cache and persistent store, in input order.  Only
   genuine misses become worker tasks; a warm store never spawns a pool.
2. **Partition + compile (workers).**  Pending queries are submitted
   one-per-task to a :class:`~concurrent.futures.ProcessPoolExecutor`
   whose workers hold one rewriting engine per job (theory + resolved
   options), built lazily from the pickled theory on first use.  Tasks
   are self-contained, so scheduling is dynamic — no partition can
   straggle behind a skewed query.
3. **Merge (single writer, parent).**  Results are reassembled by input
   position; the parent alone appends to each
   :class:`~repro.cache.store.RewritingStore`, in input order, so the
   JSON-lines file never sees interleaved appends and its bytes are
   identical to the ones the sequential path writes.  Per-query
   statistics are folded into workload totals with
   :meth:`~repro.core.rewriter.RewritingStatistics.merge`.

``compile_workloads`` accepts *many* ``(system, queries)`` jobs and
schedules all their tasks through one pool: compiling the five Table 1
ontologies this way overlaps the long tail of one ontology with the
queries of the next, which is where most of the multi-core speedup
comes from (a single skewed query otherwise bounds its workload's
makespan).  With one pending query, or ``workers=1``, nothing is fanned
out: the pending queries are compiled in the parent, without a pool.

This per-query pool and sequential expansion in one process are the two
ways a compile runs; one query's frontier generations are never split
across processes (the strategies of :mod:`repro.scheduling` that can do
so are test instruments).  :func:`resolve_workers` sizes the pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Iterable, Sequence

from .core.rewriter import RewritingResult, TGDRewriter
from .queries.conjunctive_query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import OBDASystem

__all__ = ["compile_workloads", "resolve_workers"]


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` argument: ``None`` means one per usable CPU.

    "Usable" respects the process's CPU affinity mask where the platform
    exposes it (cgroup-limited containers often report the host's core
    count through ``os.cpu_count()`` while only a subset is schedulable).
    """
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux platforms
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


# -- worker side -----------------------------------------------------------
#
# Each worker process receives every job's engine specification once (via
# the pool initializer) and builds rewriting engines lazily, so a worker
# that never draws a task for job *j* never pays for j's engine.  Engines
# are cached per job for the lifetime of the worker: queries of the same
# workload share the rule index and memo layers exactly as they do in the
# sequential path — and thanks to the deterministic engine this sharing
# cannot change a single output byte.

_WORKER_SPECIFICATIONS: tuple | None = None
_WORKER_ENGINES: dict[int, TGDRewriter] = {}


def _initialize_worker(specifications: tuple) -> None:
    """Pool initializer: remember the engine spec of every job."""
    global _WORKER_SPECIFICATIONS, _WORKER_ENGINES
    _WORKER_SPECIFICATIONS = specifications
    _WORKER_ENGINES = {}


def _worker_engine(job: int) -> TGDRewriter:
    """The worker's (lazily built) rewriting engine for *job*."""
    engine = _WORKER_ENGINES.get(job)
    if engine is None:
        engine = TGDRewriter.from_specification(_WORKER_SPECIFICATIONS[job])
        _WORKER_ENGINES[job] = engine
    return engine


def _compile_in_worker(
    task: tuple[int, int, ConjunctiveQuery]
) -> tuple[int, int, RewritingResult]:
    """Compile one query; the ``(job, position)`` tag routes the result back.

    The rules tuple is stripped before pickling: the parent re-attaches
    its own (equal) rules object anyway, and shipping hundreds of TGDs
    back once per query would dominate the IPC payload.
    """
    job, position, query = task
    result = _worker_engine(job).rewrite(query)
    return job, position, RewritingResult(
        query=result.query,
        rules=(),
        ucq=result.ucq,
        auxiliary_queries=result.auxiliary_queries,
        statistics=result.statistics,
    )


# -- parent side -----------------------------------------------------------


def compile_workloads(
    jobs: Iterable[tuple["OBDASystem", Sequence[ConjunctiveQuery]]],
    workers: int | None = None,
) -> list[list[RewritingResult]]:
    """Compile many ``(system, queries)`` jobs through one process pool.

    Returns one result list per job, in input order, exactly as the
    corresponding ``system.compile_many(queries, workers=1)`` would —
    same cache counters on warm paths, same bytes appended to each
    persistent store.  With ``workers=1``, a single pending query, or
    everything served from a cache, no pool is created and compilation
    happens in the parent.
    """
    jobs = [(system, list(queries)) for system, queries in jobs]
    workers = resolve_workers(workers)

    outputs: list[list[RewritingResult | None]] = [
        [None] * len(queries) for _, queries in jobs
    ]
    pending: list[tuple[int, int, ConjunctiveQuery]] = []
    duplicates: list[tuple[int, int, int]] = []  # (job, position, first position)

    for job, (system, queries) in enumerate(jobs):
        first_occurrence: dict[ConjunctiveQuery, int] = {}
        for position, query in enumerate(queries):
            earlier = first_occurrence.get(query)
            if earlier is not None:
                # The sequential loop would find the first occurrence's
                # result in the in-process cache by now: count the hit and
                # share the (still pending) result object.  (A query equal
                # to a pending one cannot be served by the caches — its
                # first occurrence just missed them.)
                system._cache_hits += 1
                duplicates.append((job, position, earlier))
                continue
            served = system._serve_from_caches(query)
            if served is not None:
                outputs[job][position] = served[0]
                continue
            first_occurrence[query] = position
            pending.append((job, position, query))

    if pending:
        effective = min(workers, len(pending))
        if effective <= 1:
            for job, position, query in pending:
                system = jobs[job][0]
                outputs[job][position] = system._rewriter.rewrite(query)
        else:
            specifications = tuple(
                system._rewriter.specification() for system, _ in jobs
            )
            with ProcessPoolExecutor(
                max_workers=effective,
                initializer=_initialize_worker,
                initargs=(specifications,),
            ) as pool:
                futures = [pool.submit(_compile_in_worker, task) for task in pending]
                for future in futures:
                    job, position, result = future.result()
                    # Re-attach the parent's rule tuple: the worker's copy
                    # is equal but pickled, and every result of one system
                    # should share one rules object (as sequentially).
                    outputs[job][position] = RewritingResult(
                        query=result.query,
                        rules=jobs[job][0]._rewriter.rules,
                        ucq=result.ucq,
                        auxiliary_queries=result.auxiliary_queries,
                        statistics=result.statistics,
                    )

        # Single-writer merge: only the parent touches the stores, and it
        # appends in input order, so the JSON-lines bytes — and every
        # result object with its statistics — equal the workers=1 run.
        # An in-batch *variant* (compiled redundantly by a worker) is
        # detected by the refused put inside _absorb_fresh_result and
        # served from the stored record, as sequentially; only the
        # store's own probe counters see that extra lookup.
        fresh = {(job, position) for job, position, _ in pending}
        for job, (system, queries) in enumerate(jobs):
            for position, query in enumerate(queries):
                if (job, position) not in fresh:
                    continue
                outputs[job][position] = system._absorb_fresh_result(
                    query, outputs[job][position]
                )

    for job, position, earlier in duplicates:
        outputs[job][position] = outputs[job][earlier]

    results: list[list[RewritingResult]] = []
    for job, (system, _) in enumerate(jobs):
        job_results = outputs[job]
        assert all(result is not None for result in job_results)
        system._record_batch_statistics(job_results)
        results.append(job_results)
    return results
