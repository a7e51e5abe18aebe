"""Parallel compilation must be invisible except for speed.

The contract of :mod:`repro.parallel` is that the worker count is a pure
performance knob: compiling a workload at any ``workers`` value yields
byte-identical persistent stores, identical result reprs, and the exact
pinned Table 1 sizes.  That in turn rests on the engine being a pure
function of ``(rules, options, query)`` — deterministic rename-apart and
per-run fresh variables — which the first test pins directly.
"""

import pytest

from repro.api import OBDASystem, resolve_engine_options
from repro.cache.store import RewritingStore
from repro.core.rewriter import RewritingStatistics, TGDRewriter
from repro.parallel import compile_workloads, resolve_workers
from repro.scheduling import ChunkedProcessStrategy, ThreadedStrategy
from repro.workloads import get_workload
from tests.integration.test_regression_sizes import EXPECTED_SIZES

WORKER_COUNTS = (1, 2, 4)


class TestEngineDeterminism:
    """A warmed-up engine and a fresh engine produce the same bytes."""

    @pytest.mark.parametrize("workload_name", ["S", "P5"])
    def test_rewrite_is_engine_history_independent(self, workload_name):
        workload = get_workload(workload_name)
        shared = TGDRewriter(workload.theory.tgds, use_elimination=True)
        for name in workload.query_names:
            query = workload.query(name)
            fresh = TGDRewriter(workload.theory.tgds, use_elimination=True)
            alone = fresh.rewrite(query)
            warmed = shared.rewrite(query)
            assert repr(warmed.ucq) == repr(alone.ucq), name
            assert warmed.auxiliary_queries == alone.auxiliary_queries, name

    def test_repeated_rewrites_on_one_engine_are_identical(self):
        workload = get_workload("S")
        engine = TGDRewriter(workload.theory.tgds)
        query = workload.query("q2")
        assert repr(engine.rewrite(query).ucq) == repr(engine.rewrite(query).ucq)


@pytest.mark.parametrize("workload_name", sorted(EXPECTED_SIZES))
class TestWorkerCountInvariance:
    """workers ∈ {1, 2, 4}: same store bytes, same pinned sizes."""

    def test_stores_and_sizes_are_identical_under_any_worker_count(
        self, workload_name, tmp_path
    ):
        workload = get_workload(workload_name)
        queries = [workload.query(name) for name in workload.query_names]
        expected = [
            EXPECTED_SIZES[workload_name][name][1] for name in workload.query_names
        ]

        stores = {}
        reprs = {}
        for workers in WORKER_COUNTS:
            directory = tmp_path / f"workers-{workers}"
            system = OBDASystem(
                workload.theory, use_nc_pruning=False, cache=directory
            )
            results = system.compile_many(queries, workers=workers)
            assert [len(result.ucq) for result in results] == expected, workers
            stores[workers] = (directory / "rewritings.jsonl").read_bytes()
            reprs[workers] = [repr(result.ucq) for result in results]

        baseline = stores[1]
        assert baseline  # the cold run actually persisted something
        for workers in WORKER_COUNTS[1:]:
            assert stores[workers] == baseline, (
                f"store bytes differ between workers=1 and workers={workers}"
            )
            assert reprs[workers] == reprs[1]


class TestParallelServingSemantics:
    def test_warm_parallel_run_is_served_without_a_pool(self, tmp_path):
        workload = get_workload("S")
        queries = [workload.query(name) for name in workload.query_names]
        OBDASystem(workload.theory, cache=tmp_path).compile_many(queries, workers=1)

        warm = OBDASystem(workload.theory, cache=tmp_path)
        results = warm.compile_many(queries, workers=4)
        assert all(r.statistics.persistent_cache_hits == 1 for r in results)
        info = warm.rewriting_cache_info()
        assert info.persistent_hits == len(queries)
        assert info.persistent_misses == 0

    def test_in_batch_variant_is_served_from_the_store(self, tmp_path):
        # A cold batch containing a variant of an earlier query: the
        # sequential loop compiles the first and serves the second from
        # the record it just persisted.  The parallel merge reproduces
        # that — one store entry, a persistent hit on the variant.
        workload = get_workload("S")
        query = workload.query("q2")
        variant = query.rename_variables(prefix="VV")
        system = OBDASystem(workload.theory, cache=tmp_path)
        first, second = system.compile_many([query, variant], workers=2)
        assert first.statistics.persistent_cache_misses == 1
        assert second.statistics.persistent_cache_hits == 1
        assert len(system.rewriting_store) == 1
        assert len(second.ucq) == len(first.ucq)

    def test_in_batch_variant_runs_the_engine_once(self, tmp_path, monkeypatch):
        # The in-process loop probes the caches before every compile, so
        # a variant of an earlier member is served from the record that
        # member just stored.
        runs = []
        rewrite = TGDRewriter.rewrite

        def counted(engine, query, *args, **kwargs):
            runs.append(query)
            return rewrite(engine, query, *args, **kwargs)

        monkeypatch.setattr(TGDRewriter, "rewrite", counted)
        workload = get_workload("A")
        query = workload.query("q5")
        variant = query.rename_variables(prefix="VV")
        system = OBDASystem(workload.theory, cache=tmp_path)
        first, second = system.compile_many([query, variant], workers=1)
        assert runs == [query]
        assert second.statistics.persistent_cache_hits == 1
        assert len(system.rewriting_store) == 1
        assert len(second.ucq) == len(first.ucq)

    def test_duplicate_queries_share_one_result_object(self, tmp_path):
        workload = get_workload("S")
        query = workload.query("q2")
        system = OBDASystem(workload.theory, cache=tmp_path)
        first, second = system.compile_many([query, query], workers=2)
        assert first is second
        info = system.rewriting_cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_batch_statistics_are_merged_totals(self):
        workload = get_workload("S")
        queries = [workload.query(name) for name in workload.query_names]
        system = OBDASystem(workload.theory)
        results = system.compile_many(queries, workers=1)
        totals = system.last_batch_statistics
        assert totals is not None
        assert totals.generated_by_rewriting == sum(
            result.statistics.generated_by_rewriting for result in results
        )
        assert totals.processed_queries == sum(
            result.statistics.processed_queries for result in results
        )

    def test_compile_workloads_spans_many_systems(self, tmp_path):
        jobs = []
        expected = []
        for name in ("S", "P5"):
            workload = get_workload(name)
            system = OBDASystem(
                workload.theory, use_nc_pruning=False, cache=tmp_path / name
            )
            queries = [workload.query(q) for q in workload.query_names]
            jobs.append((system, queries))
            expected.append(
                [EXPECTED_SIZES[name][q][1] for q in workload.query_names]
            )
        results = compile_workloads(jobs, workers=2)
        assert [[len(r.ucq) for r in job] for job in results] == expected
        for system, _ in jobs:
            assert isinstance(system.last_batch_statistics, RewritingStatistics)


class TestResolveWorkers:
    def test_none_means_one_per_usable_cpu(self):
        import os

        expected = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1)
        )
        assert resolve_workers(None) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


#: The intra-query strategies, each sized for two workers.
INTRA_QUERY_STRATEGIES = {
    "chunked": lambda: ChunkedProcessStrategy(workers=2),
    "threaded": lambda: ThreadedStrategy(threads=2),
}


class TestIntraQueryInvariance:
    """Splitting one query's generations across workers changes no byte."""

    @pytest.mark.parametrize("strategy", sorted(INTRA_QUERY_STRATEGIES))
    def test_strategy_mode_writes_the_same_store_bytes(self, strategy, tmp_path):
        workload = get_workload("S")
        queries = [workload.query(name) for name in workload.query_names]

        sequential_dir = tmp_path / "sequential"
        sequential = OBDASystem(
            workload.theory, use_nc_pruning=False, cache=sequential_dir
        )
        sequential_results = sequential.compile_many(queries, workers=1)

        # The engine and fingerprint OBDASystem(use_nc_pruning=False)
        # builds, each query rewritten through the strategy and stored in
        # input order, as the batch stores them.
        options = resolve_engine_options(workload.theory, use_nc_pruning=False)
        engine = TGDRewriter(
            workload.theory,
            use_elimination=options.use_elimination,
            use_nc_pruning=options.use_nc_pruning,
        )
        strategy_dir = tmp_path / strategy
        store = RewritingStore(strategy_dir)
        with INTRA_QUERY_STRATEGIES[strategy]() as scheduling:
            results = [engine.rewrite(query, strategy=scheduling) for query in queries]
        for query, result in zip(queries, results):
            assert store.put(query, options.fingerprint, result)

        assert (strategy_dir / "rewritings.jsonl").read_bytes() == (
            sequential_dir / "rewritings.jsonl"
        ).read_bytes()
        assert [repr(result.ucq) for result in results] == [
            repr(result.ucq) for result in sequential_results
        ]

    def test_single_pending_query_starts_no_pool(self, tmp_path, monkeypatch):
        # One cold query has nothing to fan out: compile_many(workers=2)
        # compiles it in this process, without a per-query pool and
        # without a process-chunked strategy.
        import repro.parallel as parallel_module
        import repro.scheduling as scheduling_module

        workload = get_workload("A")
        query = workload.query("q5")  # generations up to 30 wide

        sequential_dir = tmp_path / "sequential"
        sequential = OBDASystem(
            workload.theory, use_nc_pruning=False, cache=sequential_dir
        )
        sequential.compile_many([query], workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(scheduling_module, "ProcessPoolExecutor", no_pool)
        single_dir = tmp_path / "single"
        system = OBDASystem(workload.theory, use_nc_pruning=False, cache=single_dir)
        results = system.compile_many([query], workers=2)
        assert len(results) == 1
        assert (single_dir / "rewritings.jsonl").read_bytes() == (
            sequential_dir / "rewritings.jsonl"
        ).read_bytes()

    def test_explicit_strategy_is_honoured_for_a_single_query(self):
        # A caller-provided strategy instance is used for the run and left
        # open: the caller owns it and closes it.
        workload = get_workload("S")
        query = workload.query("q2")

        class CountingStrategy(ChunkedProcessStrategy):
            generations = 0
            closes = 0

            def expand_generation(self, engine, batch):
                CountingStrategy.generations += 1
                return super().expand_generation(engine, batch)

            def close(self):
                CountingStrategy.closes += 1
                super().close()

        strategy = CountingStrategy(workers=2, min_batch=2)
        try:
            engine = TGDRewriter(workload.theory, use_elimination=True)
            engine.rewrite(query, strategy=strategy)
            assert CountingStrategy.generations > 0
            assert CountingStrategy.closes == 0
        finally:
            strategy.close()
