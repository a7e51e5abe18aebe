"""Checkpointed batches: kill a multi-query compile, resume the interrupted member."""

import pytest

from repro.api import OBDASystem
from repro.cache.checkpoint import FrontierCheckpoint
from repro.scheduling import SequentialStrategy
from repro.serving.tenants import SharedArtifacts
from repro.workloads import get_workload

from ..serving.conftest import OnGeneration
from .test_checkpoint import KillingStrategy, SimulatedKill


@pytest.fixture()
def workload():
    return get_workload("A")


@pytest.fixture()
def queries(workload):
    return [workload.query("q1"), workload.query("q5")]


class CountingStrategy(SequentialStrategy):
    """Records where each engine run started and counts its generations."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.generations = 0

    def begin_run(self, engine, query, generation=0):
        self.starts.append(generation)

    def expand_generation(self, engine, batch):
        self.generations += 1
        return super().expand_generation(engine, batch)


def _generations_for(workload, query) -> int:
    strategy = CountingStrategy()
    OBDASystem(workload.theory).compile_many([query], strategy=strategy)
    return strategy.generations


def _checkpoints(directory) -> list:
    return sorted(directory.glob("*.json"))


class TestKilledBatchResume:
    def _clean_results(self, workload, queries):
        system = OBDASystem(workload.theory)
        return system.compile_many(queries)

    def _kill_inside_the_second_member(self, system, workload, queries, directory):
        # Let the first member (q1) complete, then die inside q5.
        generations_for_q1 = _generations_for(workload, queries[0])
        with pytest.raises(SimulatedKill):
            system.compile_many(
                queries,
                strategy=KillingStrategy(generations_for_q1 + 1),
                checkpoint_dir=directory,
            )
        # The in-flight member left its frontier checkpoint behind, named
        # as every other compile of that query names it.
        assert _checkpoints(directory) == [
            FrontierCheckpoint.for_query(
                directory, system.theory_fingerprint, queries[1]
            ).path
        ]

    def test_rerun_redoes_only_the_interrupted_member(
        self, tmp_path, workload, queries
    ):
        reference = self._clean_results(workload, queries)
        directory = tmp_path / "batch"
        killed_system = OBDASystem(workload.theory)
        self._kill_inside_the_second_member(
            killed_system, workload, queries, directory
        )

        counter = CountingStrategy()
        resumed = killed_system.compile_many(
            queries, strategy=counter, checkpoint_dir=directory
        )
        assert [list(result.ucq) for result in resumed] == [
            list(result.ucq) for result in reference
        ]
        # q1 is served from the in-process cache; only q5 runs, and it
        # starts from its checkpointed generation.
        assert counter.starts == [1]
        # A finished batch cleans up after itself.
        assert _checkpoints(directory) == []

    def test_fresh_process_resumes_through_the_store(
        self, tmp_path, workload, queries
    ):
        reference = self._clean_results(workload, queries)
        directory = tmp_path / "batch"
        store = tmp_path / "store"
        self._kill_inside_the_second_member(
            OBDASystem(workload.theory, cache=store), workload, queries, directory
        )
        # A brand-new system (same theory, same store) — the completed
        # member is served from the persistent store, the interrupted one
        # resumes from its frontier checkpoint.
        counter = CountingStrategy()
        fresh = OBDASystem(workload.theory, cache=store)
        resumed = fresh.compile_many(
            queries, strategy=counter, checkpoint_dir=directory
        )
        assert [list(result.ucq) for result in resumed] == [
            list(result.ucq) for result in reference
        ]
        assert fresh.rewriting_cache_info().persistent_hits >= 1
        assert counter.starts == [1]
        assert _checkpoints(directory) == []

    def test_fresh_process_without_a_store_recompiles_completed_members(
        self, tmp_path, workload, queries
    ):
        reference = self._clean_results(workload, queries)
        directory = tmp_path / "batch"
        self._kill_inside_the_second_member(
            OBDASystem(workload.theory), workload, queries, directory
        )
        generations_for_q1 = _generations_for(workload, queries[0])
        generations_for_q5 = _generations_for(workload, queries[1])

        counter = CountingStrategy()
        resumed = OBDASystem(workload.theory).compile_many(
            queries, strategy=counter, checkpoint_dir=directory
        )
        assert [list(result.ucq) for result in resumed] == [
            list(result.ucq) for result in reference
        ]
        # Nothing remembers that q1 finished, so it runs again from
        # generation 0; q5 resumes and expands fewer generations than a
        # clean compile of it.
        assert counter.starts == [0, 1]
        assert counter.generations - generations_for_q1 < generations_for_q5
        assert _checkpoints(directory) == []

    def test_clean_batch_leaves_no_residue(self, tmp_path, workload, queries):
        directory = tmp_path / "batch"
        system = OBDASystem(workload.theory)
        results = system.compile_many(queries, checkpoint_dir=directory)
        assert [len(result.ucq) for result in results] == [
            len(result.ucq) for result in self._clean_results(workload, queries)
        ]
        assert _checkpoints(directory) == []

    def test_checkpoint_every_is_checked_before_any_member(
        self, tmp_path, workload, queries
    ):
        # Even a batch the caches serve whole rejects a bad cadence.
        system = OBDASystem(workload.theory)
        system.compile_many(queries, workers=1)
        with pytest.raises(ValueError):
            system.compile_many(
                queries, checkpoint_dir=tmp_path / "batch", checkpoint_every=0
            )

    def test_duplicates_and_variants_run_the_engine_once(self, tmp_path, workload):
        query = workload.query("q5")
        variant = query.rename_variables(prefix="VV")
        directory = tmp_path / "batch"
        counter = CountingStrategy()
        system = OBDASystem(workload.theory, cache=tmp_path / "store")
        first, duplicate, renamed = system.compile_many(
            [query, query, variant], strategy=counter, checkpoint_dir=directory
        )
        assert counter.starts == [0]
        assert duplicate is first
        assert renamed.statistics.persistent_cache_hits == 1
        assert len(renamed.ucq) == len(first.ucq)
        assert _checkpoints(directory) == []


class TestNamedStrategyWorkers:
    def test_checkpointed_batch_sizes_the_strategy_by_workers(
        self, tmp_path, monkeypatch, workload
    ):
        # Pretend the host has four CPUs: a chunked strategy built without
        # the batch's worker count would start a four-process pool on
        # q5's wide generations.  With workers=1 it expands in-process.
        import repro.scheduling as scheduling

        real_resolve_workers = scheduling.resolve_workers
        monkeypatch.setattr(
            scheduling,
            "resolve_workers",
            lambda workers: 4 if workers is None else real_resolve_workers(workers),
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(scheduling, "ProcessPoolExecutor", no_pool)
        query = workload.query("q5")
        (result,) = OBDASystem(workload.theory).compile_many(
            [query],
            workers=1,
            strategy="chunked",
            checkpoint_dir=tmp_path / "batch",
        )
        assert list(result.ucq) == list(
            OBDASystem(workload.theory).compile(query).ucq
        )


class TestServingResumesABatchCheckpoint:
    @pytest.fixture()
    def workload(self):
        # P5 q5 runs 8 generations, so the kill after 2 lands mid-run; A q5
        # ends after 2 now that its dead ends are dropped.
        return get_workload("P5")

    def test_shared_artifacts_resume_a_killed_batch_member(
        self, tmp_path, workload
    ):
        query = workload.query("q5")
        directory = tmp_path / "checkpoints"
        clean = []
        reference, _ = OBDASystem(workload.theory).compile_traced(
            query, on_generation=clean.append
        )

        with pytest.raises(SimulatedKill):
            OBDASystem(workload.theory, use_nc_pruning=True).compile_many(
                [query], checkpoint_dir=directory, strategy=KillingStrategy(2)
            )
        assert len(_checkpoints(directory)) == 1

        generations = []
        artifacts = SharedArtifacts(
            workload.theory,
            checkpoint_directory=directory,
            fault_plan=OnGeneration(generations.append),
        )
        try:
            result, source = artifacts.compile_blocking(query)
        finally:
            artifacts.close()
        assert source == "engine"
        assert generations[0] == 2
        assert len(generations) < len(clean)
        assert list(result.ucq) == list(reference.ucq)
        assert _checkpoints(directory) == []
