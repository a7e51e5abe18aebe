"""Checkpointed batches: kill a multi-query compile, resume the interrupted member."""

from unittest import mock

import pytest

from repro.api import OBDASystem
from repro.cache.checkpoint import FrontierCheckpoint
from repro.serving.tenants import SharedArtifacts
from repro.workloads import get_workload

from ..serving.conftest import OnGeneration
from .test_checkpoint import SimulatedKill


@pytest.fixture()
def workload():
    return get_workload("A")


@pytest.fixture()
def queries(workload):
    return [workload.query("q1"), workload.query("q5")]


class CountingSaves:
    """Watches every :meth:`FrontierCheckpoint.save` while installed.

    A checkpointed run saves once after each generation it drains, so
    the saves count generations: :attr:`starts` records where each run
    (one checkpoint object per compile) started, the checkpointed
    generation on a resume, and :attr:`generations` the saves of all
    runs.  With *kill_after* = N the N-th save raises
    :class:`SimulatedKill` once written, so the run dies with the state
    a kill before its next generation would leave.
    """

    def __init__(self, kill_after: int | None = None) -> None:
        self.starts: list[int] = []
        self.generations = 0
        self._kill_after = kill_after
        self._runs: list[FrontierCheckpoint] = []

    def __enter__(self) -> "CountingSaves":
        save = FrontierCheckpoint.save
        watcher = self

        def counted(checkpoint, rewriter, query, state):
            if not any(run is checkpoint for run in watcher._runs):
                watcher._runs.append(checkpoint)
                watcher.starts.append(checkpoint.resumed_generation or 0)
            saved = save(checkpoint, rewriter, query, state)
            watcher.generations += 1
            if watcher.generations == watcher._kill_after:
                raise SimulatedKill()
            return saved

        self._patch = mock.patch.object(FrontierCheckpoint, "save", counted)
        self._patch.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._patch.stop()


def _generations_for(workload, query) -> int:
    generations = []
    OBDASystem(workload.theory).compile_traced(query, on_generation=generations.append)
    return len(generations)


def _checkpoints(directory) -> list:
    return sorted(directory.glob("*.json"))


class TestKilledBatchResume:
    def _clean_results(self, workload, queries):
        system = OBDASystem(workload.theory)
        return system.compile_many(queries)

    def _kill_inside_the_second_member(self, system, workload, queries, directory):
        # Let the first member (q1) complete, then die inside q5.
        generations_for_q1 = _generations_for(workload, queries[0])
        with pytest.raises(SimulatedKill), CountingSaves(
            kill_after=generations_for_q1 + 1
        ):
            system.compile_many(queries, checkpoint_dir=directory)
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

        with CountingSaves() as counter:
            resumed = killed_system.compile_many(queries, checkpoint_dir=directory)
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
        fresh = OBDASystem(workload.theory, cache=store)
        with CountingSaves() as counter:
            resumed = fresh.compile_many(queries, checkpoint_dir=directory)
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

        with CountingSaves() as counter:
            resumed = OBDASystem(workload.theory).compile_many(
                queries, checkpoint_dir=directory
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

    def test_each_member_saves_once_per_generation(self, tmp_path, workload, queries):
        system = OBDASystem(workload.theory)
        with CountingSaves() as counter:
            system.compile_many(queries, checkpoint_dir=tmp_path / "batch")
        assert counter.starts == [0, 0]
        assert counter.generations == sum(
            _generations_for(workload, query) for query in queries
        )

    def test_duplicates_and_variants_run_the_engine_once(self, tmp_path, workload):
        query = workload.query("q5")
        variant = query.rename_variables(prefix="VV")
        directory = tmp_path / "batch"
        system = OBDASystem(workload.theory, cache=tmp_path / "store")
        with CountingSaves() as counter:
            first, duplicate, renamed = system.compile_many(
                [query, query, variant], checkpoint_dir=directory
            )
        assert counter.starts == [0]
        assert duplicate is first
        assert renamed.statistics.persistent_cache_hits == 1
        assert len(renamed.ucq) == len(first.ucq)
        assert _checkpoints(directory) == []


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

        with pytest.raises(SimulatedKill), CountingSaves(kill_after=2):
            OBDASystem(workload.theory, use_nc_pruning=True).compile_many(
                [query], checkpoint_dir=directory
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
