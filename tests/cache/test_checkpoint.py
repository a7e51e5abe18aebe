"""Frontier checkpoints: kill a rewriting, resume it, get identical bytes."""

import dataclasses
import json

import pytest

from repro.cache.checkpoint import FrontierCheckpoint, compile_digest
from repro.core.rewriter import RewritingStatistics, TGDRewriter
from repro.queries.parser import parse_query
from repro.scheduling import SequentialStrategy
from repro.workloads import get_workload


class SimulatedKill(Exception):
    """Stands in for SIGKILL: aborts the run between expansions."""


class KillAfter:
    """An ``on_generation`` callback that dies after N completed generations.

    It raises before the run drains generation N + 1 (counted from where
    the run started), so a checkpointed run dies with N generations saved.
    """

    def __init__(self, generations: int) -> None:
        self._left = generations

    def __call__(self, generation: int) -> None:
        if self._left == 0:
            raise SimulatedKill()
        self._left -= 1


def _non_volatile(statistics: RewritingStatistics) -> dict:
    return {
        key: value
        for key, value in dataclasses.asdict(statistics).items()
        if key not in RewritingStatistics.VOLATILE_FIELDS
    }


@pytest.fixture()
def workload():
    return get_workload("A")


@pytest.fixture()
def clean_result(workload):
    engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
    return engine.rewrite(workload.query("q5"))


class TestKillAndResume:
    @pytest.fixture()
    def workload(self):
        # P5 q5 under TGD-rewrite* runs 5 generations, so each kill lands
        # mid-run; A q5 ends after 2 now that its dead ends are dropped.
        return get_workload("P5")

    @pytest.mark.parametrize("killed_after", [1, 2, 3])
    def test_resumed_run_is_byte_identical(
        self, tmp_path, workload, clean_result, killed_after
    ):
        path = tmp_path / "frontier.json"
        checkpoint = FrontierCheckpoint(path)
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        with pytest.raises(SimulatedKill):
            engine.rewrite(
                workload.query("q5"),
                checkpoint=checkpoint,
                on_generation=KillAfter(killed_after),
            )
        assert path.exists() and checkpoint.saves == killed_after

        resumed_checkpoint = FrontierCheckpoint(path)
        fresh_engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        resumed = fresh_engine.rewrite(
            workload.query("q5"), checkpoint=resumed_checkpoint
        )
        assert resumed_checkpoint.resumed_generation == killed_after
        assert resumed.ucq.queries == clean_result.ucq.queries
        assert resumed.auxiliary_queries == clean_result.auxiliary_queries
        assert _non_volatile(resumed.statistics) == _non_volatile(
            clean_result.statistics
        )
        # Completion removes the checkpoint: nothing stale to resume from.
        assert not path.exists()

    def test_uninterrupted_run_with_checkpoint_matches_plain_run(
        self, tmp_path, workload, clean_result
    ):
        checkpoint = FrontierCheckpoint(tmp_path / "frontier.json")
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        result = engine.rewrite(workload.query("q5"), checkpoint=checkpoint)
        assert result.ucq.queries == clean_result.ucq.queries
        assert checkpoint.saves >= 1
        assert not checkpoint.path.exists()

    def _kill_after_three(self, path, workload):
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        with pytest.raises(SimulatedKill):
            engine.rewrite(
                workload.query("q5"),
                checkpoint=FrontierCheckpoint(path),
                on_generation=KillAfter(3),
            )

    def test_a_resumed_run_saves_once_per_remaining_generation(
        self, tmp_path, workload, clean_result
    ):
        path = tmp_path / "frontier.json"
        self._kill_after_three(path, workload)
        resumed_checkpoint = FrontierCheckpoint(path)
        seen = []
        resumed = TGDRewriter(workload.theory.tgds, use_elimination=True).rewrite(
            workload.query("q5"),
            checkpoint=resumed_checkpoint,
            on_generation=seen.append,
        )
        assert seen == [3, 4]
        assert resumed_checkpoint.saves == len(seen)
        assert resumed.ucq.queries == clean_result.ucq.queries

    def test_a_given_strategy_begins_at_the_resumed_generation(
        self, tmp_path, workload, clean_result
    ):
        class RecordingStrategy(SequentialStrategy):
            def __init__(self) -> None:
                self.begun_at: list[int] = []
                self.generations = 0

            def begin_run(self, engine, query, generation=0):
                self.begun_at.append(generation)

            def expand_generation(self, engine, batch):
                self.generations += 1
                return super().expand_generation(engine, batch)

        path = tmp_path / "frontier.json"
        self._kill_after_three(path, workload)
        with RecordingStrategy() as strategy:
            resumed = TGDRewriter(workload.theory.tgds, use_elimination=True).rewrite(
                workload.query("q5"),
                strategy=strategy,
                checkpoint=FrontierCheckpoint(path),
            )
        assert strategy.begun_at == [3]
        assert strategy.generations == 2
        assert resumed.ucq.queries == clean_result.ucq.queries
        assert resumed.auxiliary_queries == clean_result.auxiliary_queries


class TestGenerationCallback:
    """``rewrite(on_generation=...)``: the kernel's generation-boundary hook."""

    @pytest.fixture()
    def workload(self):
        return get_workload("P5")

    def test_called_before_every_generation_with_its_number(
        self, workload, clean_result
    ):
        seen = []
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        result = engine.rewrite(workload.query("q5"), on_generation=seen.append)
        assert seen == list(range(5))
        assert result.ucq.queries == clean_result.ucq.queries

    def test_raising_cuts_the_run_after_the_last_checkpoint(
        self, tmp_path, workload, clean_result
    ):
        def cut(generation: int) -> None:
            if generation == 3:
                raise SimulatedKill()

        path = tmp_path / "frontier.json"
        checkpoint = FrontierCheckpoint(path)
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        with pytest.raises(SimulatedKill):
            engine.rewrite(workload.query("q5"), checkpoint=checkpoint, on_generation=cut)
        assert checkpoint.saves == 3

        seen = []
        resumed = TGDRewriter(workload.theory.tgds, use_elimination=True).rewrite(
            workload.query("q5"),
            checkpoint=FrontierCheckpoint(path),
            on_generation=seen.append,
        )
        # The resumed run starts at the generation the cut stopped.
        assert seen == [3, 4]
        assert resumed.ucq.queries == clean_result.ucq.queries


class TestForQuery:
    """One file name per (fingerprint, canonical key), whoever compiles."""

    def test_variants_share_one_file(self, tmp_path, workload):
        query = workload.query("q5")
        variant = query.rename_variables(prefix="VV")
        assert variant != query
        assert (
            FrontierCheckpoint.for_query(tmp_path, "fp", query).path
            == FrontierCheckpoint.for_query(tmp_path, "fp", variant).path
            == tmp_path / f"{compile_digest(query, 'fp')}.json"
        )

    def test_fingerprints_and_queries_get_their_own_files(self, tmp_path, workload):
        paths = {
            FrontierCheckpoint.for_query(tmp_path, fingerprint, workload.query(name)).path
            for fingerprint in ("fp", "other-fp")
            for name in ("q1", "q5")
        }
        assert len(paths) == 4


class TestCheckpointValidity:
    def _kill(self, tmp_path, workload, query_name="q5"):
        path = tmp_path / "frontier.json"
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        with pytest.raises(SimulatedKill):
            engine.rewrite(
                workload.query(query_name),
                checkpoint=FrontierCheckpoint(path),
                on_generation=KillAfter(1),
            )
        return path

    def test_different_query_starts_fresh(self, tmp_path, workload):
        path = self._kill(tmp_path, workload, "q5")
        checkpoint = FrontierCheckpoint(path)
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        reference = TGDRewriter(workload.theory.tgds, use_elimination=True).rewrite(
            workload.query("q1")
        )
        result = engine.rewrite(workload.query("q1"), checkpoint=checkpoint)
        assert checkpoint.resumed_generation is None
        assert result.ucq.queries == reference.ucq.queries

    def test_different_engine_options_start_fresh(self, tmp_path, workload):
        path = self._kill(tmp_path, workload)
        checkpoint = FrontierCheckpoint(path)
        plain = TGDRewriter(workload.theory.tgds)  # no elimination
        reference = TGDRewriter(workload.theory.tgds).rewrite(workload.query("q5"))
        result = plain.rewrite(workload.query("q5"), checkpoint=checkpoint)
        assert checkpoint.resumed_generation is None
        assert result.ucq.queries == reference.ucq.queries

    def test_corrupt_checkpoint_starts_fresh(self, tmp_path, workload):
        path = tmp_path / "frontier.json"
        path.write_text("{not json", encoding="utf-8")
        checkpoint = FrontierCheckpoint(path)
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        result = engine.rewrite(workload.query("q1"), checkpoint=checkpoint)
        assert checkpoint.resumed_generation is None
        assert len(result.ucq) > 0

    def test_wrong_format_version_starts_fresh(self, tmp_path, workload):
        path = self._kill(tmp_path, workload)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format"] = FrontierCheckpoint.FORMAT_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        checkpoint = FrontierCheckpoint(path)
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        engine.rewrite(workload.query("q5"), checkpoint=checkpoint)
        assert checkpoint.resumed_generation is None

    def test_clear_is_idempotent(self, tmp_path):
        checkpoint = FrontierCheckpoint(tmp_path / "missing.json")
        checkpoint.clear()
        checkpoint.clear()

    def test_unserializable_query_skips_checkpointing(self, tmp_path):
        from repro.dependencies.tgd import tgd
        from repro.logic.atoms import Atom
        from repro.logic.terms import Constant, Variable
        from repro.queries.conjunctive_query import ConjunctiveQuery

        X = Variable("X")
        rules = [tgd(Atom.of("p", X), Atom.of("q", X))]
        # A tuple-valued constant has no exact JSON form.
        query = ConjunctiveQuery([Atom.of("q", X, Constant(("a", "b")))], (X,))
        checkpoint = FrontierCheckpoint(tmp_path / "frontier.json")
        result = TGDRewriter(rules).rewrite(query, checkpoint=checkpoint)
        assert checkpoint.saves == 0
        assert not checkpoint.path.exists()
        assert len(result.ucq) >= 1


class TestDegradedWrites:
    """Filesystem failures degrade a checkpoint, never a compile (PR 8)."""

    def _broken_path(self, tmp_path):
        # A regular file where a directory is needed: mkdir/open/unlink
        # under it all raise genuine OSErrors.
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        return blocker / "nested" / "frontier.json"

    def test_unwritable_path_degrades_save_to_false(
        self, tmp_path, workload, clean_result, caplog
    ):
        checkpoint = FrontierCheckpoint(self._broken_path(tmp_path))
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        with caplog.at_level("WARNING", logger="repro.cache.checkpoint"):
            result = engine.rewrite(workload.query("q5"), checkpoint=checkpoint)
        # The compile ran to the correct answer regardless...
        assert result.ucq.queries == clean_result.ucq.queries
        # ...with every save degraded (and counted), not raised.
        assert checkpoint.saves == 0
        assert checkpoint.save_failures >= 1
        assert any(
            "checkpoint save" in record.message for record in caplog.records
        )

    def test_load_over_an_unreadable_path_starts_fresh(self, tmp_path, workload):
        checkpoint = FrontierCheckpoint(self._broken_path(tmp_path))
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        assert checkpoint.load(engine, workload.query("q5")) is None

    def test_clear_tolerates_filesystem_failures(self, tmp_path):
        FrontierCheckpoint(self._broken_path(tmp_path)).clear()
