"""Mutation-sequence mode of the differential oracle.

``DifferentialOracle(mutation_steps=N)`` drives every generated case
through N seeded interleaved inserts/deletes and asserts the
delta-maintained answer set is byte-identical to full re-execution at
each step — over a normally tracked change log *and* a zero-capacity log
that forces the truncation fallback.  The acceptance bar for PR 9 is at
least 50 clean mutation sequences across the generator fragments.
"""

import pytest

from repro.fuzzing.generator import GeneratorConfig, WorkloadGenerator, registry_cases
from repro.fuzzing.oracle import DifferentialOracle
from repro.incremental import MaintainedAnswerSet


class TestMutationSequences:
    def test_fifty_generated_sequences_stay_byte_identical(self):
        oracle = DifferentialOracle(mutation_steps=6)
        sequences = 0
        for fragment in ("linear", "sticky", "sticky-join"):
            generator = WorkloadGenerator(
                seed=3, config=GeneratorConfig(fragment=fragment)
            )
            for case in generator.cases(20):
                verdict = oracle.check(case)
                if verdict.skipped is not None:
                    continue
                assert verdict.ok, verdict.summary()
                sequences += 1
        assert sequences >= 50, f"only {sequences} mutation sequences ran"

    def test_registry_workload_sequences_pass(self):
        oracle = DifferentialOracle(mutation_steps=6)
        for case in registry_cases("S", scale=1, seed=0):
            verdict = oracle.check(case)
            assert verdict.skipped is None, verdict.summary()
            assert verdict.ok, verdict.summary()

    def test_zero_steps_disables_the_maintenance_oracle(self, monkeypatch):
        oracle = DifferentialOracle(mutation_steps=0)

        def forbidden(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("maintenance oracle ran with mutation_steps=0")

        monkeypatch.setattr(oracle, "_maintenance_oracle", forbidden)
        verdict = oracle.check(WorkloadGenerator(seed=0).case(0))
        assert verdict.ok, verdict.summary()


class TestPlantedMaintenanceBug:
    class Corrupted(MaintainedAnswerSet):
        """Drops one answer from the answer set after every incremental step."""

        def _incremental_refresh(self, database, changes):
            delta = super()._incremental_refresh(database, changes)
            if self._answers:
                self._answers.discard(min(self._answers, key=repr))
            return delta

    def test_corrupted_maintenance_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            "repro.fuzzing.oracle.MaintainedAnswerSet", self.Corrupted
        )
        oracle = DifferentialOracle(mutation_steps=8)
        for index in range(20):
            case = WorkloadGenerator(seed=5).case(index)
            verdict = oracle.check(case)
            if verdict.skipped is not None or verdict.ok:
                continue
            assert any(f.oracle == "maintenance" for f in verdict.failures), (
                verdict.summary()
            )
            return
        pytest.fail("no case exposed the planted maintenance bug in 20 tries")
