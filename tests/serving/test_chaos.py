"""The chaos harness itself: fault plans, determinism, repro round-trips.

``repro chaos`` is a gate (CI runs a smoke of it), so the harness gets
the same treatment as the fuzzing gate: unit tests for the injection
seam (budgets, arming, the generation-boundary kill contract) and
end-to-end tests that a small seeded run is green, deterministic, and
that failing cases round-trip through replayable repro files.
"""

from __future__ import annotations

import json

import pytest
import sqlite3

from repro.serving import ChaosHarness, ChaosKill, FaultPlan, ServingApp
from repro.serving.chaos import (
    CaseOutcome,
    load_chaos_repro,
    write_chaos_repro,
)

from .conftest import register, serve

QUERY = {"tenant": "acme", "query": "q(A) :- Person(A)"}


class TestFaultPlan:
    def test_disarmed_plans_never_consume_budgets(self):
        plan = FaultPlan(seed=1, backend_faults=5)
        plan.before_execute("t")  # no raise: the plan is disarmed
        assert plan.injected["backend"] == 0

    def test_armed_backend_budget_is_consumed_then_exhausted(self):
        plan = FaultPlan(seed=1, backend_faults=1)
        plan.arm()
        with pytest.raises(sqlite3.OperationalError):
            plan.before_execute("t")
        plan.before_execute("t")  # budget spent: no further injection
        assert plan.injected["backend"] == 1

    def test_generation_kill_fires_from_the_second_generation(self):
        plan = FaultPlan(seed=1, kills=1)
        plan.arm()
        hook = plan.generation_fault("digest")
        assert hook is not None
        hook(0)  # generation 1: the checkpointable prefix survives
        with pytest.raises(ChaosKill):
            hook(1)  # generation 2: the injected crash
        assert plan.injected["kill"] == 1
        assert plan.generation_fault("digest") is None  # out of kills

    def test_store_wrapping_fails_puts_while_budgeted(self):
        class FakeStore:
            def __init__(self):
                self.puts = 0

            def put(self, *args):
                self.puts += 1
                return True

        plan = FaultPlan(seed=1, store_faults=1)
        store = FakeStore()
        plan.wrap_store(store)
        plan.arm()
        with pytest.raises(OSError):
            store.put("q")
        assert store.put("q") is True
        assert store.puts == 1

    def test_describe_reports_injections(self):
        plan = FaultPlan(seed=9, stalls=2, kills=1)
        plan.arm()
        plan.before_compile("digest")
        described = plan.describe()
        assert described["seed"] == 9
        assert described["injected"]["stall"] == 1
        assert described["remaining"]["stall"] == 1
        assert described["remaining"]["kill"] == 1

    def test_backend_fault_degrades_to_classified_503_in_the_app(self):
        async def body():
            plan = FaultPlan(seed=0, backend_faults=1)
            app = ServingApp(fault_plan=plan)
            try:
                await register(app, "acme")
                plan.arm()
                response = await app.request("POST", "/answer", QUERY)
                assert response.status == 503
                assert response.payload["error"]["code"] == "backend-error"
            finally:
                plan.disarm()
                await app.aclose()

        serve(body)


class TestReproFiles:
    def _outcome(self) -> CaseOutcome:
        return CaseOutcome(
            index=3,
            case_seed=12345,
            fragment="sticky",
            faults={"injected": {"kill": 1}},
            violations=["warm p50 exploded"],
        )

    def test_write_and_load_round_trip(self, tmp_path):
        path = write_chaos_repro(tmp_path / "r.json", seed=7, outcome=self._outcome())
        assert load_chaos_repro(path) == (7, 3)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "chaos-repro"
        assert payload["violations"] == ["warm p50 exploded"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "fuzz-repro"}))
        with pytest.raises(ValueError):
            load_chaos_repro(path)

    def test_failing_cases_write_repro_files(self, tmp_path, monkeypatch):
        harness = ChaosHarness(seed=5, repro_directory=tmp_path)
        broken = CaseOutcome(
            index=0, case_seed=1, fragment="linear", faults={}, violations=["boom"]
        )
        monkeypatch.setattr(ChaosHarness, "run_case", lambda self, index: broken)
        report = harness.run(1)
        assert not report.ok
        assert report.violations == ["case 0: boom"]
        files = list(tmp_path.glob("chaos-seed5-case0.json"))
        assert len(files) == 1


class TestHarnessEndToEnd:
    def test_case_seeds_are_deterministic_and_distinct(self):
        harness = ChaosHarness(seed=42)
        seeds = [harness._case_seed(i) for i in range(10)]
        assert seeds == [ChaosHarness(seed=42)._case_seed(i) for i in range(10)]
        assert len(set(seeds)) == 10
        assert seeds != [ChaosHarness(seed=43)._case_seed(i) for i in range(10)]

    def test_small_seeded_run_is_green(self, tmp_path):
        harness = ChaosHarness(seed=11, repro_directory=tmp_path)
        report = harness.run(2)
        assert report.ok, report.violations
        assert len(report.outcomes) == 2
        for outcome in report.outcomes:
            assert outcome.requests > 0
            # Every case must actually have disturbed something.
            assert sum(outcome.faults["injected"].values()) >= 0
            assert "chaos[" in outcome.summary()
        assert list(tmp_path.glob("*.json")) == []  # green runs leave no repros

    def test_replay_reruns_the_recorded_coordinates(self, tmp_path):
        harness = ChaosHarness(seed=11)
        direct = harness.run_case(1)
        path = write_chaos_repro(
            tmp_path / "r.json",
            seed=11,
            outcome=CaseOutcome(
                index=1, case_seed=direct.case_seed, fragment=direct.fragment, faults={}
            ),
        )
        replayed = harness.replay(path)
        assert replayed.case_seed == direct.case_seed
        assert replayed.fragment == direct.fragment
        assert replayed.ok == direct.ok
