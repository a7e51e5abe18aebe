"""The shrinker and the replayable repro files."""

import pytest

from repro.fuzzing.generator import WorkloadGenerator
from repro.fuzzing.oracle import DifferentialOracle
from repro.fuzzing.shrink import (
    REPRO_FORMAT,
    load_repro,
    shrink_case,
    write_repro,
)

from .test_oracle import drop_uncontained_member, first_exposing_case


@pytest.fixture(scope="module")
def buggy_oracle():
    return DifferentialOracle(rewriting_mutator=drop_uncontained_member)


@pytest.fixture(scope="module")
def failing_case(buggy_oracle):
    """A case built to expose the planted bug (see ``exposing_case``).

    Its first failure must be the chase oracle's, so the shrinker is
    exercised on the failure the planted bug is meant to cause.
    """
    case, verdict = first_exposing_case(buggy_oracle)
    assert verdict.failures[0].oracle == "chase", verdict.summary()
    return case


class TestShrinking:
    def test_planted_bug_shrinks_small(self, buggy_oracle, failing_case):
        shrunk = shrink_case(failing_case, buggy_oracle.failure)
        # The acceptance bar is <= 10 rules; in practice the greedy
        # passes reach 1-2 rules on this mutator.
        assert len(shrunk.theory.tgds) <= 10
        assert len(shrunk.theory.tgds) < len(failing_case.theory.tgds)
        assert len(shrunk.instance) <= len(failing_case.instance)
        # The minimised case still reproduces the failure...
        assert buggy_oracle.failure(shrunk) is not None
        # ...and is still clean for a correct rewriter.
        assert DifferentialOracle().failure(shrunk) is None

    def test_shrink_reports_progress(self, buggy_oracle, failing_case):
        notes = []
        shrink_case(failing_case, buggy_oracle.failure, on_progress=notes.append)
        assert notes and all("shrunk to" in note for note in notes)

    def test_shrink_rejects_passing_case(self):
        clean = DifferentialOracle()
        case = WorkloadGenerator(seed=0).case(0)
        with pytest.raises(ValueError, match="failing"):
            shrink_case(case, clean.failure)


class TestReproFiles:
    def test_round_trip_preserves_the_case(self, tmp_path, failing_case):
        path = write_repro(tmp_path / "case.json", failing_case)
        loaded, recorded = load_repro(path)
        assert recorded is None
        assert loaded.seed == failing_case.seed
        assert loaded.config == failing_case.config
        assert [repr(r) for r in loaded.theory.tgds] == [
            repr(r) for r in failing_case.theory.tgds
        ]
        assert repr(loaded.query) == repr(failing_case.query)
        assert loaded.instance.facts == failing_case.instance.facts

    def test_reloaded_case_still_reproduces(
        self, tmp_path, buggy_oracle, failing_case
    ):
        shrunk = shrink_case(failing_case, buggy_oracle.failure)
        failure = buggy_oracle.failure(shrunk)
        path = write_repro(tmp_path / "shrunk.json", shrunk, failure)
        loaded, recorded = load_repro(path)
        assert recorded == {"oracle": failure.oracle, "detail": failure.detail}
        assert buggy_oracle.failure(loaded) is not None

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a fuzzing repro"):
            load_repro(path)

    def test_wrong_format_rejected(self, tmp_path, failing_case):
        import json

        path = write_repro(tmp_path / "case.json", failing_case)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format"] = REPRO_FORMAT + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            load_repro(path)

    def test_string_failure_recorded(self, tmp_path, failing_case):
        path = write_repro(tmp_path / "case.json", failing_case, "boom")
        _, recorded = load_repro(path)
        assert recorded == {"oracle": None, "detail": "boom"}
