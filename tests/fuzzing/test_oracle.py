"""The differential oracles: clean cases pass, planted bugs are caught."""

import pytest

from repro.core import dead_ends
from repro.core.rewriter import TGDRewriter
from repro.fuzzing.generator import GeneratorConfig, WorkloadGenerator
from repro.fuzzing.oracle import (
    DifferentialOracle,
    answer_diff,
    format_answer_diff,
)
from repro.queries.containment import is_contained_in
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.scheduling import SchedulingStrategy, ThreadedStrategy

#: Seed-42 cases the planted-bug tests search for one to expose it on.
PLANTED_BUG_CASES = 20


def uncontained_member(ucq: UnionOfConjunctiveQueries) -> int | None:
    """Position of the last member of *ucq* that no other member contains.

    ``None`` when *ucq* has fewer than two members or every member is
    contained in another one.
    """
    members = ucq.queries
    if len(members) < 2:
        return None
    for position in reversed(range(len(members))):
        others = members[:position] + members[position + 1 :]
        if not any(is_contained_in(members[position], other) for other in others):
            return position
    return None


def drop_uncontained_member(ucq: UnionOfConjunctiveQueries):
    """The planted bug: drop :func:`uncontained_member` from the rewriting.

    An unsound rewriting that loses certain answers but stays
    deterministic.
    """
    position = uncontained_member(ucq)
    if position is None:
        return ucq
    members = ucq.queries
    return UnionOfConjunctiveQueries(members[:position] + members[position + 1 :])


def exposing_case(index: int):
    """Seed-42 case *index* with facts that expose the planted bug, or ``None``.

    The facts are the canonical database of the member the bug drops
    (``ConjunctiveQuery.freeze``).  On it that member returns its frozen
    head, a certain answer, which the depth-bounded chase derives.  Any
    other member returns that tuple only if it contains the dropped
    member, and none does.  So the mutated rewriting misses a certain
    answer and the chase oracle fails the case, whatever the generator
    draws.
    """
    case = WorkloadGenerator(seed=42).case(index)
    ucq = TGDRewriter(case.theory.tgds).rewrite(case.query).ucq
    position = uncontained_member(ucq)
    if position is None:
        return None
    facts, _ = ucq.queries[position].freeze()
    return case.with_facts(facts)


def first_exposing_case(buggy: DifferentialOracle):
    """The first of :data:`PLANTED_BUG_CASES` exposing cases, and its verdict."""
    for index in range(PLANTED_BUG_CASES):
        case = exposing_case(index)
        if case is None:
            continue
        verdict = buggy.check(case)
        if not verdict.ok:
            return case, verdict
    pytest.fail(
        f"no generated case exposed the planted bug in {PLANTED_BUG_CASES} tries"
    )


@pytest.fixture(scope="module")
def oracle():
    return DifferentialOracle()


class TestCleanCases:
    @pytest.mark.parametrize("fragment", ["linear", "sticky", "sticky-join"])
    def test_generated_cases_pass_all_oracles(self, oracle, fragment):
        config = GeneratorConfig(fragment=fragment)
        for case in WorkloadGenerator(seed=0, config=config).cases(3):
            verdict = oracle.check(case)
            assert verdict.skipped is None, verdict.summary()
            assert verdict.ok, verdict.summary()

    def test_verdict_carries_measurements(self, oracle):
        verdict = oracle.check(WorkloadGenerator(seed=0).case(0))
        assert verdict.generations >= 1
        assert verdict.rewriting_size >= 1

    def test_failure_predicate_none_on_clean_case(self, oracle):
        assert oracle.failure(WorkloadGenerator(seed=0).case(0)) is None


class TestPlantedBug:
    """The chase oracle catches a rewriting that lost a member.

    Each case is built to expose the bug (see :func:`exposing_case`), so
    the first seed-42 case whose rewriting has a member to drop is
    caught, whatever the generator draws.
    """

    def test_chase_oracle_catches_dropped_cq(self):
        buggy = DifferentialOracle(rewriting_mutator=drop_uncontained_member)
        case, verdict = first_exposing_case(buggy)
        assert any(f.oracle == "chase" for f in verdict.failures), (
            verdict.summary()
        )
        # The mutation is uniform, so determinism must NOT fire: the bug
        # is in the rewriting, not in the scheduling.
        assert not any(f.oracle == "determinism" for f in verdict.failures)
        # And the clean oracle agrees the same case is fine.
        assert DifferentialOracle().check(case).ok

    def test_failure_predicate_reports_planted_bug(self):
        buggy = DifferentialOracle(rewriting_mutator=drop_uncontained_member)
        case, _ = first_exposing_case(buggy)
        failure = buggy.failure(case)
        assert failure is not None and failure.oracle == "chase"


class TestPlantedDeadEndVerdict:
    """The linear fragment's qualified existentials put the verdict under test."""

    def test_linear_cases_drop_dead_ends(self):
        dropped = 0
        for case in WorkloadGenerator(seed=42).cases(10):
            result = TGDRewriter(case.theory.tgds).rewrite(case.query)
            dropped += result.statistics.pruned_dead_ends
        assert dropped > 0

    def test_an_unsound_verdict_fails_the_fuzz_run(self, monkeypatch):
        reach = dead_ends.null_reach

        def nowhere(rules, internal_predicates):
            # "Every position is unreachable": every atom over an
            # internal predicate makes its query a dead end.
            return {
                key: (index, frozenset())
                for key, (index, _) in reach(rules, internal_predicates).items()
            }

        monkeypatch.setattr(dead_ends, "null_reach", nowhere)
        oracle = DifferentialOracle()
        for case in WorkloadGenerator(seed=42).cases(50):
            verdict = oracle.check(case)
            if not verdict.ok:
                break
        else:
            pytest.fail("no generated case exposed the planted verdict in 50 tries")
        assert {f.oracle for f in verdict.failures} <= {"chase", "elimination"}


class TestOracleConfig:
    def test_needs_a_backend(self):
        with pytest.raises(ValueError, match="backend"):
            DifferentialOracle(backends=())

    def test_tiny_budget_skips_not_fails(self):
        tight = DifferentialOracle(max_queries=1)
        verdict = tight.check(WorkloadGenerator(seed=0).case(2))
        if verdict.skipped is not None:
            assert "budget" in verdict.skipped
            assert verdict.ok  # a skip is not a failure


class TestDeterminismOracle:
    """The oracle compares its fixed strategies, each built per case."""

    def test_each_case_opens_and_closes_its_own_strategies(
        self, oracle, monkeypatch
    ):
        entered, exited = [], []
        enter, exit_ = SchedulingStrategy.__enter__, SchedulingStrategy.__exit__

        def entering(strategy):
            entered.append(strategy.name)
            return enter(strategy)

        def exiting(strategy, *exc_info):
            exited.append(strategy.name)
            return exit_(strategy, *exc_info)

        monkeypatch.setattr(SchedulingStrategy, "__enter__", entering)
        monkeypatch.setattr(SchedulingStrategy, "__exit__", exiting)
        config = GeneratorConfig(fragment="linear")
        verdict = oracle.check(WorkloadGenerator(seed=0, config=config).case(0))
        assert verdict.ok, verdict.summary()
        # Determinism runs each strategy once; on a linear theory the
        # elimination oracle runs each again with memoisation on and off.
        assert entered == ["sequential", "threaded", "auto"] + [
            name for name in ("sequential", "threaded", "auto") for _ in range(2)
        ]
        assert exited == entered

    def test_a_diverging_strategy_fails_the_determinism_oracle(
        self, oracle, monkeypatch
    ):
        # A thread pool that merged out of batch order: every expansion
        # is right, the rewriting's order and labels are not.
        def out_of_order(strategy, engine, batch):
            return list(map(engine.expand, batch))[::-1]

        monkeypatch.setattr(ThreadedStrategy, "expand_generation", out_of_order)
        failures = [
            failure.detail
            for case in WorkloadGenerator(seed=0).cases(3)
            for failure in oracle.check(case).failures
            if failure.oracle == "determinism"
        ]
        assert failures
        assert all(detail.startswith("strategy 'threaded'") for detail in failures)


class TestAnswerDiff:
    def test_diff_is_minimal_and_sorted(self):
        left = frozenset({("a",), ("b",), ("c",)})
        right = frozenset({("b",), ("d",)})
        only_left, only_right = answer_diff(left, right)
        assert only_left == [("a",), ("c",)]
        assert only_right == [("d",)]

    def test_format_shows_only_differences(self):
        left = frozenset({(i,) for i in range(100)})
        right = frozenset(left - {(7,)})
        text = format_answer_diff("memory", left, "sqlite", right)
        assert "only in memory: (7,)" in text
        assert "(8,)" not in text  # shared tuples never printed

    def test_format_truncates_long_diffs(self):
        left = frozenset({(i,) for i in range(50)})
        text = format_answer_diff("l", left, "r", frozenset(), limit=3)
        assert "(50 total)" in text

    def test_format_reports_agreement(self):
        same = frozenset({("x",)})
        assert "agree" in format_answer_diff("l", same, "r", same)
