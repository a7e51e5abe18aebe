"""The frontier kernel: explicit state, pure expansion, ordered merge."""

import pytest

from repro.api import resolve_engine_options
from repro.core.frontier import (
    LABEL_FACTORIZATION,
    LABEL_REWRITING,
    CandidateQuery,
    Expansion,
    KernelState,
    RewriteFrontier,
    merge_expansion,
)
from repro.core.rewriter import (
    RewritingBudgetExceeded,
    RewritingStatistics,
    TGDRewriter,
)
from repro.queries.parser import parse_query
from repro.workloads import get_workload


class TestRewriteFrontier:
    def test_take_generation_drains_and_advances(self):
        frontier = RewriteFrontier()
        first = parse_query("q(A) :- p(A)")
        second = parse_query("q(A) :- r(A)")
        frontier.add(first)
        frontier.add(second)
        assert len(frontier) == 2 and frontier.generation == 0
        batch = frontier.take_generation()
        assert batch == [first, second]
        assert not frontier and frontier.generation == 1

    def test_new_queries_join_the_next_generation(self):
        frontier = RewriteFrontier()
        frontier.add(parse_query("q(A) :- p(A)"))
        frontier.take_generation()
        late = parse_query("q(A) :- r(A)")
        frontier.add(late)
        assert frontier.take_generation() == [late]
        assert frontier.generation == 2


class TestExpand:
    @pytest.fixture(scope="class")
    def engine(self):
        return TGDRewriter(
            get_workload("S").theory.tgds, use_elimination=True
        )

    def test_expansion_is_pure(self, engine):
        """Expanding the same query twice yields equal candidates."""
        query = get_workload("S").query("q2")
        first = engine.expand(query)
        second = engine.expand(query)
        assert first.candidates == second.candidates
        assert first.rules_considered == second.rules_considered

    def test_expansion_matches_fresh_engine(self, engine):
        """A warmed engine's expansion equals a fresh replica's (determinism)."""
        query = get_workload("S").query("q5")
        # Warm the memo layers with unrelated work first.
        engine.rewrite(get_workload("S").query("q1"))
        replica = TGDRewriter.from_specification(engine.specification())
        assert engine.expand(query).candidates == replica.expand(query).candidates

    @pytest.mark.parametrize("name", ["U", "A", "P5"])
    def test_specification_rebuilds_an_equal_engine(self, name):
        """A replica rewrites every query to the original's bytes.

        These theories normalise with auxiliary predicates; the replica
        must drop CQs over them exactly as the original engine does.
        """
        workload = get_workload(name)
        options = resolve_engine_options(workload.theory)
        engine = TGDRewriter(
            workload.theory,
            use_elimination=options.use_elimination,
            use_nc_pruning=options.use_nc_pruning,
        )
        replica = TGDRewriter.from_specification(engine.specification())
        for query_name in workload.query_names:
            query = workload.query(query_name)
            expected = repr(engine.rewrite(query).ucq)
            assert repr(replica.rewrite(query).ucq) == expected, query_name

    def test_factorization_candidates_precede_rewriting_candidates(self):
        # Example 2's derivation factorizes; within every expansion the
        # factorization candidates must precede the rewriting candidates —
        # the order Algorithm 1 generates them in and the merge replays.
        from repro.core.frontier import KernelState, merge_expansion
        from repro.workloads.paper_examples import example2_query, example2_rules

        engine_ny = TGDRewriter(example2_rules())
        state = KernelState.initial(example2_query(), RewritingStatistics())
        seen_factorization = False
        while state.frontier:
            for current in state.frontier.take_generation():
                expansion = engine_ny.expand(current)
                labels = [candidate.label for candidate in expansion.candidates]
                # 0s (factorization) first, then 1s (rewriting).
                assert labels == sorted(labels)
                seen_factorization |= LABEL_FACTORIZATION in labels
                merge_expansion(state, expansion, max_queries=1000)
        assert seen_factorization


class TestMergeExpansion:
    def _state(self, query_text="q(A) :- p(A)"):
        query = parse_query(query_text)
        return query, KernelState.initial(query, RewritingStatistics())

    def test_new_rewriting_candidate_is_interned_and_scheduled(self):
        query, state = self._state()
        state.frontier.take_generation()
        candidate = parse_query("q(A) :- r(A)")
        merge_expansion(
            state,
            Expansion(query, (CandidateQuery(candidate, LABEL_REWRITING),)),
            max_queries=10,
        )
        assert state.labels[candidate] == LABEL_REWRITING
        assert state.frontier.pending == (candidate,)
        assert state.statistics.generated_by_rewriting == 1
        assert state.statistics.processed_queries == 1

    def test_factorization_rederived_by_rewriting_is_upgraded(self):
        query, state = self._state()
        state.frontier.take_generation()
        candidate = parse_query("q(A) :- r(A)")
        merge_expansion(
            state,
            Expansion(query, (CandidateQuery(candidate, LABEL_FACTORIZATION),)),
            max_queries=10,
        )
        assert state.labels[candidate] == LABEL_FACTORIZATION
        # A variant of the stored query arriving through the rewriting
        # step upgrades the existing representative instead of inserting.
        variant = parse_query("q(B) :- r(B)")
        merge_expansion(
            state,
            Expansion(query, (CandidateQuery(variant, LABEL_REWRITING),)),
            max_queries=10,
        )
        assert state.labels[candidate] == LABEL_REWRITING
        assert variant not in state.frontier.pending
        assert len(state.store) == 2  # initial + candidate; variant interned away
        assert state.statistics.generated_by_rewriting == 1
        assert state.statistics.generated_by_factorization == 1

    def test_pruned_candidates_are_counted_and_dropped(self):
        query, state = self._state()
        merge_expansion(
            state,
            Expansion(
                query,
                (CandidateQuery(parse_query("q(A) :- r(A)"), LABEL_REWRITING, pruned=True),),
            ),
            max_queries=10,
        )
        assert state.statistics.pruned_by_constraints == 1
        assert len(state.store) == 1

    def test_budget_is_enforced_at_the_merge_point(self):
        query, state = self._state()
        expansion = Expansion(
            query,
            tuple(
                CandidateQuery(parse_query(f"q(A) :- r{i}(A)"), LABEL_REWRITING)
                for i in range(5)
            ),
        )
        with pytest.raises(RewritingBudgetExceeded):
            merge_expansion(state, expansion, max_queries=3)

    def test_eliminated_atoms_accumulate(self):
        query, state = self._state()
        merge_expansion(
            state,
            Expansion(
                query,
                (
                    CandidateQuery(
                        parse_query("q(A) :- r(A)"), LABEL_REWRITING, eliminated_atoms=2
                    ),
                ),
            ),
            max_queries=10,
        )
        assert state.statistics.eliminated_atoms == 2


class TestKernelEquivalence:
    def test_kernel_reproduces_known_rewriting_sizes(self):
        """The running example's pinned NY*/NY sizes survive the kernel."""
        workload = get_workload("S")
        star = TGDRewriter(workload.theory.tgds, use_elimination=True)
        plain = TGDRewriter(workload.theory.tgds)
        for name in workload.query_names:
            assert len(star.rewrite(workload.query(name)).ucq) <= len(
                plain.rewrite(workload.query(name)).ucq
            )
