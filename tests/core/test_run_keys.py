"""The per-run table of candidate keys behind a cold compile.

:meth:`TGDRewriter.for_run` gives each run a table of the exact canonical
keys whose candidate eliminated nothing, with the candidate's NC-pruning
verdict.  A candidate whose key is in the table skips query elimination
and pruning and reaches the merge without a query object.  These tests
pin when the table is consulted, when it is not, that it dies with the
run, and that the merge builds a query-less candidate exactly when its
key is new to the store.
"""

import sys

from repro.core.closures import RenamingClosures
from repro.core.frontier import (
    LABEL_REWRITING,
    CandidateQuery,
    Derivation,
    Expansion,
    KernelState,
    merge_expansion,
)
from repro.core.rewriter import RewritingStatistics, TGDRewriter
from repro.dependencies.constraints import NegativeConstraint
from repro.dependencies.tgd import tgd
from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.queries.parser import parse_query
from repro.scheduling import SequentialStrategy, ThreadedStrategy
from repro.workloads import get_workload

X = Variable("X")

#: A hierarchy where no candidate ever loses an atom.
HIERARCHY = [
    tgd(Atom.of("grad", X), Atom.of("student", X)),
    tgd(Atom.of("student", X), Atom.of("person", X)),
    tgd(Atom.of("professor", X), Atom.of("person", X)),
]


def runs(engine: TGDRewriter) -> int:
    return engine.eliminator.runs


def exact(candidate: CandidateQuery) -> bool:
    return candidate.fingerprint[1]


class TestRepeatedKeys:
    def test_a_repeated_exact_key_skips_elimination(self):
        engine = TGDRewriter(HIERARCHY, use_elimination=True)
        run = engine.for_run()
        query = parse_query("q(A) :- person(A), likes(A, B)")
        first = run.expand(query)
        assert first.candidates and all(map(exact, first.candidates))
        assert all(c.query is not None for c in first.candidates)
        before = runs(engine)
        second = run.expand(query)
        assert runs(engine) == before
        for old, new in zip(first.candidates, second.candidates):
            assert new.query is None
            assert new.fingerprint == old.fingerprint
            assert (new.pruned, new.eliminated_atoms) == (old.pruned, 0)
            assert new.build() == old.query

    def test_the_engine_itself_keeps_no_table(self):
        engine = TGDRewriter(HIERARCHY, use_elimination=True)
        query = parse_query("q(A) :- person(A)")
        engine.expand(query)
        before = runs(engine)
        again = engine.expand(query)
        assert runs(engine) - before == len(again.candidates)
        assert all(c.query is not None for c in again.candidates)

    def test_without_memoisation_there_is_no_table(self):
        engine = TGDRewriter(HIERARCHY, use_elimination=True, use_memoisation=False)
        assert engine.for_run() is engine

    def test_the_table_keeps_the_pruning_verdict(self):
        constraint = NegativeConstraint((Atom.of("grad", X), Atom.of("banned", X)))
        engine = TGDRewriter(
            HIERARCHY,
            negative_constraints=[constraint],
            use_elimination=True,
            use_nc_pruning=True,
        )
        run = engine.for_run()
        query = parse_query("q(A) :- student(A), banned(A)")
        first = run.expand(query)
        assert [c.pruned for c in first.candidates] == [True]
        second = run.expand(query)
        assert [(c.query, c.pruned) for c in second.candidates] == [(None, True)]

    def test_a_non_exact_key_never_consults_the_table(self):
        # p(X) and p(Y) are symmetric, so colour refinement cannot tell
        # X from Y: every candidate's key is inexact.
        rules = [tgd(Atom.of("s", X), Atom.of("r", X))]
        engine = TGDRewriter(rules, use_elimination=True)
        run = engine.for_run()
        query = parse_query("q() :- p(X), p(Y), r(Z)")
        first = run.expand(query)
        assert first.candidates and not any(map(exact, first.candidates))
        before = runs(engine)
        second = run.expand(query)
        assert runs(engine) - before == len(second.candidates)
        assert all(c.query is not None for c in second.candidates)

    def test_a_variant_that_lost_atoms_is_eliminated_afresh(self):
        # Resolving k(A) with person -> k gives student(A), person(A),
        # where student(A) covers person(A).
        rules = HIERARCHY + [tgd(Atom.of("person", X), Atom.of("k", X))]
        engine = TGDRewriter(rules, use_elimination=True)
        run = engine.for_run()
        query = parse_query("q(A) :- student(A), k(A)")
        first = run.expand(query)
        losing = [c for c in first.candidates if c.eliminated_atoms]
        assert losing and all(map(exact, losing))
        before = runs(engine)
        second = run.expand(query)
        again = [c for c in second.candidates if c.fingerprint == losing[0].fingerprint]
        assert again and all(c.query is not None for c in again)
        assert [c.eliminated_atoms for c in again] == [1] * len(again)
        assert [c.query for c in again] == [losing[0].query] * len(again)
        assert runs(engine) - before >= len(again)


class TestRunScope:
    def test_nothing_survives_rewrite(self):
        workload = get_workload("P5")
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        query = workload.query("q4")
        counts = []
        for _ in range(2):
            before = runs(engine)
            engine.rewrite(query)
            counts.append(runs(engine) - before)
        assert counts[0] == counts[1]
        # The table did skip repeats within each run.
        plain = TGDRewriter(
            workload.theory.tgds, use_elimination=True, use_memoisation=False
        )
        plain.rewrite(query)
        assert counts[0] < runs(plain)

    @staticmethod
    def _p5_runs() -> tuple[int, int]:
        """Elimination runs of P5 with memoisation on and off, same bytes."""
        workload = get_workload("P5")
        rules = workload.theory.tgds
        memoised = TGDRewriter(rules, use_elimination=True)
        plain = TGDRewriter(rules, use_elimination=True, use_memoisation=False)
        for name in workload.query_names:
            query = workload.query(name)
            assert repr(memoised.rewrite(query).ucq) == repr(plain.rewrite(query).ucq)
        return runs(memoised), runs(plain)

    def test_the_table_saves_elimination_runs_without_changing_a_byte(
        self, monkeypatch
    ):
        # The per-CQ kernel, as the table was measured on.
        monkeypatch.setattr(RenamingClosures, "table", {})
        memoised, plain = self._p5_runs()
        assert memoised < plain / 2

    def test_the_table_saves_elimination_runs_on_union_cqs(self):
        # The hierarchy kernel runs fewer candidates, each a union-CQ
        # judged once: the table saves about 40% of its elimination runs.
        assert self._p5_runs() == (203, 334)


class TestQuerylessMerge:
    #: Under four threads these merge dozens of query-less candidates
    #: whose key a later batch member put in the table first.
    WORKLOAD_QUERIES = [
        (get_workload(workload), name)
        for workload in ("A", "V")
        for name in get_workload(workload).query_names
    ]

    def _state(self):
        query = parse_query("q(A) :- p(A)")
        state = KernelState.initial(query, RewritingStatistics())
        state.frontier.take_generation()
        return query, state

    def _queryless(self, source, built):
        derivation = Derivation(source, Substitution({Variable("A"): Variable("B")}))
        assert derivation.build() == built
        return CandidateQuery(
            None,
            LABEL_REWRITING,
            fingerprint=built.canonical_fingerprint,
            derivation=derivation,
        )

    def test_a_new_key_is_built_at_the_merge(self):
        source = parse_query("q(A) :- r(A)")
        built = parse_query("q(B) :- r(B)")
        query, state = self._state()
        merge_expansion(
            state, Expansion(query, (self._queryless(source, built),)), max_queries=10
        )
        assert state.store.statistics.misses == 2  # the initial query's, and this
        assert state.frontier.pending == (built,)
        assert state.labels[built] == LABEL_REWRITING

    def test_a_stored_key_is_never_built(self):
        source = parse_query("q(A) :- r(A)")
        built = parse_query("q(B) :- r(B)")
        query, state = self._state()
        stored = parse_query("q(C) :- r(C)")
        merge_expansion(
            state,
            Expansion(query, (CandidateQuery(stored, LABEL_REWRITING),)),
            max_queries=10,
        )
        candidate = self._queryless(source, built)
        object.__setattr__(candidate, "derivation", None)  # building would fail
        merge_expansion(state, Expansion(query, (candidate,)), max_queries=10)
        assert list(state.store) == [query, stored]
        assert state.store.statistics.exact_hits == 1

    def test_threads_sharing_one_table_write_the_same_bytes(self):
        # Four threads on the cores share one run's table, and a tiny
        # switch interval interleaves their check-then-set on it.  A
        # raced entry may cost work, and a thread may settle a candidate
        # from a key a later batch member put there, so the merge builds
        # it: neither may change a byte or a counter.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadedStrategy(threads=4) as threaded:
                for workload, name in self.WORKLOAD_QUERIES:
                    rules = workload.theory.tgds
                    query = workload.query(name)
                    results = [
                        TGDRewriter(rules, use_elimination=True).rewrite(
                            query, strategy=strategy
                        )
                        for strategy in (SequentialStrategy(), threaded)
                    ]
                    assert repr(results[0].ucq) == repr(results[1].ucq)
                    assert repr(results[0].auxiliary_queries) == repr(
                        results[1].auxiliary_queries
                    )
                    statistics = [
                        {
                            key: value
                            for key, value in vars(result.statistics).items()
                            if key not in RewritingStatistics.VOLATILE_FIELDS
                        }
                        for result in results
                    ]
                    assert statistics[0] == statistics[1]
        finally:
            sys.setswitchinterval(interval)
