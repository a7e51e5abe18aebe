"""Tests for atom coverage (Definition 5, Examples 7 and 8)."""

import sys
import threading

import pytest

from repro.core.coverage import CoverageChecker, covers
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.dependencies.normalization import normalize
from repro.dependencies.tgd import TGD, tgd
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.workloads.paper_examples import example6_rules, example7_query, example8_query
from repro.workloads import get_workload, stock_exchange_example
from repro.core.rewriter import TGDRewriter

A, B, C, D = Variable("A"), Variable("B"), Variable("C"), Variable("D")
X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")


class TestExample7:
    """cover(a) = ∅, cover(b) = {a}, cover(c) = ∅ for the Example 7 query."""

    def setup_method(self):
        self.checker = CoverageChecker(example6_rules())
        self.query = example7_query()  # q() <- p(A,B), r(A,B,C), s(A,A,D)
        self.p_atom, self.r_atom, self.s_atom = self.query.body

    def test_cover_of_p_is_empty(self):
        assert self.checker.cover_set(self.p_atom, self.query) == frozenset()

    def test_cover_of_r_is_p(self):
        assert self.checker.cover_set(self.r_atom, self.query) == {self.p_atom}

    def test_cover_of_s_is_empty(self):
        assert self.checker.cover_set(self.s_atom, self.query) == frozenset()

    def test_cover_sets_helper(self):
        sets = self.checker.cover_sets(self.query)
        assert sets[self.r_atom] == {self.p_atom}
        assert sets[self.p_atom] == frozenset()

    def test_witness_chain_uses_sigma1(self):
        witness = self.checker.covers(self.p_atom, self.r_atom, self.query)
        assert witness is not None
        assert [rule.label for rule in witness.chain] == ["ex6_sigma1"]


class TestExample8:
    """Implication beyond coverage: r(A, A, c) implies p(A, A) but does not cover it."""

    def test_r_does_not_cover_p(self):
        checker = CoverageChecker(example6_rules())
        query = example8_query()
        r_atom, p_atom = query.body
        assert checker.covers(r_atom, p_atom, query) is None


class TestCoverageConditions:
    def test_condition_i_missing_shared_term_blocks_coverage(self):
        # b carries the shared variable D which does not occur in a.
        rules = [tgd(Atom.of("p", X, Y), Atom.of("r", X, Y))]
        query = ConjunctiveQuery(
            [Atom.of("p", A, B), Atom.of("r", A, D), Atom.of("s", D)], ()
        )
        checker = CoverageChecker(rules)
        assert checker.covers(query.body[0], query.body[1], query) is None

    def test_constants_must_be_carried_by_the_covering_atom(self):
        rules = [tgd(Atom.of("p", X, Y), Atom.of("r", X, Y))]
        query = ConjunctiveQuery(
            [Atom.of("p", A, B), Atom.of("r", A, Constant("c"))], ()
        )
        checker = CoverageChecker(rules)
        assert checker.covers(query.body[0], query.body[1], query) is None

    def test_simple_domain_axiom_coverage(self):
        # has_stock(A, B) covers person(A) when ∃has_stock ⊑ person.
        rules = [tgd(Atom.of("has_stock", X, Y), Atom.of("person", X))]
        query = ConjunctiveQuery([Atom.of("person", A), Atom.of("has_stock", A, B)], (A,))
        assert covers(query.body[1], query.body[0], query, rules)
        assert not covers(query.body[0], query.body[1], query, rules)

    def test_multi_step_chain_coverage(self):
        # teacher_of(A, B) covers person(A) through faculty ⊑ employee ⊑ person.
        rules = [
            tgd(Atom.of("teacher_of", X, Y), Atom.of("faculty", X)),
            tgd(Atom.of("faculty", X), Atom.of("employee", X)),
            tgd(Atom.of("employee", X), Atom.of("person", X)),
        ]
        query = ConjunctiveQuery([Atom.of("person", A), Atom.of("teacher_of", A, B)], (A,))
        assert covers(query.body[1], query.body[0], query, rules)

    def test_equality_type_breaks_a_chain(self):
        # The middle rule requires its argument positions to be equal, which
        # the head of the first rule does not guarantee.
        rules = [
            tgd(Atom.of("a", X, Y), Atom.of("b", X, Y)),
            tgd(Atom.of("b", X, X), Atom.of("d", X)),
        ]
        query = ConjunctiveQuery([Atom.of("a", A, B), Atom.of("d", A)], ())
        assert not covers(query.body[0], query.body[1], query, rules)

    def test_per_term_chains_would_be_unsound(self):
        # σA : p(X, Y) -> ∃W r(X, W) and σB : p(X, Y) -> ∃W r(W, Y).
        # Each shared term of r(A, B) individually reaches its position, but
        # no single chain carries both, and indeed chase({p(a,b)}) contains no
        # atom r(a, b) — so coverage must NOT hold (see the docstring of
        # repro.core.coverage).
        rules = [
            tgd(Atom.of("p", X, Y), Atom.of("r", X, W)),
            tgd(Atom.of("p", X, Y), Atom.of("r", W, Y)),
        ]
        query = ConjunctiveQuery(
            [Atom.of("p", A, B), Atom.of("r", A, B), Atom.of("s", A), Atom.of("s", B)], ()
        )
        checker = CoverageChecker(rules)
        assert checker.covers(query.body[0], query.body[1], query) is None

    def test_atom_does_not_cover_itself(self):
        rules = [tgd(Atom.of("p", X), Atom.of("p", X))]
        query = ConjunctiveQuery([Atom.of("p", A)], ())
        checker = CoverageChecker(rules)
        assert checker.covers(query.body[0], query.body[0], query) is None


class TestRunningExampleCoverage:
    """Section 1: the redundant atoms of the financial query are covered."""

    def setup_method(self):
        rules = normalize(stock_exchange_example.tgds()).rules
        self.checker = CoverageChecker(list(rules))
        self.query = stock_exchange_example.running_query()
        (
            self.fin_ins,
            self.stock_portf,
            self.company,
            self.list_comp,
            self.fin_idx,
        ) = self.query.body

    def test_fin_ins_is_covered_by_stock_portf(self):
        # σ2 then σ8: stock_portf(B, A, D) implies stock(A, ...) implies fin_ins(A).
        assert self.checker.covers(self.stock_portf, self.fin_ins, self.query) is not None

    def test_company_is_covered_by_stock_portf(self):
        # σ1: stock_portf(B, A, D) implies company(B, ...).
        assert self.checker.covers(self.stock_portf, self.company, self.query) is not None

    def test_fin_idx_is_covered_by_list_comp(self):
        # σ3: list_comp(A, C) implies fin_idx(C, ...).
        assert self.checker.covers(self.list_comp, self.fin_idx, self.query) is not None

    def test_stock_portf_and_list_comp_are_not_covered(self):
        assert self.checker.cover_set(self.stock_portf, self.query) == frozenset()
        assert self.checker.cover_set(self.list_comp, self.query) == frozenset()


class TestCheckerValidation:
    def test_non_linear_rules_are_rejected(self):
        rule = TGD((Atom.of("p", X), Atom.of("q", X, Y)), (Atom.of("r", X),))
        with pytest.raises(ValueError):
            CoverageChecker([rule])

    def test_unnormalised_rules_are_rejected(self):
        rule = tgd(Atom.of("p", X), Atom.of("r", X, Y, Z))
        with pytest.raises(ValueError):
            CoverageChecker([rule])


class TestReachability:
    def test_chains_are_followed_transitively(self):
        rules = [
            tgd(Atom.of("teacher_of", X, Y), Atom.of("faculty", X)),
            tgd(Atom.of("faculty", X), Atom.of("employee", X)),
        ]
        checker = CoverageChecker(rules)
        teacher_of = Atom.of("teacher_of", X, Y).predicate
        faculty = Atom.of("faculty", X).predicate
        employee = Atom.of("employee", X).predicate
        assert checker.reaches(teacher_of, employee)
        assert checker.reaches(faculty, employee)
        assert not checker.reaches(employee, faculty)
        assert not checker.reaches(employee, employee)

    def test_unreachable_pairs_have_no_chain(self):
        # Every chain ends in a rule whose head predicate is the target's,
        # and consecutive rules share a predicate, so a pair the table
        # rejects is one the chain search rejects too.
        rules = list(normalize(stock_exchange_example.tgds()).rules)
        checker = CoverageChecker(rules, memoise=False)
        query = stock_exchange_example.running_query()
        rejected = 0
        for source in query.body:
            for target in query.body:
                if source != target and not checker.reaches(
                    source.predicate, target.predicate
                ):
                    rejected += 1
                    shared = checker._relevant_terms(target, query)
                    assert checker._find_chain(source, target, shared) is None
        assert rejected > 0


class TestChainMemo:
    def test_rule_constants_are_told_apart(self):
        # σ2 of Example 6 needs the constant c at r[3]: r(A, B, c) covers
        # s(A, B, B) but r(A, B, d) does not.  A memo keying every constant
        # by identity alone would serve the c query the d query's answer.
        warm = CoverageChecker(example6_rules())
        fresh = CoverageChecker(example6_rules(), memoise=False)
        outcomes = []
        for value in ("d", "c", "e", "c"):
            query = ConjunctiveQuery(
                [Atom.of("r", A, B, Constant(value)), Atom.of("s", A, B, B)], (A, B)
            )
            source, target = query.body
            witness = warm.covers(source, target, query)
            assert (witness is None) == (fresh.covers(source, target, query) is None)
            outcomes.append(witness is not None)
        assert outcomes == [False, True, False, True]
        assert warm.chain_searches == 2

    def test_concurrent_callers_get_the_fresh_answers(self):
        # The memo is shared without a lock: a race may compute an entry
        # twice, but no caller may ever see another shape's chain.  The
        # TGD-rewrite rewritings of S keep their covered atoms, so both
        # outcomes occur.
        workload = get_workload("S")
        engine = TGDRewriter(workload.theory.tgds)
        queries = [
            member
            for name in workload.query_names
            for member in engine.rewrite(workload.query(name)).ucq.queries
        ]
        pairs = [
            (source, target, query)
            for query in queries
            for source in query.body
            for target in query.body
            if source != target
        ]
        fresh = CoverageChecker(engine.rules, memoise=False)
        expected = [_chain(fresh.covers(*pair)) for pair in pairs]
        assert any(chain is not None for chain in expected)
        shared = CoverageChecker(engine.rules)
        mismatches = []

        def check(offset):
            for step in range(len(pairs)):
                index = (offset + step) % len(pairs)
                if _chain(shared.covers(*pairs[index])) != expected[index]:
                    mismatches.append(index)

        workers = [
            threading.Thread(target=check, args=(k * len(pairs) // 8,)) for k in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert mismatches == []


def _chain(witness):
    return None if witness is None else witness.chain


@pytest.mark.parametrize("workload_name", ["V", "S", "U", "A", "P5"])
class TestMemoSoundness:
    """The chain memo never changes a coverage answer."""

    def test_warm_checker_agrees_with_a_fresh_one_on_every_pair(self, workload_name):
        # Compile the workload under TGD-rewrite*, which warms the engine's
        # checker, then decide every ordered atom pair of every CQ of the
        # rewritings both through it and through a checker with no memo
        # (one that is empty on every call): same witness chain, or none.
        # The TGD-rewrite rewritings of the same queries are checked too:
        # their CQs still hold the covered atoms that elimination drops,
        # so they exercise the pairs that do have a witness.
        workload = get_workload(workload_name)
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        plain = TGDRewriter(workload.theory.tgds)
        queries = []
        for name in workload.query_names:
            for rewriter in (engine, plain):
                result = rewriter.rewrite(workload.query(name))
                queries.extend(result.ucq.queries)
                queries.extend(result.auxiliary_queries)
        warm = engine.eliminator.checker
        fresh = CoverageChecker(engine.rules, memoise=False)
        pairs = witnesses = 0
        for query in queries:
            for source in query.body:
                for target in query.body:
                    if source == target:
                        continue
                    pairs += 1
                    warm_witness = warm.covers(source, target, query)
                    fresh_witness = fresh.covers(source, target, query)
                    assert (warm_witness is None) == (fresh_witness is None)
                    if warm_witness is not None:
                        witnesses += 1
                        assert warm_witness.chain == fresh_witness.chain
        assert pairs > 0
        if workload_name != "V":  # Vicodi's rules form no coverage chains
            assert witnesses > 0
        assert len(warm.memo) <= warm.chain_searches
