"""Tests for Definition 1 (applicability) and Definition 2 (factorizability)."""

import pytest

from repro.core.applicability import (
    applicable_atom_sets,
    applicable_unifier,
    factorizable_sets,
    is_factorizable,
)
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.logic.unification import mgu
from repro.dependencies.tgd import TGD, tgd
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.workloads.paper_examples import (
    example1_queries,
    example1_rule,
    example2_rules,
    example3_queries,
)

A, B, C, E = Variable("A"), Variable("B"), Variable("C"), Variable("E")
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
c = Constant("c")


def applies(rule, atoms, query) -> bool:
    """Definition 1 through :func:`applicable_unifier`.

    When the rule applies, the unifier returned must be the one the
    rewriting step needs: the MGU of ``atoms ∪ {head(rule)}``.
    """
    unifier = applicable_unifier(rule, atoms, query)
    if unifier is not None:
        assert unifier == mgu(list(atoms) + [rule.head[0]])
    return unifier is not None


def applicable_sets(rule, query) -> list:
    """:func:`applicable_atom_sets`, each unifier checked as in :func:`applies`."""
    found = []
    for atoms, unifier in applicable_atom_sets(rule, query):
        assert unifier == mgu(list(atoms) + [rule.head[0]])
        assert unifier == applicable_unifier(rule, atoms, query)
        found.append(atoms)
    return found


class TestApplicability:
    def setup_method(self):
        self.sigma1, self.sigma2 = example2_rules()  # s(X) -> ∃Z t(X,X,Z); t(X,Y,Z) -> r(Y,Z)

    def test_example2_sigma2_applies_to_r_atom(self):
        query = ConjunctiveQuery([Atom.of("t", A, B, C), Atom.of("r", B, C)], ())
        assert applies(self.sigma2, [Atom.of("r", B, C)], query)

    def test_example2_sigma1_blocked_by_shared_variable(self):
        # In q() <- t(A,B,C), r(B,C) the variable C is shared and sits at the
        # existential position t[3] of σ1, so σ1 is not applicable.
        query = ConjunctiveQuery([Atom.of("t", A, B, C), Atom.of("r", B, C)], ())
        assert not applies(self.sigma1, [Atom.of("t", A, B, C)], query)

    def test_example3_constant_at_existential_position_blocks(self):
        query = example3_queries()["constant"]  # q() <- t(A, B, c)
        assert not applies(self.sigma1, list(query.body), query)

    def test_example3_shared_variable_at_existential_position_blocks(self):
        query = example3_queries()["shared"]  # q() <- t(A, B, B)
        assert not applies(self.sigma1, list(query.body), query)

    def test_unifiable_unshared_atom_applies(self):
        query = ConjunctiveQuery([Atom.of("t", A, B, C)], ())
        assert applies(self.sigma1, [Atom.of("t", A, B, C)], query)

    def test_the_unifier_is_the_rewriting_steps(self):
        # s(X) -> ∃Z t(X,X,Z) on t(A,B,C): the step identifies A and B.
        query = ConjunctiveQuery([Atom.of("t", A, B, C)], ())
        unifier = applicable_unifier(self.sigma1, [Atom.of("t", A, B, C)], query)
        assert unifier.apply_term(A) == unifier.apply_term(B)
        assert unifier.apply_term(A) != unifier.apply_term(C)

    def test_head_predicate_must_match(self):
        query = ConjunctiveQuery([Atom.of("r", B, C)], ())
        assert not applies(self.sigma1, [Atom.of("r", B, C)], query)

    def test_answer_variable_counts_as_shared(self):
        # A occurs once in the body but also in the head of the CQ, so it is
        # shared and blocks an existential position.
        rule = tgd(Atom.of("p", X), Atom.of("t", X, Y))
        query = ConjunctiveQuery([Atom.of("t", B, A)], (A,))
        assert not applies(rule, [Atom.of("t", B, A)], query)

    def test_non_unifiable_set_is_not_applicable(self):
        rule = tgd(Atom.of("p", X), Atom.of("t", X, X))
        query = ConjunctiveQuery([Atom.of("t", Constant("a"), Constant("b"))], ())
        assert not applies(rule, list(query.body), query)

    def test_full_rule_ignores_existential_conditions(self):
        rule = tgd(Atom.of("p", X, Y), Atom.of("t", X, Y))
        query = ConjunctiveQuery([Atom.of("t", A, c), Atom.of("s", A)], ())
        assert applies(rule, [Atom.of("t", A, c)], query)

    def test_rule_constants_are_told_apart(self):
        # The head r(X, c) unifies with r(A, c) but not with r(A, d) or
        # r(A, e).
        rule = tgd(Atom.of("p", X), Atom.of("r", X, Constant("c")))
        outcomes = []
        for value in ("d", "c", "e"):
            query = ConjunctiveQuery(
                [Atom.of("r", A, Constant(value)), Atom.of("s", A)], (A,)
            )
            outcomes.append(bool(applicable_sets(rule, query)))
        assert outcomes == [False, True, False]

    def test_empty_atom_set_is_not_applicable(self):
        query = ConjunctiveQuery([Atom.of("t", A, B, C)], ())
        assert not applies(self.sigma1, [], query)

    def test_unnormalised_rule_is_rejected(self):
        rule = TGD((Atom.of("p", X),), (Atom.of("q", X), Atom.of("r", X)))
        query = ConjunctiveQuery([Atom.of("q", A)], ())
        with pytest.raises(ValueError):
            applicable_unifier(rule, [Atom.of("q", A)], query)
        with pytest.raises(ValueError):
            list(applicable_atom_sets(rule, query))


class TestApplicableAtomSets:
    def test_enumeration_respects_applicability(self):
        sigma1, sigma2 = example2_rules()
        query = ConjunctiveQuery([Atom.of("t", A, B, C), Atom.of("r", B, C)], ())
        assert applicable_sets(sigma1, query) == []
        assert applicable_sets(sigma2, query) == [(Atom.of("r", B, C),)]

    def test_multi_atom_sets_are_enumerated(self):
        rule = tgd(Atom.of("p", X), Atom.of("t", X, Y))
        query = ConjunctiveQuery([Atom.of("t", A, B), Atom.of("t", A, C)], ())
        sets = applicable_sets(rule, query)
        assert (Atom.of("t", A, B),) in sets
        assert (Atom.of("t", A, C),) in sets
        assert (Atom.of("t", A, B), Atom.of("t", A, C)) in sets

    def test_no_candidate_atoms_yields_nothing(self):
        rule = tgd(Atom.of("p", X), Atom.of("missing", X))
        query = ConjunctiveQuery([Atom.of("t", A, B)], ())
        assert applicable_sets(rule, query) == []


class TestFactorizability:
    def setup_method(self):
        self.rule = example1_rule()  # s(X), r(X, Y) -> ∃Z t(X, Y, Z)
        self.queries = example1_queries()

    def test_example1_s1_is_factorizable(self):
        query = self.queries["q1"]  # q() <- t(A,B,C), t(A,E,C)
        found = list(factorizable_sets(self.rule, query))
        assert len(found) == 1
        assert set(found[0].atoms) == set(query.body)
        assert found[0].variable == C
        assert is_factorizable(self.rule, query.body, query)

    def test_example1_s2_is_not_factorizable(self):
        # C also occurs in s(C) outside the candidate set.
        query = self.queries["q2"]
        assert list(factorizable_sets(self.rule, query)) == []

    def test_example1_s3_is_not_factorizable(self):
        # C occurs at position t[2] as well, not only at the existential
        # position t[3].
        query = self.queries["q3"]
        assert list(factorizable_sets(self.rule, query)) == []

    def test_factorization_unifier_collapses_the_set(self):
        query = self.queries["q1"]
        factorizable = next(iter(factorizable_sets(self.rule, query)))
        collapsed = {factorizable.unifier.apply_atom(atom) for atom in factorizable.atoms}
        assert len(collapsed) == 1

    def test_full_rules_admit_no_factorization(self):
        rule = tgd(Atom.of("p", X, Y), Atom.of("t", X, Y))
        query = ConjunctiveQuery([Atom.of("t", A, B), Atom.of("t", A, C)], ())
        assert list(factorizable_sets(rule, query)) == []

    def test_answer_variable_cannot_witness_factorization(self):
        rule = tgd(Atom.of("p", X), Atom.of("t", X, Y))
        query = ConjunctiveQuery([Atom.of("t", A, B), Atom.of("t", C, B)], (B,))
        assert list(factorizable_sets(rule, query)) == []

    def test_singleton_sets_are_not_factorizable(self):
        rule = tgd(Atom.of("p", X), Atom.of("t", X, Y))
        query = ConjunctiveQuery([Atom.of("t", A, B)], ())
        assert not is_factorizable(rule, [Atom.of("t", A, B)], query)
