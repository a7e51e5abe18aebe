"""Tests for TGD-rewrite and TGD-rewrite* (Algorithm 1, Theorems 6, 7, 10)."""

import pytest

from repro.chase.chase import chase, chase_entails
from repro.core.rewriter import RewritingBudgetExceeded, TGDRewriter, rewrite
from repro.database.evaluator import evaluate_ucq
from repro.database.instance import RelationalInstance
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.dependencies.tgd import TGD, tgd
from repro.dependencies.theory import OntologyTheory
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.workloads.paper_examples import (
    example2_query,
    example2_rules,
    example3_queries,
    example4_completeness_witness,
    example4_query,
    example4_rules,
)

A, B, C = Variable("A"), Variable("B"), Variable("C")
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b, d = Constant("a"), Constant("b"), Constant("d")


class TestExample2:
    """The worked rewriting of Example 2 must be reproduced exactly."""

    def setup_method(self):
        self.result = rewrite(example2_query(), example2_rules())

    def test_rewriting_size_is_three(self):
        assert len(self.result.ucq) == 3

    def test_original_query_is_in_the_rewriting(self):
        assert self.result.ucq.contains_variant(example2_query())

    def test_q1_is_in_the_rewriting(self):
        V1 = Variable("V1")
        q1 = ConjunctiveQuery([Atom.of("t", A, B, C), Atom.of("t", V1, B, C)], ())
        assert self.result.ucq.contains_variant(q1)

    def test_q3_is_in_the_rewriting(self):
        q3 = ConjunctiveQuery([Atom.of("s", A)], ())
        assert self.result.ucq.contains_variant(q3)

    def test_factorized_query_is_excluded_from_the_final_rewriting(self):
        # q2 : q() <- t(A, B, C) is produced by factorisation only (label 0).
        q2 = ConjunctiveQuery([Atom.of("t", A, B, C)], ())
        assert not self.result.ucq.contains_variant(q2)
        assert any(q2.is_variant_of(aux) for aux in self.result.auxiliary_queries)

    def test_statistics_are_populated(self):
        stats = self.result.statistics
        assert stats.generated_by_rewriting >= 2
        assert stats.generated_by_factorization >= 1
        assert stats.processed_queries >= 1
        assert stats.elapsed_seconds >= 0


class TestExample3Soundness:
    """Dropping the applicability condition would produce unsound rewritings."""

    def test_constant_is_not_lost(self):
        # q() <- t(A, B, c): σ1 must not be applied, so no CQ over s/1 appears.
        result = rewrite(example3_queries()["constant"], example2_rules())
        assert all(
            all(atom.name != "s" for atom in cq.body) for cq in result.ucq
        )

    def test_shared_variable_is_not_lost(self):
        result = rewrite(example3_queries()["shared"], example2_rules())
        assert all(
            all(atom.name != "s" for atom in cq.body) for cq in result.ucq
        )

    def test_unsound_query_would_change_answers(self):
        # The database of Example 3: D = {s(b), t(a, b, d)}.
        database = RelationalInstance()
        database.add(Atom.of("s", b))
        database.add(Atom.of("t", a, b, d))
        query = example3_queries()["constant"]
        result = rewrite(query, example2_rules())
        # D ∪ Σ does not entail q, so the rewriting must not be entailed either.
        chased = chase(database.facts, example2_rules(), max_depth=5)
        assert not chase_entails(chased, query)
        assert evaluate_ucq(result.ucq, database) == frozenset()


class TestExample4Completeness:
    """The restricted factorisation step is what keeps the rewriting complete."""

    def test_p_query_is_generated(self):
        result = rewrite(example4_query(), example4_rules())
        assert result.ucq.contains_variant(example4_completeness_witness())

    def test_rewriting_is_complete_on_the_example_database(self):
        database = RelationalInstance()
        database.add(Atom.of("p", a))
        result = rewrite(example4_query(), example4_rules())
        assert evaluate_ucq(result.ucq, database) == {()}


class TestNonBooleanQueries:
    def test_answer_variables_are_preserved(self):
        rules = [tgd(Atom.of("student", X), Atom.of("person", X))]
        query = ConjunctiveQuery([Atom.of("person", A)], (A,))
        result = rewrite(query, rules)
        assert len(result.ucq) == 2
        for cq in result.ucq:
            assert cq.arity == 1
            assert all(
                term in cq.variables or not hasattr(term, "name")
                for term in cq.answer_terms
            )

    def test_hierarchy_rewriting_enumerates_subclasses(self):
        rules = [
            tgd(Atom.of("undergrad", X), Atom.of("student", X)),
            tgd(Atom.of("grad", X), Atom.of("student", X)),
            tgd(Atom.of("student", X), Atom.of("person", X)),
        ]
        result = rewrite(ConjunctiveQuery([Atom.of("person", A)], (A,)), rules)
        names = {cq.body[0].name for cq in result.ucq}
        assert names == {"person", "student", "undergrad", "grad"}

    def test_existential_rule_blocked_on_answer_variable(self):
        # q(A, B) <- works_for(A, B) cannot be rewritten with
        # employee(X) -> ∃Y works_for(X, Y) because B is an answer variable.
        rules = [tgd(Atom.of("employee", X), Atom.of("works_for", X, Y))]
        query = ConjunctiveQuery([Atom.of("works_for", A, B)], (A, B))
        result = rewrite(query, rules)
        assert len(result.ucq) == 1

    def test_existential_rule_applies_to_projected_variable(self):
        rules = [tgd(Atom.of("employee", X), Atom.of("works_for", X, Y))]
        query = ConjunctiveQuery([Atom.of("works_for", A, B)], (A,))
        result = rewrite(query, rules)
        assert len(result.ucq) == 2


class TestTheoryIntegration:
    def test_rewriter_accepts_a_theory_and_its_constraints(self):
        theory = OntologyTheory(
            tgds=[tgd(Atom.of("p", X), Atom.of("q", X))],
            negative_constraints=[],
        )
        rewriter = TGDRewriter(theory)
        assert len(rewriter.rules) == 1

    def test_rules_are_normalised_automatically(self):
        multi_head = TGD((Atom.of("p", X),), (Atom.of("q", X, Y), Atom.of("r", Y)))
        rewriter = TGDRewriter([multi_head])
        assert all(rule.is_normalized for rule in rewriter.rules)

    def test_elimination_requires_linear_rules(self):
        joins = TGD((Atom.of("p", X), Atom.of("q", X, Y)), (Atom.of("r", X),))
        with pytest.raises(ValueError):
            TGDRewriter([joins], use_elimination=True)

    def test_budget_is_enforced(self):
        rules = [
            tgd(Atom.of("c1", X), Atom.of("person", X)),
            tgd(Atom.of("c2", X), Atom.of("person", X)),
            tgd(Atom.of("c3", X), Atom.of("person", X)),
        ]
        query = ConjunctiveQuery(
            [Atom.of("person", A), Atom.of("person", B), Atom.of("person", C)], ()
        )
        with pytest.raises(RewritingBudgetExceeded):
            TGDRewriter(rules, max_queries=2).rewrite(query)


class TestRewriteStarEquivalence:
    """TGD-rewrite and TGD-rewrite* agree on certain answers (Theorem 10)."""

    def test_same_answers_on_the_stock_exchange_example(self):
        from repro.workloads import stock_exchange_example

        theory = stock_exchange_example.theory()
        query = stock_exchange_example.running_query()
        database = stock_exchange_example.sample_database()
        plain = TGDRewriter(theory.tgds).rewrite(query)
        optimised = TGDRewriter(theory.tgds, use_elimination=True).rewrite(query)
        assert evaluate_ucq(plain.ucq, database) == evaluate_ucq(optimised.ucq, database)
        assert len(optimised.ucq) <= len(plain.ucq)

    def test_elimination_reduces_size_on_domain_range_queries(self):
        rules = [
            tgd(Atom.of("has_stock", X, Y), Atom.of("person", X)),
            tgd(Atom.of("has_stock", X, Y), Atom.of("stock", Y)),
            tgd(Atom.of("dealer", X), Atom.of("person", X)),
            tgd(Atom.of("bond", X), Atom.of("stock", X)),
        ]
        query = ConjunctiveQuery(
            [Atom.of("person", A), Atom.of("has_stock", A, B), Atom.of("stock", B)],
            (A, B),
        )
        plain = rewrite(query, rules)
        optimised = rewrite(query, rules, use_elimination=True)
        assert len(optimised.ucq) == 1
        assert len(plain.ucq) > len(optimised.ucq)
