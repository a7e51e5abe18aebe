"""Tests for the QuOnto-style (PerfectRef-like) baseline rewriter."""

from repro.baselines.quonto import QuOntoStyleRewriter, quonto_rewrite
from repro.core.rewriter import rewrite
from repro.database.evaluator import evaluate_ucq
from repro.database.instance import RelationalInstance
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.dependencies.tgd import tgd
from repro.dependencies.theory import OntologyTheory
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.ucq import QuerySet
from repro.workloads.paper_examples import (
    example2_query,
    example2_rules,
    example4_completeness_witness,
    example4_query,
    example4_rules,
)

A, B, C = Variable("A"), Variable("B"), Variable("C")
X, Y = Variable("X"), Variable("Y")
a = Constant("a")


class TestCorrectness:
    def test_example2_rewriting_contains_the_key_queries(self):
        result = quonto_rewrite(example2_query(), example2_rules())
        assert result.ucq.contains_variant(example2_query())
        assert result.ucq.contains_variant(ConjunctiveQuery([Atom.of("s", A)], ()))

    def test_example4_completeness_through_the_reduce_step(self):
        result = quonto_rewrite(example4_query(), example4_rules())
        assert result.ucq.contains_variant(example4_completeness_witness())

    def test_example4_answers_match_the_chase(self):
        database = RelationalInstance()
        database.add(Atom.of("p", a))
        result = quonto_rewrite(example4_query(), example4_rules())
        assert evaluate_ucq(result.ucq, database) == {()}

    def test_applicability_condition_is_respected(self):
        # The constant of Example 3 must not be lost.
        query = ConjunctiveQuery([Atom.of("t", A, B, Constant("c"))], ())
        result = quonto_rewrite(query, example2_rules())
        assert all(all(atom.name != "s" for atom in cq.body) for cq in result.ucq)

    def test_hierarchy_enumeration(self):
        rules = [
            tgd(Atom.of("undergrad", X), Atom.of("student", X)),
            tgd(Atom.of("student", X), Atom.of("person", X)),
        ]
        result = quonto_rewrite(ConjunctiveQuery([Atom.of("person", A)], (A,)), rules)
        assert len(result.ucq) == 3


class TestRelationToTGDRewrite:
    def test_output_is_a_superset_of_tgd_rewrite_on_example2(self):
        quonto = quonto_rewrite(example2_query(), example2_rules())
        nyaya = rewrite(example2_query(), example2_rules())
        quonto_store = QuerySet(quonto.ucq)
        assert all(quonto_store.find_variant(cq) is not None for cq in nyaya.ucq)
        assert len(quonto.ucq) >= len(nyaya.ucq)

    def test_exhaustive_factorisation_inflates_the_rewriting(self):
        # Three sibling role atoms that pairwise unify: the reduce step keeps
        # every collapsed variant in the output, TGD-rewrite does not.
        rules = [tgd(Atom.of("person", X), Atom.of("has_role", X, Y))]
        query = ConjunctiveQuery(
            [Atom.of("has_role", A, B), Atom.of("has_role", A, C)], (A,)
        )
        quonto = quonto_rewrite(query, rules)
        nyaya = rewrite(query, rules)
        assert len(quonto.ucq) > len(nyaya.ucq)


class TestConfiguration:
    def test_accepts_a_theory(self):
        theory = OntologyTheory(tgds=example2_rules())
        rewriter = QuOntoStyleRewriter(theory)
        assert len(rewriter.rules) == 2

    def test_rules_are_normalised(self):
        from repro.dependencies.tgd import TGD

        multi_head = TGD((Atom.of("p", X),), (Atom.of("q", X, Y), Atom.of("r", Y)))
        rewriter = QuOntoStyleRewriter([multi_head])
        assert all(rule.is_normalized for rule in rewriter.rules)

    def test_budget_is_enforced(self):
        import pytest

        rules = [
            tgd(Atom.of("c1", X), Atom.of("person", X)),
            tgd(Atom.of("c2", X), Atom.of("person", X)),
        ]
        query = ConjunctiveQuery(
            [Atom.of("person", A), Atom.of("person", B), Atom.of("person", C)], ()
        )
        with pytest.raises(RuntimeError):
            QuOntoStyleRewriter(rules, max_queries=2).rewrite(query)
