"""Cross-cutting correctness: every rewriter agrees with the chase oracle.

The central soundness/completeness statement of the paper (Theorem 6 /
Theorem 10) is that, for every database D, evaluating the perfect rewriting
over D yields exactly the certain answers of the original query over D ∪ Σ.
These tests check that invariant — for all four systems — on the paper's
worked examples and on randomly generated linear rule sets, databases and
Boolean queries (hypothesis).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.baselines.quonto import QuOntoStyleRewriter
from repro.baselines.resolution import ResolutionRewriter
from repro.chase.chase import chase, chase_entails
from repro.core.rewriter import TGDRewriter
from repro.database.evaluator import evaluate_ucq
from repro.database.instance import RelationalInstance
from repro.dependencies.classifiers import is_linear
from repro.dependencies.tgd import tgd
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.workloads.paper_examples import (
    example2_query,
    example2_rules,
    example4_query,
    example4_rules,
)

from ..conftest import boolean_queries, ground_atoms, linear_tgd_sets

A, B = Variable("A"), Variable("B")
X, Y = Variable("X"), Variable("Y")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def _rewriters(rules, with_elimination=True):
    systems = {
        "NY": TGDRewriter(rules),
        "QO": QuOntoStyleRewriter(rules),
        "RQ": ResolutionRewriter(rules, prune_subsumed=False),
    }
    if with_elimination and is_linear(rules):
        systems["NY*"] = TGDRewriter(rules, use_elimination=True)
    return systems


def _assert_rewritings_match_chase(rules, query, databases, max_depth=6):
    """All systems agree with the (bounded) chase on every database."""
    rewritings = {
        name: rewriter.rewrite(query) for name, rewriter in _rewriters(rules).items()
    }
    for facts in databases:
        instance = RelationalInstance()
        for fact in facts:
            instance.add(fact)
        expected = chase_entails(chase(instance.facts, list(rules), max_depth=max_depth), query)
        for name, result in rewritings.items():
            assert bool(evaluate_ucq(result.ucq, instance)) == expected, (
                f"{name} disagrees with the chase on {sorted(map(repr, facts))}"
            )


class TestPaperExamples:
    def test_example2_on_handwritten_databases(self):
        databases = [
            [Atom.of("s", a)],
            [Atom.of("t", a, b, c), Atom.of("r", b, c)],
            [Atom.of("t", a, b, c), Atom.of("r", b, b)],
            [Atom.of("r", a, b)],
            [],
        ]
        _assert_rewritings_match_chase(example2_rules(), example2_query(), databases)

    def test_example4_on_handwritten_databases(self):
        databases = [
            [Atom.of("p", a)],
            [Atom.of("t", a, b), Atom.of("s", b)],
            [Atom.of("t", a, b), Atom.of("s", c)],
            [Atom.of("s", a)],
        ]
        _assert_rewritings_match_chase(example4_rules(), example4_query(), databases)

    def test_stock_exchange_running_example(self):
        from repro.workloads import stock_exchange_example

        rules = stock_exchange_example.tgds()
        query = stock_exchange_example.running_query()
        database = stock_exchange_example.sample_database()
        chased = chase(database.facts, rules, max_depth=6)
        expected_boolean = chase_entails(chased, query)
        for name, rewriter in _rewriters(rules).items():
            result = rewriter.rewrite(query)
            assert bool(evaluate_ucq(result.ucq, database)) == expected_boolean, name


class TestNonBooleanAnswers:
    def test_certain_answers_match_on_a_small_ontology(self):
        from repro.chase.chase import certain_answers

        rules = [
            # domain/range plus a hierarchy and a mandatory participation
            tgd(Atom.of("has_stock", X, Y), Atom.of("person", X)),
            tgd(Atom.of("has_stock", X, Y), Atom.of("stock", Y)),
            tgd(Atom.of("dealer", X), Atom.of("person", X)),
            tgd(Atom.of("dealer", X), Atom.of("has_stock", X, Y)),
        ]
        query = ConjunctiveQuery([Atom.of("person", A)], (A,))
        database = RelationalInstance()
        database.add_tuple("dealer", ("ann",))
        database.add_tuple("has_stock", ("bob", "acme"))
        expected = certain_answers(query, database.facts, rules, max_depth=6)
        for name, rewriter in _rewriters(rules).items():
            answers = evaluate_ucq(rewriter.rewrite(query).ucq, database)
            assert answers == expected == {(Constant("ann"),), (Constant("bob"),)}, name


class TestRandomisedEquivalence:
    """Property-based Theorem 6 check on random linear rule sets."""

    @settings(max_examples=30, deadline=None)
    @given(
        linear_tgd_sets(max_rules=3),
        boolean_queries(max_atoms=3),
        st.lists(ground_atoms(), min_size=0, max_size=6),
    )
    def test_tgd_rewrite_matches_the_chase(self, rules, query, facts):
        instance = RelationalInstance()
        for fact in facts:
            instance.add(fact)
        expected = chase_entails(chase(instance.facts, rules, max_depth=4, max_atoms=400), query)
        result = TGDRewriter(rules, max_queries=20_000).rewrite(query)
        observed = bool(evaluate_ucq(result.ucq, instance))
        # A bounded chase can only under-approximate: if it already entails
        # the query the rewriting must as well; if the rewriting entails the
        # query, a deeper chase must confirm it.
        if expected:
            assert observed
        elif observed:
            deeper = chase_entails(
                chase(instance.facts, rules, max_depth=8, max_atoms=2_000), query
            )
            assert deeper

    @settings(max_examples=30, deadline=None)
    @given(
        linear_tgd_sets(max_rules=3),
        boolean_queries(max_atoms=3),
        st.lists(ground_atoms(), min_size=0, max_size=6),
    )
    def test_elimination_preserves_answers(self, rules, query, facts):
        instance = RelationalInstance()
        for fact in facts:
            instance.add(fact)
        plain = TGDRewriter(rules, max_queries=20_000).rewrite(query)
        optimised = TGDRewriter(rules, use_elimination=True, max_queries=20_000).rewrite(query)
        assert evaluate_ucq(plain.ucq, instance) == evaluate_ucq(optimised.ucq, instance)

    @settings(max_examples=20, deadline=None)
    @given(
        linear_tgd_sets(max_rules=3),
        boolean_queries(max_atoms=2),
        st.lists(ground_atoms(), min_size=0, max_size=5),
    )
    def test_baselines_agree_with_tgd_rewrite(self, rules, query, facts):
        instance = RelationalInstance()
        for fact in facts:
            instance.add(fact)
        reference = evaluate_ucq(
            TGDRewriter(rules, max_queries=20_000).rewrite(query).ucq, instance
        )
        quonto = evaluate_ucq(
            QuOntoStyleRewriter(rules, max_queries=20_000).rewrite(query).ucq, instance
        )
        requiem = evaluate_ucq(
            ResolutionRewriter(rules, prune_subsumed=False).rewrite(query).ucq, instance
        )
        assert quonto == reference
        assert requiem == reference
