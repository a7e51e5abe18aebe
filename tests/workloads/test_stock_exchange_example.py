"""Tests reproducing the Section 1 running example and Figure 1."""

from repro.core.rewriter import TGDRewriter
from repro.database.evaluator import evaluate_ucq
from repro.logic.terms import Constant
from repro.queries.ucq import QuerySet
from repro.workloads import stock_exchange_example as running


class TestTheoryShape:
    def test_nine_tgds_and_one_constraint(self):
        theory = running.theory()
        assert len(theory.tgds) == 9
        assert len(theory.negative_constraints) == 1

    def test_rules_are_linear_and_sticky(self):
        theory = running.theory()
        assert theory.classification.linear
        assert theory.classification.sticky
        assert theory.is_fo_rewritable

    def test_schema_matches_the_paper(self):
        assert running.SCHEMA["stock"].attributes == ("id", "name", "unit_price")
        assert running.SCHEMA["stock_portf"].attributes == ("company", "stock", "qty")

    def test_labels_follow_the_paper_numbering(self):
        labels = [rule.label for rule in running.tgds()]
        assert labels == [f"sigma{i}" for i in range(1, 10)]


class TestFigure1:
    """The partial rewriting q[0] … q[3] of Figure 1 is actually generated."""

    def test_all_four_queries_appear_in_the_rewriting(self):
        result = TGDRewriter(running.theory().tgds).rewrite(running.running_query())
        store = QuerySet(result.ucq)
        for figure_query in running.figure1_queries():
            assert store.find_variant(figure_query) is not None

    def test_naive_rewriting_is_large(self):
        """Section 1: the complete perfect rewriting is large without optimisation."""
        result = TGDRewriter(running.theory().tgds).rewrite(running.running_query())
        assert len(result.ucq) > 20


class TestSection1Optimisation:
    def test_optimised_rewriting_has_exactly_two_queries(self):
        rewriter = TGDRewriter(running.theory().tgds, use_elimination=True)
        result = rewriter.rewrite(running.running_query())
        assert len(result.ucq) == 2
        store = QuerySet(result.ucq)
        for expected in running.expected_optimized_rewriting():
            assert store.find_variant(expected) is not None

    def test_optimised_and_naive_rewritings_agree_on_the_sample_database(self):
        database = running.sample_database()
        naive = TGDRewriter(running.theory().tgds).rewrite(running.running_query())
        optimised = TGDRewriter(running.theory().tgds, use_elimination=True).rewrite(
            running.running_query()
        )
        assert evaluate_ucq(naive.ucq, database) == evaluate_ucq(optimised.ucq, database)

    def test_expected_answers_on_the_sample_database(self):
        database = running.sample_database()
        optimised = TGDRewriter(running.theory().tgds, use_elimination=True).rewrite(
            running.running_query()
        )
        answers = evaluate_ucq(optimised.ucq, database)
        assert (Constant("ibm_s1"), Constant("ibm"), Constant("nasdaq")) in answers
        assert (Constant("acme_s1"), Constant("acme"), Constant("ftse")) in answers

    def test_reduced_query_matches_the_paper(self):
        reduced = running.reduced_query()
        assert {atom.name for atom in reduced.body} == {"stock_portf", "list_comp"}
