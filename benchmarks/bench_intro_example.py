"""The Section 1 worked example: naive rewriting vs. query elimination.

The introduction of the paper motivates query elimination with the financial
query over the Stock-Exchange schema: the naive perfect rewriting contains
hundreds of CQs and over a thousand joins, while eliminating the three
redundant atoms up front leaves a perfect rewriting of exactly two CQs with
two joins.  This benchmark reproduces that contrast (the absolute naive
count depends on the normalisation of σ1-σ4/σ7, but the optimised rewriting
is exactly the one printed in the paper).
"""

from repro.core.rewriter import TGDRewriter
from repro.database.evaluator import evaluate_ucq
from repro.metrics import ucq_metrics
from repro.queries.ucq import QuerySet
from repro.workloads import stock_exchange_example as running


def test_intro_example_naive_rewriting(benchmark):
    """The naive perfect rewriting of the running query is large."""
    rewriter = TGDRewriter(running.theory().tgds)
    result = benchmark.pedantic(
        rewriter.rewrite, args=(running.running_query(),), rounds=1, iterations=1
    )
    metrics = ucq_metrics(result.ucq)
    assert metrics.size >= 50
    assert metrics.width >= 100
    benchmark.extra_info.update(size=metrics.size, length=metrics.length, width=metrics.width)


def test_intro_example_optimised_rewriting(benchmark):
    """TGD-rewrite* produces exactly the two CQs quoted at the end of Section 1."""
    rewriter = TGDRewriter(running.theory().tgds, use_elimination=True)
    result = benchmark.pedantic(
        rewriter.rewrite, args=(running.running_query(),), rounds=1, iterations=1
    )
    metrics = ucq_metrics(result.ucq)
    assert metrics.size == 2
    assert metrics.length == 4
    assert metrics.width == 2  # "executing only two joins"
    store = QuerySet(result.ucq)
    for expected in running.expected_optimized_rewriting():
        assert store.find_variant(expected) is not None
    benchmark.extra_info.update(size=metrics.size, length=metrics.length, width=metrics.width)


def test_intro_example_answers_are_preserved(benchmark):
    """Both rewritings return the same certain answers on the sample database."""
    theory = running.theory()
    query = running.running_query()
    database = running.sample_database()
    naive = TGDRewriter(theory.tgds).rewrite(query)
    optimised = TGDRewriter(theory.tgds, use_elimination=True).rewrite(query)

    def evaluate_both():
        return evaluate_ucq(naive.ucq, database), evaluate_ucq(optimised.ucq, database)

    naive_answers, optimised_answers = benchmark.pedantic(
        evaluate_both, rounds=1, iterations=1
    )
    assert naive_answers == optimised_answers
    assert len(optimised_answers) == 2
