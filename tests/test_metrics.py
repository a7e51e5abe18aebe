"""Tests for the Table 1 rewriting metrics (size, length, width)."""

from hypothesis import given

from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.metrics import (
    RewritingMetrics,
    query_length,
    query_width,
    ucq_metrics,
)
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries

from .conftest import boolean_queries

A, B, C, D = Variable("A"), Variable("B"), Variable("C"), Variable("D")


class TestQueryMetrics:
    def test_single_atom_query_has_width_zero(self):
        # Table 1, VICODI q1: 15 single-atom CQs have length 15 and width 0.
        query = ConjunctiveQuery([Atom.of("Location", A)], (A,))
        assert query_length(query) == 1
        assert query_width(query) == 0

    def test_one_join_between_two_atoms(self):
        query = ConjunctiveQuery([Atom.of("r", A, B), Atom.of("s", B, C)], (A,))
        assert query_width(query) == 1

    def test_three_occurrences_count_two_joins(self):
        query = ConjunctiveQuery(
            [Atom.of("r", A, B), Atom.of("s", B, C), Atom.of("t", B, D)], (A,)
        )
        assert query_width(query) == 2

    def test_head_occurrences_are_not_joins(self):
        query = ConjunctiveQuery([Atom.of("r", A, B)], (A, B))
        assert query_width(query) == 0

    def test_repeated_variable_inside_one_atom_is_a_join(self):
        query = ConjunctiveQuery([Atom.of("r", A, A)], ())
        assert query_width(query) == 1

    def test_constants_never_contribute_joins(self):
        query = ConjunctiveQuery(
            [Atom.of("r", A, Constant("c")), Atom.of("s", Constant("c"))], ()
        )
        assert query_width(query) == 0

    def test_running_example_reduced_query_width(self):
        # Section 1: the optimised rewriting executes "only two joins" — one
        # per CQ, both on the stock identifier.
        from repro.workloads import stock_exchange_example

        reduced = stock_exchange_example.reduced_query()
        assert query_width(reduced) == 1
        assert query_length(reduced) == 2


class TestUCQMetrics:
    def test_sums_over_members(self):
        ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery([Atom.of("r", A, B), Atom.of("s", B, C)], (A,)),
                ConjunctiveQuery([Atom.of("p", A)], (A,)),
            ]
        )
        metrics = ucq_metrics(ucq)
        assert metrics == RewritingMetrics(size=2, length=3, width=1)
        assert metrics.as_row() == (2, 3, 1)

    def test_empty_rewriting(self):
        assert ucq_metrics([]) == RewritingMetrics(size=0, length=0, width=0)


class TestMetricProperties:
    @given(boolean_queries())
    def test_metrics_are_non_negative_and_consistent(self, query):
        metrics = ucq_metrics([query])
        assert metrics.size == 1
        assert metrics.length == len(query.body)
        assert 0 <= metrics.width <= sum(atom.arity for atom in query.body)

    @given(boolean_queries(), boolean_queries())
    def test_metrics_are_additive(self, first, second):
        union = ucq_metrics([first, second])
        alone = ucq_metrics([first]), ucq_metrics([second])
        assert union.size == alone[0].size + alone[1].size
        assert union.length == alone[0].length + alone[1].length
        assert union.width == alone[0].width + alone[1].width
