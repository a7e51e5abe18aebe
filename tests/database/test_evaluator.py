"""Tests for CQ / UCQ evaluation over relational instances."""

from hypothesis import given, settings
import hypothesis.strategies as st

from repro.database.evaluator import (
    QueryEvaluator,
    compile_join,
    evaluate,
    evaluate_ucq,
)
from repro.database.instance import RelationalInstance, database_from_tuples
from repro.logic.atoms import Atom
from repro.logic.homomorphism import has_homomorphism
from repro.logic.terms import Constant, Variable
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries

from ..conftest import boolean_queries, ground_atoms

A, B, C = Variable("A"), Variable("B"), Variable("C")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def _sample_database() -> RelationalInstance:
    return database_from_tuples(
        [
            ("works_for", ("ann", "acme")),
            ("works_for", ("bob", "acme")),
            ("works_for", ("eve", "initech")),
            ("company", ("acme",)),
            ("manager", ("ann", "bob")),
        ]
    )


class TestSingleQueryEvaluation:
    def test_single_atom_query(self):
        answers = evaluate(
            ConjunctiveQuery([Atom.of("works_for", A, B)], (A,)), _sample_database()
        )
        assert answers == {(Constant("ann"),), (Constant("bob"),), (Constant("eve"),)}

    def test_join_query(self):
        query = ConjunctiveQuery(
            [Atom.of("works_for", A, B), Atom.of("company", B)], (A, B)
        )
        answers = evaluate(query, _sample_database())
        assert answers == {
            (Constant("ann"), Constant("acme")),
            (Constant("bob"), Constant("acme")),
        }

    def test_constant_selection(self):
        query = ConjunctiveQuery([Atom.of("works_for", A, Constant("initech"))], (A,))
        assert evaluate(query, _sample_database()) == {(Constant("eve"),)}

    def test_triangle_join(self):
        query = ConjunctiveQuery(
            [
                Atom.of("manager", A, B),
                Atom.of("works_for", A, C),
                Atom.of("works_for", B, C),
            ],
            (A, B, C),
        )
        answers = evaluate(query, _sample_database())
        assert answers == {(Constant("ann"), Constant("bob"), Constant("acme"))}

    def test_no_answers(self):
        query = ConjunctiveQuery([Atom.of("works_for", A, Constant("ghost"))], (A,))
        assert evaluate(query, _sample_database()) == frozenset()

    def test_seeded_search_extends_the_seed(self):
        evaluator = QueryEvaluator(_sample_database())
        body = [Atom.of("works_for", A, B), Atom.of("company", B)]
        ann = Constant("ann")
        eve = Constant("eve")
        # The seed binds A like a constant would; answer terms read it.
        pairs = compile_join(body, (A, B), bound=(A,))
        assert evaluator.answers(pairs, {A: ann}) == {(ann, Constant("acme"))}
        assert evaluator.answers(pairs, {A: eve}) == set()
        witness = compile_join(body, bound=(A,))
        assert evaluator.exists(witness, {A: ann})
        assert not evaluator.exists(witness, {A: eve})
        # An empty body is satisfied by the seed alone.
        assert evaluator.answers(compile_join((), (A,), (A,)), {A: ann}) == {(ann,)}

    def test_boolean_query_entailment(self):
        evaluator = QueryEvaluator(_sample_database())
        assert evaluator.exists(compile_join([Atom.of("company", A)]))
        assert not evaluator.exists(compile_join([Atom.of("person", A)]))

    def test_repeated_variable_in_atom(self):
        database = database_from_tuples([("e", ("x", "x")), ("e", ("x", "y"))])
        query = ConjunctiveQuery([Atom.of("e", A, A)], (A,))
        assert evaluate(query, database) == {(Constant("x"),)}

    def test_answer_constants_are_projected(self):
        query = ConjunctiveQuery([Atom.of("company", A)], (A, Constant("fixed")))
        assert evaluate(query, _sample_database()) == {(Constant("acme"), Constant("fixed"))}


class TestUCQEvaluation:
    def test_union_of_answers(self):
        ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery([Atom.of("works_for", A, Constant("acme"))], (A,)),
                ConjunctiveQuery([Atom.of("works_for", A, Constant("initech"))], (A,)),
            ]
        )
        answers = evaluate_ucq(ucq, _sample_database())
        assert len(answers) == 3

    def test_entails_ucq(self):
        database = _sample_database()
        ucq = [
            ConjunctiveQuery([Atom.of("person", A)], ()),
            ConjunctiveQuery([Atom.of("company", A)], ()),
        ]
        assert evaluate_ucq(ucq, database) == {()}
        assert evaluate_ucq(ucq[:1], database) == frozenset()

    def test_empty_ucq_has_no_answers(self):
        assert evaluate_ucq([], _sample_database()) == frozenset()


class TestEvaluatorAgainstHomomorphismOracle:
    """The evaluator must agree with the naive homomorphism-based semantics."""

    @settings(max_examples=40, deadline=None)
    @given(boolean_queries(max_atoms=3), st.lists(ground_atoms(), min_size=0, max_size=8))
    def test_boolean_evaluation_matches_homomorphism_check(self, query, facts):
        instance = RelationalInstance()
        for fact in facts:
            instance.add(fact)
        expected = has_homomorphism(query.body, instance.facts)
        # Searched in body order, and in the planned order.
        assert QueryEvaluator(instance).exists(compile_join(query.body)) == expected
        assert bool(evaluate(query, instance)) == expected
