"""Factoring a UCQ into joins over predicate unions, and executing the joins.

Two disjuncts merge only when they are equal up to variable renaming
except for the predicate of one atom; the merged atom ranges over both
predicates.  Executing the factored joins must answer exactly what the
disjuncts answer one by one (``execute_disjunct``).
"""

from itertools import product

import pytest

from repro.api import OBDASystem, resolve_engine_options
from repro.backends.memory import InMemoryBackend
from repro.core.rewriter import TGDRewriter
from repro.database.evaluator import QueryEvaluator
from repro.database.generator import DatabaseGenerator
from repro.fuzzing.generator import FRAGMENTS, GeneratorConfig, WorkloadGenerator
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable, is_variable
from repro.queries import ucq as ucq_module
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.parser import parse_query
from repro.queries.ucq import QuerySet, UnionOfConjunctiveQueries, factor
from repro.workloads import get_workload

A = Variable("A")


def joins_of(*texts):
    return factor([parse_query(text) for text in texts])


def cq(answer_terms, *atoms):
    return ConjunctiveQuery(atoms, answer_terms)


class TestMergeRule:
    def test_a_one_predicate_difference_merges(self):
        (join,) = joins_of("q(A) :- p(A), r(A, B)", "q(A) :- s(A), r(A, B)")
        assert [atom.name for atom in join.body] == ["{p|s}", "r"]
        assert join.members == (0, 1)

    def test_renaming_and_atom_order_do_not_matter(self):
        (join,) = joins_of("q(A) :- p(A), r(A, B)", "q(X) :- r(X, Y), s(X)")
        assert join.members == (0, 1)

    def test_a_cross_product_of_hierarchies_is_one_join(self):
        texts = [
            f"q(A, B) :- {x}(A), r(A, B), {y}(B)"
            for x, y in product(("a", "b", "c"), ("d", "e"))
        ]
        (join,) = joins_of(*texts)
        assert sorted(atom.name for atom in join.body) == ["r", "{a|b|c}", "{d|e}"]
        assert join.members == tuple(range(6))

    def test_predicates_keep_first_appearance_order(self):
        (join,) = joins_of("q(A) :- z(A)", "q(A) :- a(A)", "q(A) :- m(A)")
        assert join.body[0].name == "{z|a|m}"

    def test_two_differing_atoms_do_not_merge(self):
        assert len(joins_of("q(A) :- p(A), r(A)", "q(A) :- s(A), t(A)")) == 2

    def test_equal_constants_merge(self):
        one = Constant(1)
        joins = factor([cq((A,), Atom.of("p", A, one)), cq((A,), Atom.of("s", A, one))])
        assert len(joins) == 1

    def test_different_constants_do_not_merge(self):
        joins = factor(
            [
                cq((A,), Atom.of("p", A, Constant("x"))),
                cq((A,), Atom.of("s", A, Constant("y"))),
            ]
        )
        assert len(joins) == 2

    def test_constants_compare_by_type_and_value(self):
        # 1 == True == 1.0 in Python, but they are three constants here.
        joins = factor(
            [
                cq((A,), Atom.of(name, A, Constant(value)))
                for name, value in (("p", 1), ("s", True), ("t", 1.0))
            ]
        )
        assert len(joins) == 3

    def test_swapped_answer_positions_do_not_merge(self):
        assert len(joins_of("q(A, B) :- p(A, B)", "q(A, B) :- s(B, A)")) == 2

    def test_a_repeated_variable_does_not_merge_with_two(self):
        assert len(joins_of("q(A) :- p(A, A)", "q(A) :- s(A, B)")) == 2

    def test_different_arities_do_not_merge(self):
        assert len(joins_of("q(A) :- p(A), r(A)", "q(A) :- s(A, A), r(A)")) == 2

    def test_boolean_queries_merge_only_on_one_predicate(self):
        assert len(joins_of("q() :- p(A), s(A)", "q() :- r(A), s(B)")) == 2
        assert len(joins_of("q() :- p(A), s(A)", "q() :- r(A), s(A)")) == 1

    def test_a_union_must_match_as_a_whole(self):
        # Once a and b merge, the join's c-masked key names {a|b}; a(A),
        # d(A, B) matches only its stale a-key, and merging on it would
        # stand for b(A), d(A, B) too, which is no disjunct.
        joins = joins_of(
            "q(A) :- a(A), c(A, B)",
            "q(A) :- b(A), c(A, B)",
            "q(A) :- a(A), d(A, B)",
        )
        assert [join.members for join in joins] == [(0, 1), (2,)]
        assert [expansions(join) for join in joins] == [2, 1]

    def test_the_factoring_is_cached_on_the_ucq(self, monkeypatch):
        calls = []
        original = ucq_module.factor
        monkeypatch.setattr(
            ucq_module, "factor", lambda queries: calls.append(1) or original(queries)
        )
        union = UnionOfConjunctiveQueries([parse_query("q(A) :- p(A)")])
        assert union.factored() is union.factored()
        assert len(calls) == 1


def expansions(join) -> int:
    """How many CQs a join stands for: the product of its union sizes."""
    count = 1
    for atom in join.body:
        count *= len(atom.predicates)
    return count


def expand(join) -> list[ConjunctiveQuery]:
    return [
        ConjunctiveQuery(
            [Atom(predicate, atom.terms) for predicate, atom in zip(choice, join.body)],
            join.answer_terms,
        )
        for choice in product(*(atom.predicates for atom in join.body))
    ]


#: (CQs, joins) of each Table 1 rewriting under the served engine
#: options: 766 CQs in 96 joins over the 25 queries.
TABLE1_JOINS = {
    "V": {"q1": (15, 1), "q2": (16, 1), "q3": (84, 1), "q4": (138, 2), "q5": (120, 5)},
    "S": {"q1": (7, 2), "q2": (1, 1), "q3": (1, 1), "q4": (1, 1), "q5": (1, 1)},
    "U": {"q1": (3, 1), "q2": (1, 1), "q3": (1, 1), "q4": (3, 1), "q5": (3, 1)},
    "A": {"q1": (13, 2), "q2": (4, 2), "q3": (1, 1), "q4": (12, 2), "q5": (6, 1)},
    "P5": {"q1": (4, 2), "q2": (9, 3), "q3": (24, 7), "q4": (72, 17), "q5": (226, 38)},
}


def table1_rewriting(name: str, query: str) -> UnionOfConjunctiveQueries:
    workload = get_workload(name)
    options = resolve_engine_options(workload.theory)
    engine = TGDRewriter(
        workload.theory,
        use_elimination=options.use_elimination,
        use_nc_pruning=options.use_nc_pruning,
    )
    return engine.rewrite(workload.query(query)).ucq


TABLE1_CASES = [
    (name, query) for name, queries in TABLE1_JOINS.items() for query in queries
]


class TestTable1:
    @pytest.mark.parametrize("name, query", TABLE1_CASES)
    def test_factored_size_is_pinned(self, name, query):
        union = table1_rewriting(name, query)
        assert (len(union), len(union.factored())) == TABLE1_JOINS[name][query]

    @pytest.mark.parametrize("name, query", TABLE1_CASES)
    def test_each_join_expands_to_exactly_its_members(self, name, query):
        union = table1_rewriting(name, query)
        covered = []
        for join in union.factored():
            members = QuerySet(union[index] for index in join.members)
            expanded = expand(join)
            assert len(expanded) == len(join.members)
            assert all(query in members for query in expanded)
            covered.extend(join.members)
        assert sorted(covered) == list(range(len(union)))


class TestExecution:
    def test_vicodi_q3_runs_as_one_join(self, monkeypatch):
        workload = get_workload("V")
        database = DatabaseGenerator(seed=3).populate_for_rules(
            workload.theory.tgds, facts_per_relation=25
        )
        union = table1_rewriting("V", "q3")
        assert len(union) == 84
        plan = InMemoryBackend().prepare(union)
        started = []
        answers = QueryEvaluator.answers

        def counting(self, program, seed=None, into=None):
            started.append(program)
            return answers(self, program, seed, into)

        monkeypatch.setattr(QueryEvaluator, "answers", counting)
        executed = plan.execute(database)
        assert len(started) == 1
        disjuncts = frozenset().union(
            *(plan.execute_disjunct(database, index) for index in range(len(union)))
        )
        assert executed == disjuncts and executed

    @pytest.mark.parametrize("first", ("execute", "poll"))
    def test_factoring_waits_for_the_first_execute_or_poll(self, monkeypatch, first):
        # prepare() never factors; whichever of execute() and poll() runs
        # first factors once, and the other shares the result.
        calls = []
        original = ucq_module.factor
        monkeypatch.setattr(
            ucq_module, "factor", lambda queries: calls.append(1) or original(queries)
        )
        second = "poll" if first == "execute" else "execute"
        workload = get_workload("S")
        with OBDASystem(workload.theory, database=workload.abox()) as system:
            prepared = system.prepare(workload.query("q1"))
            assert calls == []
            getattr(prepared, first)()
            assert calls == [1]
            getattr(prepared, second)()
            system.database.add_tuple("Stock", ("fresh",))
            prepared.execute()
            prepared.poll()
            assert calls == [1]


def _bound(query: ConjunctiveQuery, placeholder: Constant) -> ConjunctiveQuery | None:
    """*query* with its first body variable replaced by *placeholder*."""
    variables = [term for atom in query.body for term in atom.terms if is_variable(term)]
    if not variables:
        return None
    mapping = {variables[0]: placeholder}
    return ConjunctiveQuery(
        [atom.apply(mapping) for atom in query.body],
        tuple(mapping.get(term, term) for term in query.answer_terms),
    )


#: Generated cases per fragment for the execution property.
PROPERTY_CASES = 40


class TestFactoredExecutionProperty:
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_execute_is_the_union_of_the_disjuncts(self, fragment):
        generator = WorkloadGenerator(seed=11, config=GeneratorConfig(fragment=fragment))
        placeholder = Constant("$bound")
        merged = bound_checks = 0
        for case in generator.cases(PROPERTY_CASES):
            engine = TGDRewriter(case.theory.tgds)
            for query, all_bindings in (
                (case.query, [None]),
                (
                    _bound(case.query, placeholder),
                    [
                        {placeholder: constant}
                        for constant in sorted(case.instance.constants(), key=repr)[:3]
                    ],
                ),
            ):
                if query is None:
                    continue
                union = engine.rewrite(query).ucq
                plan = InMemoryBackend().prepare(union)
                merged += len(union.factored()) < len(union)
                for bindings in all_bindings:
                    expected = frozenset().union(
                        *(
                            plan.execute_disjunct(case.instance, index, bindings)
                            for index in range(len(union))
                        )
                    )
                    assert plan.execute(case.instance, bindings) == expected, (
                        case.describe(),
                        bindings,
                    )
                    bound_checks += bindings is not None
        # The property must have exercised merged joins and bindings.
        assert merged > 0 and bound_checks > 0
