"""Cost-aware planning: estimates, join order, explain."""

from repro.api import OBDASystem
from repro.database.evaluator import evaluate
from repro.database.instance import RelationalInstance, database_from_tuples
from repro.database.planning import CardinalityEstimator, JoinPlan
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.workloads.stock_exchange_example import (
    running_query,
    sample_database,
    theory,
)

A, B, C = Variable("A"), Variable("B"), Variable("C")


def _skewed_database() -> RelationalInstance:
    """``big`` has 6 rows over 3 distinct subjects; ``tiny`` has one row."""
    return database_from_tuples(
        [
            ("big", ("s1", "o1")),
            ("big", ("s1", "o2")),
            ("big", ("s2", "o1")),
            ("big", ("s2", "o3")),
            ("big", ("s3", "o2")),
            ("big", ("s3", "o4")),
            ("tiny", ("s2",)),
        ]
    )


class TestEstimates:
    def test_unbound_atom_estimates_the_relation_size(self):
        estimator = CardinalityEstimator(_skewed_database())
        assert estimator.estimate_rows(Atom.of("big", A, B), set()) == 6.0

    def test_bound_position_divides_by_distinct_count(self):
        estimator = CardinalityEstimator(_skewed_database())
        # 6 rows / 3 distinct subjects.
        assert estimator.estimate_rows(Atom.of("big", A, B), {A}) == 2.0
        constant = Atom.of("big", Constant("s1"), B)
        assert estimator.estimate_rows(constant, set()) == 2.0

    def test_empty_relation_estimates_zero(self):
        estimator = CardinalityEstimator(_skewed_database())
        assert estimator.estimate_rows(Atom.of("ghost", A), set()) == 0.0

    def test_statistics_follow_the_epoch(self):
        database = _skewed_database()
        estimator = CardinalityEstimator(database)
        assert estimator.estimate_rows(Atom.of("tiny", A), set()) == 1.0
        database.add(Atom.of("tiny", Constant("s9")))
        assert estimator.estimate_rows(Atom.of("tiny", A), set()) == 2.0


class TestJoinOrder:
    def test_selective_atom_joins_first(self):
        plan = CardinalityEstimator(_skewed_database()).plan_body(
            [Atom.of("big", A, B), Atom.of("tiny", A)]
        )
        assert plan.order[0].predicate.name == "tiny"
        # After binding A, big is filtered to 6/3 = 2 expected rows.
        assert plan.step_rows == (1.0, 2.0)
        assert plan.cumulative_rows == (1.0, 2.0)
        assert plan.cost == 3.0

    def test_costs_rank_disjunct_bodies(self):
        estimator = CardinalityEstimator(_skewed_database())
        chain = estimator.plan_body([Atom.of("big", A, B), Atom.of("big", B, C)])
        single = estimator.plan_body([Atom.of("tiny", A)])
        assert single.order[0].predicate.name == "tiny"
        assert chain.cost > single.cost

    def test_empty_body_plans_to_nothing(self):
        plan = CardinalityEstimator(_skewed_database()).plan_body([])
        assert plan == JoinPlan((), (), (), 0.0)

    def test_plan_is_deterministic_under_ties(self):
        database = database_from_tuples(
            [("r", ("a", "b")), ("s", ("a", "b"))]
        )
        body = [Atom.of("s", A, B), Atom.of("r", A, B)]
        estimator = CardinalityEstimator(database)
        first = estimator.plan_body(body)
        assert first == estimator.plan_body(body)
        # Equal cost estimates fall back to the original body position.
        assert [atom.predicate.name for atom in first.order] == ["s", "r"]

    def test_bound_variables_weigh_like_constants(self):
        estimator = CardinalityEstimator(_skewed_database())
        chain = [Atom.of("big", B, C), Atom.of("big", A, B)]
        # Unbound, the two atoms tie and body position decides.
        assert estimator.plan_body(chain).order == tuple(chain)
        # With A bound (a delta rule's seed), big(A, B) is the selective one.
        seeded = estimator.plan_body(chain, bound=(A,))
        assert seeded.order == (chain[1], chain[0])
        assert seeded.step_rows == (2.0, 2.0)
        # Exactly the plan of the body with a value substituted for A.
        substituted = [atom.apply({A: Constant("s1")}) for atom in chain]
        plan = estimator.plan_body(substituted)
        assert plan.order == (substituted[1], substituted[0])
        assert (plan.step_rows, plan.cost) == (seeded.step_rows, seeded.cost)

    def test_no_bound_variables_is_the_default_plan(self):
        system = OBDASystem(theory(), database=sample_database())
        estimator = CardinalityEstimator(system.database)
        for query in system.prepare(running_query()).rewriting.ucq:
            assert estimator.plan_body(query.body, bound=()) == (
                estimator.plan_body(query.body)
            )
        system.close()

    def test_ordering_never_changes_answers(self):
        database = _skewed_database()
        query = ConjunctiveQuery(
            [Atom.of("big", A, B), Atom.of("tiny", A)], (A, B)
        )
        assert evaluate(query, database) == {
            (Constant("s2"), Constant("o1")),
            (Constant("s2"), Constant("o3")),
        }


class TestExplain:
    def _prepared(self, backend):
        system = OBDASystem(
            theory(), database=sample_database(), backend=backend
        )
        return system.prepare(running_query())

    def test_memory_explain_reports_costs_and_order(self):
        text = self._prepared("memory").explain()
        assert "backend: memory" in text
        assert "disjunct 0: cost ~" in text
        assert "matching rows" in text

    def test_sqlite_explain_reports_costs_and_sql(self):
        text = self._prepared("sqlite").explain()
        assert "backend: sqlite" in text
        assert "disjunct 0: cost ~" in text
        assert "sql:" in text

    def test_explain_lists_every_disjunct_in_rewriting_order(self):
        for backend in ("memory", "sqlite"):
            prepared = self._prepared(backend)
            listed = [
                line.split(":")[0]
                for line in prepared.explain().splitlines()
                if line.startswith("disjunct ")
            ]
            assert listed == [
                f"disjunct {index}" for index in range(len(prepared.rewriting.ucq))
            ]

    def test_explain_reflects_database_growth(self):
        system = OBDASystem(theory(), database=sample_database())
        prepared = system.prepare(running_query())
        before = prepared.explain()
        # Skew a relation the plan actually scans so the estimates move.
        for index in range(8):
            system.database.add(
                Atom.of(
                    "stock_portf",
                    Constant(f"comp{index}"),
                    Constant("stk"),
                    Constant("qty"),
                )
            )
        after = prepared.explain()
        assert before != after
