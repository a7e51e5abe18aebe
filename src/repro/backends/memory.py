"""The in-memory execution backend.

Wraps :class:`repro.database.evaluator.QueryEvaluator` behind the
:class:`~repro.backends.base.ExecutionBackend` protocol.  A plan executes
its rewriting as the few joins over predicate unions it factors into
(:meth:`repro.queries.ucq.UnionOfConjunctiveQueries.factored`): the
disjuncts of a rewriting mostly differ in one atom's predicate, picked
from an ontology hierarchy, and join distributes over union, so one
search answers them all.  The UCQ is factored on the plan's first
:meth:`~InMemoryPlan.execute`, never at prepare, and the result is
shared by every plan of that UCQ.

What ``prepare`` buys over calling the evaluator directly is a *reusable
plan*: the cost-aware join order of each join
(:mod:`repro.database.planning`) and its compiled search program are made
once per database epoch and replayed for every execution at that epoch
(they depend on relation statistics, so they are remade when the data
changes).  Constant bindings are compiled into the planned order, so a
rebound execution reuses the same order — binding changes which facts
match, not the join structure.  :meth:`~InMemoryPlan.execute_disjunct`
still evaluates one disjunct of the rewriting on its own, planned the
same way: the maintainer's full refresh counts answers per disjunct.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..database.evaluator import JoinProgram, QueryEvaluator, compile_join
from ..database.instance import RelationalInstance
from ..database.planning import CardinalityEstimator, JoinPlan
from ..database.schema import RelationalSchema
from ..logic.terms import Constant
from ..queries.ucq import UnionOfConjunctiveQueries
from .base import ExecutionBackend, ExecutionPlan


class InMemoryPlan(ExecutionPlan):
    """A UCQ's factored joins, planned and compiled once per epoch."""

    def __init__(self, ucq: UnionOfConjunctiveQueries) -> None:
        self._ucq = ucq
        # Plans of the most recent epoch only: plans serve one database at
        # a time, and older epochs can never come back.
        self._epoch_key: Hashable | None = None
        self._joins: tuple[tuple[JoinPlan, JoinProgram], ...] = ()

    def _join_plans(
        self, database: RelationalInstance
    ) -> tuple[tuple[JoinPlan, JoinProgram], ...]:
        key = (id(database), database.epoch)
        if key != self._epoch_key:
            estimator = CardinalityEstimator(database)
            plans = []
            for join in self._ucq.factored():
                plan = estimator.plan_body(join.body)
                plans.append((plan, compile_join(plan.order, join.answer_terms)))
            self._joins = tuple(plans)
            self._epoch_key = key
        return self._joins

    def execute(
        self,
        database: RelationalInstance,
        bindings: Mapping[Constant, Constant] | None = None,
    ) -> frozenset[tuple]:
        evaluator = QueryEvaluator(database)
        answers: set[tuple] = set()
        for join, (plan, program) in zip(
            self._ucq.factored(), self._join_plans(database)
        ):
            if bindings:
                program = compile_join(
                    plan.order, join.answer_terms, constants=bindings
                )
            evaluator.answers(program, into=answers)
        return frozenset(answers)

    def execute_disjunct(
        self,
        database: RelationalInstance,
        index: int,
        bindings: Mapping[Constant, Constant] | None = None,
    ) -> frozenset[tuple]:
        # Planned per call: a full refresh runs each disjunct once per
        # epoch, so keeping its plan would only keep garbage alive.
        query = self._ucq[index]
        order = CardinalityEstimator(database).plan_body(query.body).order
        program = compile_join(order, query.answer_terms, constants=bindings)
        return frozenset(QueryEvaluator(database).answers(program))

    @property
    def description(self) -> str:
        lines = [
            "factored index nested-loop: disjuncts that differ only in one "
            "atom's predicate run as one join over the union of those predicates"
        ]
        for index, query in enumerate(self._ucq):
            order = " -> ".join(atom.name for atom in query.body)
            lines.append(f"disjunct {index}: {order}")
        return "\n".join(lines)

    def explain(self, database: RelationalInstance) -> str:
        joins = self._ucq.factored()
        lines = [
            f"backend: memory (index nested-loop; {len(self._ucq)} disjuncts "
            f"factored into {len(joins)} joins over predicate unions)"
        ]
        factored_into = {}
        for number, (join, (plan, _)) in enumerate(
            zip(joins, self._join_plans(database))
        ):
            for member in join.members:
                factored_into[member] = number
            order = " -> ".join(atom.name for atom in plan.order) or "<empty body>"
            lines.append(
                f"join {number} ({len(join.members)} disjuncts): "
                f"cost ~{plan.cost:.1f} rows; join {order}"
            )
            for atom, rows, cumulative in zip(
                plan.order, plan.step_rows, plan.cumulative_rows
            ):
                lines.append(
                    f"  {atom!r}: ~{rows:.1f} matching rows, "
                    f"~{cumulative:.1f} cumulative"
                )
        estimator = CardinalityEstimator(database)
        for index, query in enumerate(self._ucq):
            plan = estimator.plan_body(query.body)
            order = " -> ".join(atom.name for atom in plan.order) or "<empty body>"
            lines.append(
                f"disjunct {index}: cost ~{plan.cost:.1f} rows; join {order}; "
                f"runs in join {factored_into[index]}"
            )
        return "\n".join(lines)


class InMemoryBackend(ExecutionBackend):
    """Executes rewritings with the built-in index nested-loop evaluator."""

    name = "memory"

    def prepare(
        self,
        ucq: UnionOfConjunctiveQueries,
        schema: RelationalSchema | None = None,
    ) -> InMemoryPlan:
        return InMemoryPlan(ucq)
