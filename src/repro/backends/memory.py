"""The in-memory execution backend.

Wraps :class:`repro.database.evaluator.QueryEvaluator` behind the
:class:`~repro.backends.base.ExecutionBackend` protocol.  What ``prepare``
buys over calling the evaluator directly is a *reusable plan*: the
cost-aware join order of each disjunct's body
(:mod:`repro.database.planning`) is computed once per database epoch and
replayed for every execution at that epoch (it depends on relation
statistics, so it is refreshed when the data changes).  Constant bindings
are applied atom-wise to the ordered body, so a rebound execution reuses
the same order — binding changes which facts match, not the join
structure.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from ..database.evaluator import QueryEvaluator
from ..database.instance import RelationalInstance
from ..database.planning import CardinalityEstimator, JoinPlan
from ..database.schema import RelationalSchema
from ..logic.atoms import Atom
from ..logic.terms import Constant, Term, is_variable
from ..queries.ucq import UnionOfConjunctiveQueries
from .base import ExecutionBackend, ExecutionPlan


class InMemoryPlan(ExecutionPlan):
    """Per-disjunct bodies and answer terms, with plans cached by epoch."""

    def __init__(self, ucq: UnionOfConjunctiveQueries) -> None:
        self._disjuncts: tuple[tuple[tuple[Atom, ...], tuple[Term, ...]], ...] = tuple(
            (query.body, query.answer_terms) for query in ucq
        )
        # Plans of the most recent epoch only: plans serve one database at
        # a time, and older epochs can never come back.
        self._order_key: Hashable | None = None
        self._plans: tuple[JoinPlan, ...] = ()

    def _plan(self, database: RelationalInstance) -> tuple[JoinPlan, ...]:
        key = (id(database), database.epoch)
        if key != self._order_key:
            estimator = CardinalityEstimator(database)
            self._plans = tuple(
                estimator.plan_body(body) for body, _ in self._disjuncts
            )
            self._order_key = key
        return self._plans

    def _answers(
        self,
        database: RelationalInstance,
        indexes: Iterable[int],
        bindings: Mapping[Constant, Constant] | None,
    ) -> frozenset[tuple]:
        """Union of the answers of the disjuncts at *indexes*, under *bindings*."""
        plans = self._plan(database)
        evaluator = QueryEvaluator(database)
        answers: set[tuple] = set()
        for index in indexes:
            ordered: list[Atom] | tuple[Atom, ...] = plans[index].order
            _, answer_terms = self._disjuncts[index]
            if bindings:
                ordered = [atom.apply(bindings) for atom in ordered]
                answer_terms = tuple(
                    term if is_variable(term) else bindings.get(term, term)
                    for term in answer_terms
                )
            answers |= evaluator.answers_for_order(ordered, answer_terms)
        return frozenset(answers)

    def execute(
        self,
        database: RelationalInstance,
        bindings: Mapping[Constant, Constant] | None = None,
    ) -> frozenset[tuple]:
        return self._answers(database, range(len(self._disjuncts)), bindings)

    def execute_disjunct(
        self,
        database: RelationalInstance,
        index: int,
        bindings: Mapping[Constant, Constant] | None = None,
    ) -> frozenset[tuple]:
        return self._answers(database, (index,), bindings)

    @property
    def description(self) -> str:
        lines = []
        for index, (body, _) in enumerate(self._disjuncts):
            order = " -> ".join(atom.name for atom in body)
            lines.append(f"disjunct {index}: index nested-loop over {order}")
        return "\n".join(lines)

    def explain(self, database: RelationalInstance) -> str:
        lines = ["backend: memory (index nested-loop)"]
        for index, plan in enumerate(self._plan(database)):
            order = " -> ".join(atom.name for atom in plan.order) or "<empty body>"
            lines.append(
                f"disjunct {index}: cost ~{plan.cost:.1f} rows; join {order}"
            )
            for atom, rows, cumulative in zip(
                plan.order, plan.step_rows, plan.cumulative_rows
            ):
                lines.append(
                    f"  {atom!r}: ~{rows:.1f} matching rows, "
                    f"~{cumulative:.1f} cumulative"
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
