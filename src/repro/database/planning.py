"""Cost-aware join planning over relational instances.

The evaluator's original join ordering was purely structural (more bound
terms first, smaller relation as tie-break).  This module replaces the
heuristic with the textbook System-R style estimate actually derivable
from the instance: a relation of size ``N`` filtered on ``k`` bound
positions with ``d1, ..., dk`` distinct values at those positions is
expected to yield ``N / (d1 · ... · dk)`` rows (independence assumption,
uniform values).  Distinct counts come from
:meth:`repro.database.instance.RelationalInstance.position_cardinalities`,
which caches them per epoch — statistics are collected once per database
state, not once per query.

:meth:`CardinalityEstimator.plan_body` orders one CQ body greedily by
estimated output rows (ties broken by bound-term count, relation size,
then original position, so planning is deterministic) and reports the
plan's total estimated work: the sum of the cumulative
intermediate-result sizes along the join.  The evaluator and the
in-memory backend join in that order; both backends' ``explain`` print
it.  A body may mix plain atoms with the union atoms of a factored join
(:class:`repro.queries.ucq.UnionAtom`): a union atom matches the rows
of all its predicates, so its estimate and its relation size are the
sums of theirs.  The incremental maintainer plans its delta rules here
too, passing the variables a changed fact will bind as ``bound``.

Ordering never changes *what* is answered — CQ answers are
order-independent — which is why the existing backend-agreement
differential tests double as the safety net for this module.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from ..logic.atoms import Atom
from ..logic.terms import Constant, Term, Variable
from ..queries.ucq import UnionAtom
from .instance import RelationalInstance

__all__ = ["CardinalityEstimator", "JoinPlan"]


class JoinPlan(NamedTuple):
    """A planned join order for one CQ body, with its cost estimates."""

    #: The body atoms in execution order.
    order: tuple[Atom | UnionAtom, ...]
    #: Estimated rows produced by each join step, in execution order.
    step_rows: tuple[float, ...]
    #: Estimated size of the intermediate result after each step.
    cumulative_rows: tuple[float, ...]
    #: Total estimated work: the sum of the cumulative sizes.
    cost: float


class CardinalityEstimator:
    """Selectivity estimates for one :class:`RelationalInstance`.

    The estimator is cheap to construct (it holds only the instance); the
    expensive part — per-position distinct counts — is cached on the
    instance itself, keyed by its epoch.
    """

    def __init__(self, instance: RelationalInstance) -> None:
        self._instance = instance

    def _statistics(
        self, atom: Atom | UnionAtom
    ) -> list[tuple[int, tuple[int, ...]]]:
        """``(size, distinct counts per position)`` of *atom*'s non-empty relations."""
        instance = self._instance
        statistics = []
        for predicate in atom.predicates:
            size = instance.relation_size(predicate)
            if size:
                statistics.append((size, instance.position_cardinalities(predicate)))
        return statistics

    @staticmethod
    def _estimate(
        statistics: Sequence[tuple[int, tuple[int, ...]]],
        terms: Sequence[Term],
        bound_variables: set[Term],
    ) -> tuple[float, int]:
        """Expected matches of an atom, and how many of its positions are bound."""
        filtered = [
            position
            for position, term in enumerate(terms)
            if isinstance(term, Constant) or term in bound_variables
        ]
        rows = 0.0
        for size, cardinalities in statistics:
            estimate = float(size)
            for position in filtered:
                distinct = cardinalities[position]
                if distinct > 1:
                    estimate /= distinct
            rows += estimate
        return rows, len(filtered)

    def estimate_rows(
        self, atom: Atom | UnionAtom, bound_variables: set[Term]
    ) -> float:
        """Expected matches of *atom* given the already-bound variables.

        Per predicate, ``size / ∏ distinct(position)`` over the positions
        carrying a constant or a bound variable; a position whose distinct
        count is zero or one filters nothing and contributes no factor.
        A union atom sums the estimates of its predicates.
        """
        return self._estimate(self._statistics(atom), atom.terms, bound_variables)[0]

    def plan_body(
        self, body: Sequence[Atom | UnionAtom], bound: Iterable[Term] = ()
    ) -> JoinPlan:
        """Greedy cost-ordered join plan for one CQ body.

        At each step the atom with the fewest estimated matches (under the
        bindings accumulated so far) is joined next; ties fall back to the
        structural heuristic the evaluator used before (more bound terms,
        smaller relation), then to the original body position, so the plan
        is a deterministic function of ``(body, bound, database state)``.

        *bound* names variables the search will already have values for
        when the join starts — a delta rule's seed (see
        :mod:`repro.incremental.maintain`).  They weigh exactly like
        constants, so a body planned with a seed bound orders like the same
        body with the seed's values substituted in.
        """
        atoms = list(body)
        if not atoms:
            return JoinPlan((), (), (), 0.0)
        remaining = list(range(len(atoms)))
        # Relation statistics are read once per atom, not once per step.
        statistics = [self._statistics(atom) for atom in atoms]
        sizes = [sum([size for size, _ in stats]) for stats in statistics]
        bound_variables: set[Term] = set(bound)
        order: list[Atom | UnionAtom] = []
        step_rows: list[float] = []
        cumulative: list[float] = []
        frontier = 1.0
        cost = 0.0
        while remaining:
            best_index = None
            best_key: tuple | None = None
            for index in remaining:
                rows, bound_count = self._estimate(
                    statistics[index], atoms[index].terms, bound_variables
                )
                key = (rows, -bound_count, sizes[index], index)
                if best_key is None or key < best_key:
                    best_key, best_index = key, index
            assert best_index is not None and best_key is not None
            remaining.remove(best_index)
            atom = atoms[best_index]
            rows = best_key[0]
            frontier *= rows
            cost += frontier
            order.append(atom)
            step_rows.append(rows)
            cumulative.append(frontier)
            bound_variables.update([t for t in atom.terms if isinstance(t, Variable)])
        return JoinPlan(tuple(order), tuple(step_rows), tuple(cumulative), cost)
