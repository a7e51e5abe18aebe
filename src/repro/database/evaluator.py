"""Evaluation of CQs and UCQs over relational instances.

This is the "database side" of OBDA: once a query has been compiled into a
UCQ rewriting, the rewriting is a plain relational query and can be executed
directly on the database, with no further reasoning.  The evaluator performs
an index nested-loop join driven by a cost-aware greedy join ordering
(fewest estimated rows first, see :mod:`repro.database.planning`), using
the per-(position, value) indexes of
:class:`repro.database.instance.RelationalInstance`.

Answers follow the paper's semantics: the answer to a CQ of arity *n* over an
instance is the set of *n*-tuples of **constants** for which a homomorphism
from the body into the instance exists (labelled nulls may witness
existential variables but never appear in answers); a BCQ answers positively
iff the empty tuple is an answer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..logic.atoms import Atom
from ..logic.terms import Term, is_constant, is_variable
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from .instance import RelationalInstance
from .planning import CardinalityEstimator


class QueryEvaluator:
    """Evaluates conjunctive queries and unions thereof over an instance."""

    def __init__(self, instance: RelationalInstance) -> None:
        self._instance = instance

    # -- public API ----------------------------------------------------------------

    def evaluate(self, query: ConjunctiveQuery) -> frozenset[tuple[Term, ...]]:
        """All answers (tuples of constants) of *query* over the instance."""
        return self.answers_for_order(self.join_order(query.body), query.answer_terms)

    def answers_for_order(
        self,
        ordered_body: Sequence[Atom],
        answer_terms: Sequence[Term],
        seed: Mapping[Term, Term] | None = None,
    ) -> frozenset[tuple[Term, ...]]:
        """Answers of a CQ whose join order has already been fixed.

        This is the execution half of :meth:`evaluate`, split out so a
        prepared plan (:class:`repro.backends.memory.InMemoryBackend`) can
        compute the join order once and replay it across executions.  The
        search starts from *seed*, a binding of some variables to values
        (a delta rule's unifier, see :mod:`repro.incremental.maintain`);
        answer terms read their values from it like from any binding.
        """
        answers: set[tuple[Term, ...]] = set()
        for binding in self._search(ordered_body, 0, seed or {}):
            answer = tuple(
                binding.get(term, term) if is_variable(term) else term
                for term in answer_terms
            )
            if all(is_constant(value) for value in answer):
                answers.add(answer)
        return frozenset(answers)

    def satisfiable(
        self, ordered_body: Sequence[Atom], seed: Mapping[Term, Term] | None = None
    ) -> bool:
        """``True`` iff some binding extending *seed* satisfies the ordered body.

        Stops at the first binding found: the existence check of the
        maintainer's rederive step (:func:`repro.incremental.maintain.
        derives`).
        """
        return next(self._search(ordered_body, 0, seed or {}), None) is not None

    def evaluate_ucq(
        self, ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery]
    ) -> frozenset[tuple[Term, ...]]:
        """Union of the answers of all member CQs."""
        answers: set[tuple[Term, ...]] = set()
        for query in ucq:
            answers |= self.evaluate(query)
        return frozenset(answers)

    def entails(self, query: ConjunctiveQuery) -> bool:
        """``True`` iff the (Boolean or non-Boolean) query has at least one answer.

        For a BCQ this is the ``I |= q`` check of the paper; for a CQ with
        answer variables it checks non-emptiness of the answer set.
        """
        for binding in self._bindings(query):
            answer = tuple(
                binding.get(term, term) if is_variable(term) else term
                for term in query.answer_terms
            )
            if all(is_constant(value) for value in answer):
                return True
        return False

    def entails_ucq(
        self, ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery]
    ) -> bool:
        """``True`` iff some member CQ has an answer."""
        return any(self.entails(query) for query in ucq)

    # -- join machinery ----------------------------------------------------------------

    def _bindings(self, query: ConjunctiveQuery) -> Iterator[dict[Term, Term]]:
        """Enumerate variable bindings satisfying the query body."""
        atoms = self.join_order(query.body)
        yield from self._search(atoms, 0, {})

    def join_order(self, body: Sequence[Atom]) -> list[Atom]:
        """Cost-aware greedy join ordering (fewest estimated rows first).

        Delegates to :meth:`repro.database.planning.CardinalityEstimator.
        plan_body`, which estimates each candidate's output from the
        instance's relation sizes and per-position distinct counts; the
        previous structural heuristic (bound terms, relation size)
        survives as the tie-break.  The order affects evaluation cost
        only, never the answer set.
        """
        return list(CardinalityEstimator(self._instance).plan_body(body).order)

    def _search(
        self, atoms: Sequence[Atom], index: int, binding: Mapping[Term, Term]
    ) -> Iterator[dict[Term, Term]]:
        if index == len(atoms):
            yield dict(binding)
            return
        atom = atoms[index]
        bound_positions: dict[int, Term] = {}
        for position, term in enumerate(atom.terms, start=1):
            if is_constant(term):
                bound_positions[position] = term
            elif term in binding:
                bound_positions[position] = binding[term]
        for fact in self._instance.matching(atom.predicate, bound_positions):
            extended = dict(binding)
            consistent = True
            for position, term in enumerate(atom.terms, start=1):
                value = fact[position]
                if is_constant(term):
                    if term != value:
                        consistent = False
                        break
                    continue
                bound = extended.get(term)
                if bound is None:
                    extended[term] = value
                elif bound != value:
                    consistent = False
                    break
            if consistent:
                yield from self._search(atoms, index + 1, extended)


def evaluate(
    query: ConjunctiveQuery, instance: RelationalInstance
) -> frozenset[tuple[Term, ...]]:
    """Evaluate a single CQ over *instance*."""
    return QueryEvaluator(instance).evaluate(query)


def evaluate_ucq(
    ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery],
    instance: RelationalInstance,
) -> frozenset[tuple[Term, ...]]:
    """Evaluate a UCQ over *instance*."""
    return QueryEvaluator(instance).evaluate_ucq(ucq)
