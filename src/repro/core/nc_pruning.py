"""Pruning the rewriting with negative constraints (Section 5.1).

Under the standing assumption that the theory ``D ∪ Σ ∪ Σ⊥`` is consistent,
any CQ generated during the rewriting whose body embeds the body of a
negative constraint can never be entailed by ``chase(D, Σ)`` — evaluating it
would witness a violation of the constraint.  Such queries (and everything
that would be generated from them) can therefore be dropped from the
rewriting without affecting completeness, further shrinking the output.

If the *input* query itself embeds a constraint body, the rewriting is the
empty UCQ: the query is unsatisfiable w.r.t. every consistent database.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterable, Sequence

from ..logic.atoms import Atom
from ..logic.homomorphism import has_homomorphism
from ..dependencies.constraints import NegativeConstraint
from ..queries.conjunctive_query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .closures import RenamingClosures


class NegativeConstraintPruner:
    """Checks queries against a set of negative constraints."""

    def __init__(self, constraints: Iterable[NegativeConstraint]) -> None:
        self._constraints = tuple(constraints)

    @property
    def constraints(self) -> tuple[NegativeConstraint, ...]:
        """The negative constraints used for pruning."""
        return self._constraints

    def violated_by(self, query: ConjunctiveQuery) -> NegativeConstraint | None:
        """Return a constraint whose body maps into ``body(query)``, if any.

        The query's terms are frozen (its variables act as constants of the
        canonical database), so the check is exactly "does the BCQ of the
        constraint answer positively on the canonical database of the query".
        """
        frozen_body, _ = query.freeze()
        for constraint in self._constraints:
            if has_homomorphism(constraint.body, frozen_body):
                return constraint
        return None

    def is_unsatisfiable(self, query: ConjunctiveQuery) -> bool:
        """``True`` iff the query can be pruned (it embeds some constraint body)."""
        return self.violated_by(query) is not None

    def union_verdict(
        self, query: ConjunctiveQuery, unions: "RenamingClosures"
    ) -> bool | None:
        """Whether every member of a union-CQ can be pruned, none, or only some.

        A member embeds a constraint body exactly when its atoms over the
        constraints' predicates do, so the members are tried by which of
        those predicates each collapsed atom picks, if any: ``True`` when
        every choice embeds some body, ``False`` when none does, ``None``
        otherwise.  There are never more choices than members, and ``None``
        makes the kernel build every member, so the choices are not capped.
        A collapsed atom read as every predicate of its closure at once
        rejects most union-CQs before any choice is tried.
        """
        frozen_body, _ = query.freeze()
        members = unions.members
        expanded = [
            Atom(member, atom.terms)
            for atom in frozen_body
            for member in members(atom.predicate)
        ]
        offered = {atom.predicate for atom in expanded}
        relevant = [
            constraint
            for constraint in self._constraints
            if all(atom.predicate in offered for atom in constraint.body)
            and has_homomorphism(constraint.body, expanded)
        ]
        if not relevant:
            return False
        predicates = {atom.predicate for c in relevant for atom in c.body}
        certain: list[Atom] = []
        choices: list[list[Atom | None]] = []
        for atom in frozen_body:
            if not unions.is_collapsed(atom.predicate):
                certain.append(atom)
                continue
            closure = members(atom.predicate)
            options: list[Atom | None] = [
                Atom(member, atom.terms) for member in closure if member in predicates
            ]
            if len(options) < len(closure):
                options.append(None)
            choices.append(options)
        verdict = None
        for picked in product(*choices):
            target = certain + [atom for atom in picked if atom is not None]
            embeds = any(has_homomorphism(c.body, target) for c in relevant)
            if verdict is None:
                verdict = embeds
            elif verdict != embeds:
                return None
        return verdict


def prune_unsatisfiable(
    queries: Sequence[ConjunctiveQuery],
    constraints: Iterable[NegativeConstraint],
) -> list[ConjunctiveQuery]:
    """Filter out the queries that embed the body of some negative constraint."""
    pruner = NegativeConstraintPruner(constraints)
    return [query for query in queries if not pruner.is_unsatisfiable(query)]
