"""Query elimination (Section 6): dropping TGD-implied atoms from a query.

Given a BCQ/CQ ``q`` and a set Σ of linear TGDs, an atom ``b`` of ``body(q)``
that is *covered* (Definition 5) by another atom ``a`` of the same body is
logically implied by ``a`` w.r.t. Σ (Lemma 8) and can therefore be dropped
without changing the answers of ``q`` on any instance satisfying Σ.  Dropping
atoms early — after every factorisation and rewriting step — prevents the
rewriting algorithm from ever expanding them, which is where the dramatic
reductions of Table 1 come from.

The elimination procedure follows the paper verbatim: walk the body atoms in
the order given by an *elimination strategy* (any permutation — Lemma 9 shows
the number of eliminated atoms does not depend on the order); an atom with a
non-empty cover set is eliminated and removed from the cover sets of the
remaining atoms (so two atoms that only cover each other are never both
dropped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..logic.atoms import Atom
from ..dependencies.tgd import TGD
from ..queries.conjunctive_query import ConjunctiveQuery
from .coverage import CoverageChecker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .closures import RenamingClosures


@dataclass(frozen=True)
class EliminationResult:
    """Outcome of query elimination on a single query."""

    original: ConjunctiveQuery
    reduced: ConjunctiveQuery
    eliminated: tuple[Atom, ...]
    strategy: tuple[Atom, ...]

    @property
    def removed_count(self) -> int:
        """Number of atoms dropped."""
        return len(self.eliminated)


class QueryEliminator:
    """Applies query elimination for a fixed set of linear TGDs."""

    def __init__(self, rules: Sequence[TGD], checker: CoverageChecker | None = None) -> None:
        self._checker = checker if checker is not None else CoverageChecker(list(rules))
        #: Elimination runs so far (calls of :meth:`eliminate_atoms`); a
        #: plain counter, exact unless expansions run on several threads.
        self.runs = 0

    @property
    def checker(self) -> CoverageChecker:
        """The underlying coverage checker (shared dependency graph)."""
        return self._checker

    def eliminate_atoms(
        self,
        query: ConjunctiveQuery,
        strategy: Sequence[Atom] | None = None,
    ) -> EliminationResult:
        """Compute ``eliminate(q, S, Σ)`` for the given strategy.

        When *strategy* is ``None`` the body order of the query is used; by
        Lemma 9 every strategy removes the same number of atoms.  When no
        atom is eliminated, the reduced query is *query* itself (with
        whatever it has cached, its canonical key included).
        """
        self.runs += 1
        order = tuple(strategy) if strategy is not None else tuple(query.body)
        # The body holds no duplicates, so equal length and equal sets make
        # a permutation; the set test alone would accept a repeated atom.
        if len(order) != len(query.body) or set(order) != query.body_set:
            raise ValueError("the elimination strategy must be a permutation of the body")
        cover = {
            atom: set(self._checker.cover_set(atom, query)) for atom in query.body
        }
        eliminated: list[Atom] = []
        for atom in order:
            if cover[atom]:
                eliminated.append(atom)
                for other in query.body:
                    if other not in eliminated:
                        cover[other].discard(atom)
        reduced = query.drop_atoms(eliminated) if eliminated else query
        return EliminationResult(
            original=query,
            reduced=reduced,
            eliminated=tuple(eliminated),
            strategy=order,
        )

    def union_eliminated(
        self, query: ConjunctiveQuery, unions: "RenamingClosures"
    ) -> tuple[Atom, ...] | None:
        """The atoms elimination drops from every member of a union-CQ alike.

        The cover relation is decided over the union atoms
        (:meth:`CoverageChecker.union_covers`).  ``None`` when some
        member would drop other atoms than another, or when which atoms
        go depends on the strategy: an atom whose every coverer is
        itself covered.  Otherwise every strategy drops exactly the atoms
        with a non-empty cover set, in every member.  *query* must be
        distinct (:meth:`repro.core.closures.RenamingClosures.distinct`).
        """
        self.runs += 1
        checker = self._checker
        body = query.body
        cover: dict[Atom, list[Atom]] = {}
        for target in body:
            covering = []
            for source in body:
                if source is target:
                    continue
                verdict = checker.union_covers(source, target, query, unions)
                if verdict is None:
                    return None
                if verdict:
                    covering.append(source)
            cover[target] = covering
        eliminated = tuple(atom for atom in body if cover[atom])
        for atom in eliminated:
            if all(cover[source] for source in cover[atom]):
                return None
        return eliminated

    def eliminate(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        """The reduced query ``eliminate(q, Σ)`` (default strategy)."""
        return self.eliminate_atoms(query).reduced


def eliminate(query: ConjunctiveQuery, rules: Sequence[TGD]) -> ConjunctiveQuery:
    """One-shot convenience wrapper around :class:`QueryEliminator`."""
    return QueryEliminator(rules).eliminate(query)
