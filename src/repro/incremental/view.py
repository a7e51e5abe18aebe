"""A read-only overlay view used by the deletion half of maintenance.

DRed-style deletion must over-approximate the answers lost to a batch of
removed facts by evaluating pinned disjuncts over the *pre-deletion* state
— the current database plus the facts that just disappeared.  Materialising
that state would copy the instance; instead :class:`OverlayInstance`
presents ``base ∪ extra`` through exactly what the maintainer's seeded
search consumes (:meth:`probe` and a membership test), delegating to the
live instance's indexes and scanning the (small) overlay linearly.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Collection, Iterable, Sequence

from ..logic.atoms import Atom, Predicate
from ..logic.terms import Term


class OverlayInstance:
    """``base ∪ extra`` exposed through the :class:`QueryEvaluator` protocol.

    :meth:`probe` and ``in`` are what the maintainer uses: the evaluator's
    search probes indexes, and
    :func:`repro.incremental.maintain.pinned_answers` checks that the
    pinned fact is in the view.  There are no planner statistics: delta
    rules are planned against the base instance, which differs from the
    overlay only by one poll's removed facts.  The overlay is expected to
    be small (a net deletion batch), so filtering it is a linear scan per
    probe.
    """

    def __init__(self, base, extra: Iterable[Atom]) -> None:
        self._base = base
        self._extra: dict[Predicate, tuple[Atom, ...]] = {}
        grouped: dict[Predicate, list[Atom]] = defaultdict(list)
        for fact in extra:
            grouped[fact.predicate].append(fact)
        self._extra = {predicate: tuple(facts) for predicate, facts in grouped.items()}

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._base or fact in self._extra.get(fact.predicate, ())

    def probe(
        self, predicate: Predicate, bound: Sequence[tuple[int, Term]]
    ) -> Iterable[Atom]:
        """:meth:`RelationalInstance.probe` over the overlaid view.

        The base's bucket, then the extra facts agreeing with every bound
        (0-based) position, so a single bound position is exact here too.
        """
        result: Collection[Atom] = self._base.probe(predicate, bound)
        extra = self._extra.get(predicate)
        if not extra:
            return result
        matched = [
            fact
            for fact in extra
            if all(fact.terms[position] == value for position, value in bound)
        ]
        return chain(result, matched) if matched else result

    def relation(self, predicate: Predicate) -> frozenset[Atom]:
        """All atoms of *predicate* in the overlaid view."""
        extra = self._extra.get(predicate)
        base = self._base.relation(predicate)
        if not extra:
            return base
        return base | frozenset(extra)

    def matching(self, predicate: Predicate, bound: dict[int, Term]) -> frozenset[Atom]:
        """Atoms of *predicate* agreeing with the bound (1-based) positions."""
        result = self._base.matching(predicate, bound)
        extra = self._extra.get(predicate)
        if not extra:
            return result
        matched = [
            fact
            for fact in extra
            if all(fact[position] == value for position, value in bound.items())
        ]
        if not matched:
            return result
        return result | frozenset(matched)
