"""Dead-end CQs: rewriting candidates that can never reach the output.

Normalising a theory (Lemmas 1 and 2) introduces *internal* predicates
that no database stores facts for: every atom over such a predicate ``p``
in ``chase(D, Σ)`` is made by ``p``'s only rule.  When that rule invents
a null at position ``π = p[i]``, the null is fresh, and the chase can only
copy it along the edges of the dependency graph (Definition 3): it never
leaves the positions reachable from ``π``.  A CQ with an atom
``p(t1, ..., tn)`` therefore maps into no chase when ``ti`` is

* a constant or an answer variable (certain answers are constants, and
  ``π`` only ever holds nulls), or
* a variable that also occurs at a position not reachable from ``π``.

Such a **dead end** has no certain answers on any database.  Every CQ
that TGD-rewrite derives from it has none either (each step is sound,
Theorem 6), while an aux-free CQ has answers on its own canonical
database: so no member of the final rewriting derives from a dead end,
and the engine drops dead ends as soon as they are keyed
(:meth:`repro.core.rewriter.TGDRewriter.expand`).

The verdict is read off a candidate's flat encoding
(:class:`repro.logic.flat.FlatQuery`), so a dead end is never built,
reduced or checked against the negative constraints.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

from ..dependencies.tgd import TGD
from ..logic.atoms import Position, Predicate
from ..logic.flat import FlatQuery
from .dependency_graph import DependencyGraph

#: A predicate or position as the flat encoding names it: ``(name, arity)``
#: and ``((name, arity), 0-based index)``.
PredicateKey = tuple[str, int]
PositionKey = tuple[PredicateKey, int]


def null_reach(
    rules: Sequence[TGD], internal_predicates: Iterable[Predicate]
) -> dict[PredicateKey, tuple[int, frozenset[PositionKey]]]:
    """Where the null of each internal predicate's rule can travel.

    For every internal predicate defined by exactly one rule whose head
    invents a null, the 0-based index of the null's position ``π`` and
    the positions reachable from ``π`` in the dependency graph of
    *rules* (``π`` included).
    """
    defining: dict[Predicate, list[TGD]] = {}
    for rule in rules:
        for atom in rule.head:
            defining.setdefault(atom.predicate, []).append(rule)
    graph = DependencyGraph(rules)
    table: dict[PredicateKey, tuple[int, frozenset[PositionKey]]] = {}
    for predicate in internal_predicates:
        heading = defining.get(predicate, ())
        if len(heading) != 1:
            continue
        (rule,) = heading
        (head,) = rule.head
        existential = rule.existential_variables
        for index, term in enumerate(head.terms):
            if term not in existential:
                continue
            reachable = graph.reachable(Position(predicate, index + 1))
            table[(predicate.name, predicate.arity)] = (
                index,
                frozenset(
                    ((p.predicate.name, p.predicate.arity), p.index - 1)
                    for p in reachable
                ),
            )
            break
    return table


class DeadEndFilter:
    """Decides the dead-end verdict for the candidates of one engine.

    Built with the engine's normalised rules and the internal predicates
    its normalisation introduced; the :attr:`reach` table is computed on
    first use, so an engine that is never asked to rewrite pays nothing
    for it.
    """

    def __init__(
        self, rules: Sequence[TGD], internal_predicates: Iterable[Predicate]
    ) -> None:
        self._rules = tuple(rules)
        self._internal_predicates = frozenset(internal_predicates)

    @cached_property
    def reach(self) -> dict[PredicateKey, tuple[int, frozenset[PositionKey]]]:
        """:func:`null_reach` of the engine's rules, built once."""
        return null_reach(self._rules, self._internal_predicates)

    def is_dead_end(
        self,
        flat: FlatQuery,
        unions: Mapping[PredicateKey, Iterable[PredicateKey]] | None = None,
    ) -> bool | None:
        """``True`` if the encoded CQ is a dead end (see the module docstring).

        Sufficient, not necessary: a null that another internal
        predicate's rule copies in is not followed, so some CQs without
        certain answers pass.

        *unions* maps each collapsed predicate of an encoded union-CQ
        to the predicates of its closure
        (:attr:`repro.core.closures.RenamingClosures.key_members`).
        ``True`` then means every member is a dead end, ``False`` none,
        and ``None`` that only some are.  No internal predicate with an
        invented null has a closure (its one rule invents the null, so
        no renaming rule defines it), so only the other atoms holding
        the null are read through their closures.
        """
        reach = self.reach
        keys = flat.predicate_keys
        templates = flat.templates
        some = False
        for predicate_id, codes in templates:
            birth = reach.get(keys[predicate_id])
            if birth is None:
                continue
            index, reachable = birth
            code = codes[index]
            if code < 0 or code in flat.head_codes:
                return True
            for other_id, other_codes in templates:
                if code not in other_codes:
                    continue
                key = keys[other_id]
                members = unions.get(key) if unions is not None else None
                for position, other in enumerate(other_codes):
                    if other != code:
                        continue
                    if members is None:
                        if (key, position) not in reachable:
                            return True
                        continue
                    held = [(member, position) in reachable for member in members]
                    if not any(held):
                        return True
                    some = some or not all(held)
        return None if some else False
