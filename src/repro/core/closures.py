"""Renaming closures: a predicate hierarchy rewritten once, not once per subclass.

A *renaming rule* ``P(X1, ..., Xn) → Q(X1, ..., Xn)`` has one body atom
and one head atom over the same tuple of distinct variables, no
existential variable, and a body predicate that is not internal to the
normalisation.  Resolving an atom ``Q(t̄)`` against it only changes the
atom's predicate, so TGD-rewrite walks a hierarchy one subclass at a time:
a query over ``Location`` and ``Event`` reaches each of its ``|Location↓| ·
|Event↓|`` members through its own chain of renaming steps.

The *closure* of ``Q`` is ``Q`` and every predicate that renaming rules
lead to ``Q``: root first, then level by level, each predicate's direct
subclasses in rule order, so it never depends on hashing.  The kernel
(:meth:`repro.core.rewriter.TGDRewriter.expand`) stores and expands
*union-CQs*: a *collapsed* atom stands for the union of its root
predicate's closure, and a union-CQ stands for its *members*, the CQs
that pick one predicate of each collapsed atom's closure.  A collapsed
atom is an ordinary :class:`~repro.logic.atoms.Atom` over a marked
predicate (``⊔Q``, see :data:`UNION_MARK`), so keys, interning and
checkpoints treat a union-CQ like any other CQ, and a collapsed atom is
keyed apart from a concrete atom over the same predicate.  A predicate
without renaming subclasses is never marked: it is a one-predicate union,
and a run whose closures are all trivial is the per-CQ kernel.

The final rewriting is the unfolding (:meth:`RenamingClosures.unfold`)
of the union-CQs the run keeps.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence

from ..dependencies.tgd import TGD
from ..logic.atoms import Atom, Predicate
from ..logic.flat import FlatQuery
from ..logic.terms import is_variable
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import QuerySet

#: Prefix of a collapsed atom's predicate name: ``⊔Location/1`` ranges
#: over the closure of ``Location/1``.
UNION_MARK = "⊔"

#: A predicate as the flat encoding names it.
PredicateKey = tuple[str, int]


def is_renaming(rule: TGD, internal_predicates: frozenset[Predicate]) -> bool:
    """``True`` iff *rule* is a renaming rule (see the module docstring)."""
    if len(rule.body) != 1 or len(rule.head) != 1 or rule.existential_variables:
        return False
    (body,), (head,) = rule.body, rule.head
    if body.predicate in internal_predicates or body.terms != head.terms:
        return False
    return all(is_variable(term) for term in body.terms) and len(
        set(body.terms)
    ) == len(body.terms)


class RenamingClosures:
    """The renaming closures of one engine's rules, built on first use.

    :attr:`table` maps each predicate with a renaming subclass to its
    closure.  Tests replace it by ``{}`` (every predicate a one-predicate
    union) to run the per-CQ reference kernel.
    """

    def __init__(
        self, rules: Sequence[TGD], internal_predicates: Iterable[Predicate] = ()
    ) -> None:
        self._rules = tuple(rules)
        self._internal = frozenset(internal_predicates)

    @cached_property
    def _renaming(self) -> tuple[TGD, ...]:
        """The renaming rules, in rule order."""
        return tuple(rule for rule in self._rules if is_renaming(rule, self._internal))

    @cached_property
    def table(self) -> dict[Predicate, tuple[Predicate, ...]]:
        """Each predicate with a renaming subclass, mapped to its closure."""
        below: dict[Predicate, list[Predicate]] = {}
        for rule in self._renaming:
            below.setdefault(rule.head[0].predicate, []).append(rule.body[0].predicate)
        table: dict[Predicate, tuple[Predicate, ...]] = {}
        for root in below:
            closure = [root]
            seen = {root}
            for predicate in closure:
                for subclass in below.get(predicate, ()):
                    if subclass not in seen:
                        seen.add(subclass)
                        closure.append(subclass)
            if len(closure) > 1:
                table[root] = tuple(closure)
        return table

    @cached_property
    def _marked(self) -> dict[Predicate, Predicate]:
        """Root predicate → its marked (collapsed) predicate."""
        return {
            root: Predicate(UNION_MARK + root.name, root.arity) for root in self.table
        }

    @cached_property
    def _members(self) -> dict[Predicate, tuple[Predicate, ...]]:
        """Marked predicate → the closure it ranges over."""
        return {self._marked[root]: closure for root, closure in self.table.items()}

    @cached_property
    def _member_sets(self) -> dict[Predicate, frozenset[Predicate]]:
        return {marked: frozenset(closure) for marked, closure in self._members.items()}

    @cached_property
    def key_members(self) -> dict[PredicateKey, frozenset[PredicateKey]]:
        """The closures as the flat encoding names predicates."""
        return {
            (marked.name, marked.arity): frozenset(
                (member.name, member.arity) for member in closure
            )
            for marked, closure in self._members.items()
        }

    @cached_property
    def renaming_rules(self) -> frozenset[int]:
        """``id`` of each rule whose single-atom steps stay inside a union.

        A renaming rule whose head has a closure: resolving one collapsed
        atom against it yields another member of the same union-CQ.
        """
        return frozenset(
            id(rule) for rule in self._renaming if rule.head[0].predicate in self.table
        )

    @cached_property
    def _cyclic(self) -> frozenset[Predicate]:
        """Roots that a renaming rule leads back to from their own closure."""
        table = self.table
        return frozenset(
            rule.body[0].predicate
            for rule in self._renaming
            if rule.head[0].predicate in table.get(rule.body[0].predicate, ())
        )

    # -- predicates ----------------------------------------------------------

    def collapse(self, predicate: Predicate) -> Predicate:
        """The collapsed predicate of *predicate*, or itself if its closure is trivial."""
        return self._marked.get(predicate, predicate)

    def members(self, predicate: Predicate) -> tuple[Predicate, ...]:
        """The predicates *predicate* ranges over (root first)."""
        return self._members.get(predicate, (predicate,))

    def root(self, predicate: Predicate) -> Predicate:
        """The root of a collapsed predicate, or *predicate* itself."""
        return self.members(predicate)[0]

    def is_collapsed(self, predicate: Predicate) -> bool:
        """``True`` iff *predicate* is a marked (collapsed) predicate."""
        return predicate in self._members

    def holds(self, predicate: Predicate, member: Predicate) -> bool:
        """``True`` iff an atom over *predicate* can be an atom over *member*."""
        if predicate == member:
            return True
        members = self._member_sets.get(predicate)
        return members is not None and member in members

    # -- atoms and queries ---------------------------------------------------

    def collapse_atoms(self, atoms: Sequence[Atom]) -> tuple[Atom, ...]:
        """*atoms* with every predicate that has a closure collapsed."""
        marked = self._marked
        return tuple(
            Atom(marked[atom.predicate], atom.terms) if atom.predicate in marked else atom
            for atom in atoms
        )

    def collapse_query(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        """*query* with every atom collapsed (the query itself if none has a closure)."""
        body = self.collapse_atoms(query.body)
        if body == query.body:
            return query
        return ConjunctiveQuery(body, query.answer_terms, query.head_name)

    @staticmethod
    def retarget(atoms: Sequence[Atom], predicate: Predicate) -> list[Atom]:
        """*atoms* over *predicate*: the member a step resolves them as."""
        return [
            atom if atom.predicate == predicate else Atom(predicate, atom.terms)
            for atom in atoms
        ]

    def has_collapsed(self, flat: FlatQuery) -> bool:
        """``True`` iff the encoded query has a collapsed atom."""
        key_members = self.key_members
        return any(key in key_members for key in flat.predicate_keys)

    def distinct(self, flat: FlatQuery, atoms: int) -> bool:
        """``True`` iff every member keeps every atom of the encoded union-CQ.

        Two atoms over the same terms whose unions share a predicate are
        one atom in the members that pick it and two in the others, with
        different shared variables: such a union-CQ is not uniform.  So
        is one that a unifier gave fewer than the *atoms* atoms it
        derived from, as the encoding keeps coinciding atoms once.
        """
        if len(flat.templates) != atoms:
            return False
        key_members = self.key_members
        keys = flat.predicate_keys
        by_terms: dict[tuple[int, ...], list[PredicateKey]] = {}
        for pid, codes in flat.templates:
            by_terms.setdefault(codes, []).append(keys[pid])
        for group in by_terms.values():
            if len(group) < 2 or not any(key in key_members for key in group):
                continue
            seen: set[PredicateKey] = set()
            for key in group:
                members = key_members.get(key, (key,))
                if not seen.isdisjoint(members):
                    return False
                seen.update(members)
        return True

    def unfold(
        self, query: ConjunctiveQuery, skip_root: bool = False
    ) -> Iterator[ConjunctiveQuery]:
        """The members of a union-CQ, in closure order (the last atom fastest).

        *skip_root* leaves out the member that picks every collapsed
        atom's root: the one member a factorisation step makes with label
        0 (its other members are reached by renaming steps), unless a
        renaming cycle leads back to a root.
        """
        options = [self.members(atom.predicate) for atom in query.body]
        if all(len(choice) == 1 for choice in options):
            if not skip_root:
                yield query
            return
        if skip_root and any(
            len(choice) > 1 and choice[0] in self._cyclic for choice in options
        ):
            skip_root = False
        roots = tuple(choice[0] for choice in options)
        for predicates in product(*options):
            if skip_root and predicates == roots:
                continue
            yield ConjunctiveQuery(
                [
                    Atom(predicate, atom.terms)
                    for predicate, atom in zip(predicates, query.body)
                ],
                query.answer_terms,
                query.head_name,
            )


def distinct_members(queries: Sequence[ConjunctiveQuery]) -> list[ConjunctiveQuery]:
    """*queries* without any that is a variant of an earlier one.

    Two variants have the same atoms once each term is read as the first
    answer position it fills, as itself if it is a constant, and as the
    number of its occurrences otherwise; only queries that share these
    atoms with another one are interned by canonical key
    (:class:`~repro.queries.ucq.QuerySet`), so most members of an
    unfolding are never keyed.
    """

    def signature(query: ConjunctiveQuery) -> tuple:
        labels: dict = {}
        for position, term in enumerate(query.answer_terms):
            labels.setdefault(term, f"a{position}")
        occurrences = Counter(term for atom in query.body for term in atom.terms)
        for term, count in occurrences.items():
            if term not in labels:
                labels[term] = f"v{count}" if is_variable(term) else repr(term)
        return tuple(
            sorted(
                (atom.predicate.name, tuple([labels[term] for term in atom.terms]))
                for atom in query.body
            )
        )

    signatures = [signature(query) for query in queries]
    counts = Counter(signatures)
    stores: dict[tuple, QuerySet] = {}
    kept = []
    for query, key in zip(queries, signatures):
        if counts[key] > 1:
            store = stores.get(key)
            if store is None:
                store = stores[key] = QuerySet()
            if not store.add(query):
                continue
        kept.append(query)
    return kept
