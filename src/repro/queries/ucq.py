"""Unions of conjunctive queries (UCQs).

A UCQ of arity ``n`` is a set of CQs of the same arity sharing the same head
predicate (Section 3.1).  The perfect rewriting produced by ``TGD-rewrite``
is a UCQ; this module also provides the canonical-key interning store (the
"no variant twice" container used by the rewriting algorithms),
subsumption-based redundancy removal used to compare rewritings, and the
factoring of a UCQ into joins over predicate unions (:func:`factor`) that
the in-memory backend executes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from ..logic.atoms import Predicate, atoms_predicates
from ..logic.canonical import CanonicalKey
from ..logic.terms import Term, Variable
from .conjunctive_query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .containment import SubsumptionStatistics


class UnionOfConjunctiveQueries:
    """An immutable union of CQs of equal arity."""

    __slots__ = ("_queries", "_arity", "_factored")

    def __init__(self, queries: Iterable[ConjunctiveQuery]) -> None:
        queries = list(queries)
        arities = {q.arity for q in queries}
        if len(arities) > 1:
            raise ValueError(f"queries in a UCQ must share the same arity, got {arities}")
        self._queries: tuple[ConjunctiveQuery, ...] = tuple(queries)
        self._arity = arities.pop() if arities else 0
        self._factored: tuple[FactoredJoin, ...] | None = None

    @property
    def arity(self) -> int:
        """The common arity of the member CQs."""
        return self._arity

    @property
    def queries(self) -> tuple[ConjunctiveQuery, ...]:
        """The member CQs in insertion order."""
        return self._queries

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    def __getitem__(self, index: int) -> ConjunctiveQuery:
        return self._queries[index]

    def __repr__(self) -> str:
        return "\n".join(repr(q) for q in self._queries) or "<empty UCQ>"

    def factored(self) -> tuple["FactoredJoin", ...]:
        """The members as joins over predicate unions (:func:`factor`).

        Factored on the first call and cached, so every holder of this
        UCQ (each tenant sharing a compiled rewriting) shares one result.
        """
        if self._factored is None:
            self._factored = factor(self._queries)
        return self._factored

    # -- set-like helpers ----------------------------------------------------

    def contains_variant(self, query: ConjunctiveQuery) -> bool:
        """``True`` iff some member is a variant of *query*."""
        return any(member.is_variant_of(query) for member in self._queries)

    def deduplicate(self) -> "UnionOfConjunctiveQueries":
        """Return a UCQ in which no two members are variants of each other."""
        store = QuerySet()
        for query in self._queries:
            store.add(query)
        return UnionOfConjunctiveQueries(store)

    def remove_subsumed(
        self, statistics: "SubsumptionStatistics | None" = None
    ) -> "UnionOfConjunctiveQueries":
        """Drop members that are subsumed (contained) by another member.

        A CQ ``p`` is redundant in a UCQ if some other member ``p'`` satisfies
        ``p ⊑ p'``: every answer of ``p`` is already an answer of ``p'`` on
        every database.  Removing subsumed members never changes the answers
        of the UCQ.

        Candidate subsumers are drawn from predicate-signature buckets: a
        containment mapping from ``p'`` into ``p`` sends every body atom of
        ``p'`` onto an atom of ``p`` with the same predicate, so only members
        whose predicate set is a subset of ``p``'s can subsume it.  Each
        member is frozen and indexed **once** (a
        :class:`~repro.queries.containment.ContainmentIndex`), every
        candidate pair passes the argument-signature and answer-anchoring
        pre-filters before a backtracking search is allowed to start, and
        the search itself probes the index by hash.  The survivor set is
        identical to :meth:`remove_subsumed_naive` — the pre-filters are
        necessary conditions — but most pairs never reach a search
        (*statistics*, when given, records the split).
        """
        from .containment import ContainmentIndex, is_contained_in

        members = list(self.deduplicate())
        indexes = [ContainmentIndex(query) for query in members]
        groups: dict[frozenset, list[int]] = {}
        for index, containment_index in enumerate(indexes):
            groups.setdefault(containment_index.predicate_set, []).append(index)

        survivors: list[ConjunctiveQuery] = []
        for index, query in enumerate(members):
            subsumed = False
            for group_predicates, group_indices in groups.items():
                if not group_predicates <= indexes[index].predicate_set:
                    continue
                for other_index in group_indices:
                    if index == other_index:
                        continue
                    other = members[other_index]
                    if is_contained_in(
                        query, other, index=indexes[index], statistics=statistics
                    ):
                        # Break ties between equivalent queries by keeping the
                        # earliest one only.
                        if (
                            is_contained_in(
                                other,
                                query,
                                index=indexes[other_index],
                                statistics=statistics,
                            )
                            and other_index > index
                        ):
                            continue
                        subsumed = True
                        break
                if subsumed:
                    break
            if not subsumed:
                survivors.append(query)
        return UnionOfConjunctiveQueries(survivors)

    def remove_subsumed_naive(
        self, statistics: "SubsumptionStatistics | None" = None
    ) -> "UnionOfConjunctiveQueries":
        """The pre-index subsumption removal (differential-testing oracle).

        Same predicate-set bucketing as :meth:`remove_subsumed` but every
        surviving candidate pair goes straight to a fresh freeze + full
        backtracking homomorphism search — no shared index, no
        argument-signature pre-filter, no canonical fast path.  Kept so
        property tests (and the regression counter test) can assert that
        the indexed path returns the same survivors while running
        measurably fewer searches.
        """
        from .containment import is_contained_in

        members = list(self.deduplicate())
        predicate_sets = [atoms_predicates(query.body) for query in members]
        groups: dict[frozenset, list[int]] = {}
        for index, predicates in enumerate(predicate_sets):
            groups.setdefault(predicates, []).append(index)

        survivors: list[ConjunctiveQuery] = []
        for index, query in enumerate(members):
            subsumed = False
            for group_predicates, group_indices in groups.items():
                if not group_predicates <= predicate_sets[index]:
                    continue
                for other_index in group_indices:
                    if index == other_index:
                        continue
                    other = members[other_index]
                    if is_contained_in(
                        query, other, statistics=statistics, prefilter=False
                    ):
                        if (
                            is_contained_in(
                                other, query, statistics=statistics, prefilter=False
                            )
                            and other_index > index
                        ):
                            continue
                        subsumed = True
                        break
                if subsumed:
                    break
            if not subsumed:
                survivors.append(query)
        return UnionOfConjunctiveQueries(survivors)


class UnionAtom(NamedTuple):
    """An atom whose predicate ranges over a union of predicates.

    It holds of ``terms`` wherever one of ``predicates`` does.  The
    predicates share the arity ``len(terms)`` and are listed in the order
    they joined the union.
    """

    predicates: tuple[Predicate, ...]
    terms: tuple[Term, ...]

    @property
    def name(self) -> str:
        """``p`` for a single predicate, ``{p|r}`` for a union."""
        names = "|".join(predicate.name for predicate in self.predicates)
        return names if len(self.predicates) == 1 else "{" + names + "}"

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(str(term) for term in self.terms)})"


class FactoredJoin(NamedTuple):
    """One join of a factored UCQ: a body of union atoms and its members.

    Its answers are the union of the answers of the member disjuncts:
    expanding every union atom into each of its predicates gives back
    exactly the members, up to variable renaming.
    """

    body: tuple[UnionAtom, ...]
    answer_terms: tuple[Term, ...]
    #: Indexes of the UCQ members this join evaluates, ascending.
    members: tuple[int, ...]


def _term_key(term: Term) -> tuple:
    """A non-variable term compared by type and value.

    ``Constant(1)``, ``Constant(True)`` and ``Constant(1.0)`` are equal
    as values but get three keys, so they never merge.
    """
    value = getattr(term, "value", term)
    return (type(term), type(value), value)


def _masked_keys(
    body: Sequence[tuple[tuple[Predicate, ...], tuple[Term, ...]]],
    answer_terms: Sequence[Term],
) -> list[tuple]:
    """One key per body atom: the disjunct with that atom's predicates masked.

    A key holds the whole structure with the variables renamed to
    numbers: the masked atom's terms, every other atom's predicate set
    and terms, and the answer terms.  Two disjuncts with equal keys are
    therefore equal up to variable renaming except for the masked atom's
    predicates, whatever the numbering.  The numbering only decides how
    much is found equal: answer variables first, then the masked atom,
    then the other atoms sorted by predicate set and by where the answer
    variables occur, so that the body order of the disjunct rarely
    matters.
    """
    anchor: dict[Term, int] = {}
    head = tuple(
        [
            anchor.setdefault(term, len(anchor))
            if isinstance(term, Variable)
            else _term_key(term)
            for term in answer_terms
        ]
    )
    names = [
        tuple(sorted([(predicate.name, predicate.arity) for predicate in predicates]))
        for predicates, _ in body
    ]

    def sort_key(j: int) -> tuple:
        pattern = tuple(
            [
                (anchor.get(term, -1),)
                if isinstance(term, Variable)
                else (-2, type(term).__qualname__, repr(term))
                for term in body[j][1]
            ]
        )
        return (names[j], pattern, j)

    order = sorted(range(len(body)), key=sort_key)
    keys = []
    for masked in range(len(body)):
        numbering = dict(anchor)
        parts = []
        for j in (masked, *order):
            if j == masked and parts:
                continue
            # The masked atom is its terms alone, every other atom is its
            # predicate set and its terms.
            atom_key = [] if j == masked else [names[j]]
            for term in body[j][1]:
                if isinstance(term, Variable):
                    atom_key.append(numbering.setdefault(term, len(numbering)))
                else:
                    atom_key.append(_term_key(term))
            parts.append(tuple(atom_key))
        parts.append(head)
        keys.append(tuple(parts))
    return keys


def factor(queries: Sequence[ConjunctiveQuery]) -> tuple[FactoredJoin, ...]:
    """Factor a union of CQs into joins over predicate unions.

    Join distributes over union, so two disjuncts that are equal up to
    variable renaming except for the predicate of one atom are one join
    whose atom ranges over both predicates.  Merging repeats until no
    two joins merge: a join differing from another only in one atom's
    predicate set merges too, which turns a cross product of hierarchies
    (``X(A), r(A, B), Y(B)`` for every ``X`` and ``Y``) into one join.

    Merges are exact (see :func:`_masked_keys`).  Disjuncts are taken in
    order and each absorbs into the first join it matches, predicates
    are kept in first-appearance order, and the joins come out in the
    order of their first member, so the result never depends on hashing.
    """
    bodies = [
        [(atom.predicates, atom.terms) for atom in query.body] for query in queries
    ]
    members = [[index] for index in range(len(queries))]
    alive = [True] * len(queries)
    registered: list[list[tuple]] = [[] for _ in queries]
    table: dict[tuple, tuple[int, int]] = {}
    queue = deque(range(len(queries)))
    queued = [True] * len(queries)

    def unregister(item: int, keep: int | None = None) -> None:
        for position, key in enumerate(registered[item]):
            if position != keep and table.get(key) == (item, position):
                del table[key]

    while queue:
        item = queue.popleft()
        queued[item] = False
        keys = _masked_keys(bodies[item], queries[item].answer_terms)
        hit = None
        for position, key in enumerate(keys):
            found = table.get(key)
            if found is not None and found[0] != item:
                hit = found
                break
        if hit is None:
            registered[item] = keys
            for position, key in enumerate(keys):
                table.setdefault(key, (item, position))
            continue
        host, at = hit
        predicates, terms = bodies[host][at]
        union = tuple(dict.fromkeys(predicates + bodies[item][position][0]))
        bodies[host][at] = (union, terms)
        members[host] += members[item]
        alive[item] = False
        unregister(item)
        # Every key of the host but the masked one names its old union.
        unregister(host, keep=at)
        if not queued[host]:
            queued[host] = True
            queue.append(host)
    joins = [
        FactoredJoin(
            tuple(UnionAtom(predicates, terms) for predicates, terms in bodies[item]),
            queries[item].answer_terms,
            tuple(sorted(members[item])),
        )
        for item in range(len(queries))
        if alive[item]
    ]
    joins.sort(key=lambda join: join.members[0])
    return tuple(joins)


@dataclass
class InterningStatistics:
    """Counters describing the behaviour of a :class:`QuerySet`.

    ``exact_hits`` counts hits proven by key equality alone (both queries had
    a discrete canonical colouring, so no isomorphism search was needed);
    ``confirmations`` counts the explicit variant checks run on the remaining
    canonical-key bucket members; ``collisions`` counts lookups whose bucket
    was non-empty yet held no variant (the canonical key collided with a
    structurally symmetric non-variant).
    """

    lookups: int = 0
    hits: int = 0
    exact_hits: int = 0
    misses: int = 0
    confirmations: int = 0
    collisions: int = 0


class QuerySet:
    """A mutable collection of CQs with canonical-key variant interning.

    ``add`` refuses to insert a query when a variant is already present.
    Queries are bucketed by :attr:`ConjunctiveQuery.canonical_key`, an
    invariant under variable renaming and atom reordering, so a lookup is a
    hash probe followed by an :meth:`ConjunctiveQuery.is_variant_of`
    confirmation on the (almost always empty or singleton) bucket.  This is
    the data structure behind ``Qrew`` in Algorithm 1.
    """

    __slots__ = ("_buckets", "_order", "statistics")

    def __init__(self, queries: Iterable[ConjunctiveQuery] = ()) -> None:
        self._buckets: dict[CanonicalKey, list[ConjunctiveQuery]] = {}
        self._order: list[ConjunctiveQuery] = []
        self.statistics = InterningStatistics()
        for query in queries:
            self.add(query)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self._order)

    def __contains__(self, query: ConjunctiveQuery) -> bool:
        return self.find_variant(query) is not None

    @property
    def bucket_count(self) -> int:
        """Number of distinct canonical keys stored."""
        return len(self._buckets)

    @property
    def max_bucket_size(self) -> int:
        """Size of the fullest canonical bucket (1 in the collision-free case)."""
        return max(map(len, self._buckets.values()), default=0)

    def find_variant(self, query: ConjunctiveQuery) -> ConjunctiveQuery | None:
        """Return the stored variant of *query*, if any."""
        key, exact = query.canonical_fingerprint
        return self._find(key, exact, query)

    def _find(
        self, key: CanonicalKey, exact: bool, query: ConjunctiveQuery | None
    ) -> ConjunctiveQuery | None:
        """The lookup of :meth:`find_variant`; *query* is read only if not *exact*."""
        statistics = self.statistics
        statistics.lookups += 1
        bucket = self._buckets.get(key)
        if bucket:
            for candidate in bucket:
                candidate_exact = candidate.canonical_fingerprint[1]
                if exact and candidate_exact:
                    # Two discrete colourings with the same key are provably
                    # variants: the colour-matching renaming is forced.
                    statistics.hits += 1
                    statistics.exact_hits += 1
                    return candidate
                if exact != candidate_exact:
                    # Exactness is itself a variant invariant, so a mismatch
                    # proves non-varianthood without an isomorphism search.
                    continue
                statistics.confirmations += 1
                if candidate.is_variant_of(query):
                    statistics.hits += 1
                    return candidate
            statistics.collisions += 1
        statistics.misses += 1
        return None

    def intern(self, query: ConjunctiveQuery) -> tuple[ConjunctiveQuery, bool]:
        """Insert *query* unless a variant is present, with a single probe.

        Returns ``(stored, inserted)`` where *stored* is the representative
        now in the set (the pre-existing variant, or *query* itself) and
        *inserted* tells whether *query* was added.
        """
        existing = self.find_variant(query)
        if existing is not None:
            return existing, False
        self._insert(query.canonical_key, query)
        return query, True

    def intern_exact(
        self, key: CanonicalKey, build: Callable[[], ConjunctiveQuery]
    ) -> tuple[ConjunctiveQuery, bool]:
        """:meth:`intern` for a query known so far only by its *exact* key.

        An exact key decides the lookup alone, so the query is built —
        by calling *build*, which must return a query with this key and
        an exact colouring — only when no variant is stored.  The
        counters move exactly as :meth:`intern` moves them.
        """
        existing = self._find(key, True, None)
        if existing is not None:
            return existing, False
        query = build()
        self._insert(key, query)
        return query, True

    def _insert(self, key: CanonicalKey, query: ConjunctiveQuery) -> None:
        self._buckets.setdefault(key, []).append(query)
        self._order.append(query)

    def add(self, query: ConjunctiveQuery) -> bool:
        """Insert *query* unless a variant is present; return ``True`` if inserted."""
        return self.intern(query)[1]

    def to_ucq(self) -> UnionOfConjunctiveQueries:
        """Freeze the collection into a UCQ."""
        return UnionOfConjunctiveQueries(self._order)


def union(queries: Sequence[ConjunctiveQuery]) -> UnionOfConjunctiveQueries:
    """Build a deduplicated UCQ from a sequence of CQs."""
    return UnionOfConjunctiveQueries(queries).deduplicate()
