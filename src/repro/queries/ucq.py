"""Unions of conjunctive queries (UCQs).

A UCQ of arity ``n`` is a set of CQs of the same arity sharing the same head
predicate (Section 3.1).  The perfect rewriting produced by ``TGD-rewrite``
is a UCQ; this module also provides the canonical-key interning store (the
"no variant twice" container used by the rewriting algorithms) and
subsumption-based redundancy removal used to compare rewritings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ..logic.atoms import atoms_predicates
from ..logic.canonical import CanonicalKey
from .conjunctive_query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .containment import SubsumptionStatistics


class UnionOfConjunctiveQueries:
    """An immutable union of CQs of equal arity."""

    __slots__ = ("_queries", "_arity")

    def __init__(self, queries: Iterable[ConjunctiveQuery]) -> None:
        queries = list(queries)
        arities = {q.arity for q in queries}
        if len(arities) > 1:
            raise ValueError(f"queries in a UCQ must share the same arity, got {arities}")
        self._queries: tuple[ConjunctiveQuery, ...] = tuple(queries)
        self._arity = arities.pop() if arities else 0

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
