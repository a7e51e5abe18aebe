"""In-memory relational instances (ABoxes / databases).

A *database* is a finite set of facts ``r(c1, ..., cn)`` over constants; a
*relational instance* may additionally contain labelled nulls (e.g. the
result of a chase).  This module provides the storage layer used by the
OBDA pipeline: facts are indexed per predicate and per (position, value) so
that conjunctive queries can be evaluated with index nested-loop / hash
joins by :mod:`repro.database.evaluator`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from enum import Enum
from itertools import islice
from typing import Collection, Iterable, Iterator, Sequence

from ..logic.atoms import Atom, Predicate
from ..logic.terms import Constant, Term, is_constant
from ..dependencies.constraints import KeyDependency
from .schema import RelationalSchema


def net_changes(
    log: Iterable[tuple[bool, Atom]],
) -> tuple[set[Atom], set[Atom]]:
    """Collapse a change-log slice into net ``(added, removed)`` fact sets.

    A fact removed and re-added (or vice versa) within the slice cancels
    out; the result is exactly "present now but not at the base epoch"
    and "present at the base epoch but not now".
    """
    added: set[Atom] = set()
    removed: set[Atom] = set()
    for was_added, fact in log:
        if was_added:
            if fact in removed:
                removed.discard(fact)
            else:
                added.add(fact)
        else:
            if fact in added:
                added.discard(fact)
            else:
                removed.add(fact)
    return added, removed


class LogGap(Enum):
    """Why :meth:`RelationalInstance.net_changes_since` cannot explain a change."""

    #: The log no longer reaches back to the epoch (or never did).
    TRUNCATED = "truncated"
    #: The raw slice is longer than the instance: rebuilding is cheaper.
    OVERSIZE = "oversize"


class RelationalInstance:
    """A mutable set of ground atoms with per-predicate and per-value indexes.

    Every mutation that actually changes the stored fact set bumps the
    instance's :attr:`epoch` counter.  The epoch is what the serving layer
    (:class:`repro.api.PreparedQuery`, the execution backends) keys its
    answer caches and SQLite snapshots on: equal epochs guarantee an
    unchanged database, so cached answers can be served without touching
    the data.

    The instance additionally keeps a bounded *change log*: the last
    :data:`MAX_TRACKED_CHANGES` genuine mutations, one per epoch step.
    :meth:`net_changes_since` reads it for both of its consumers — the
    SQLite backend patching a loaded snapshot and the incremental
    maintainer patching an answer set — and decides for both when the log
    cannot be used, in which case they fall back to a full reload or
    re-execution: correctness never depends on the log.
    """

    #: Default bound on the change log; one entry per genuine mutation.
    #: Deltas across more than this many epochs report as unavailable.
    #: Overridable per instance via the ``max_tracked_changes`` argument.
    MAX_TRACKED_CHANGES = 10_000

    def __init__(
        self,
        facts: Iterable[Atom] = (),
        schema: RelationalSchema | None = None,
        max_tracked_changes: int | None = None,
    ) -> None:
        if max_tracked_changes is None:
            max_tracked_changes = self.MAX_TRACKED_CHANGES
        if max_tracked_changes < 0:
            raise ValueError(
                f"max_tracked_changes must be >= 0, got {max_tracked_changes}"
            )
        self.max_tracked_changes = max_tracked_changes
        self._schema = schema
        self._facts: set[Atom] = set()
        self._by_predicate: dict[Predicate, set[Atom]] = defaultdict(set)
        self._by_position_value: dict[tuple[Predicate, int, Term], set[Atom]] = defaultdict(set)
        self._epoch = 0
        # One (added?, fact) entry per epoch step, for epochs
        # (_change_floor, _epoch]; older entries are discarded.
        self._changes: deque[tuple[bool, Atom]] = deque(maxlen=max_tracked_changes)
        self._change_floor = 0
        # Per-relation distinct-value counts for the cost-aware planner,
        # computed lazily and valid for one epoch: (epoch, counts) entries.
        self._cardinality_cache: dict[Predicate, tuple[int, tuple[int, ...]]] = {}
        for fact in facts:
            self.add(fact)

    # -- mutation ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotone change counter: bumped whenever the fact set changes.

        Re-inserting an existing fact (or removing an absent one) leaves
        the epoch unchanged — the database is the same set of facts — so
        epoch equality is exactly "nothing to invalidate" for answer
        caches built on top.
        """
        return self._epoch

    def _log_change(self, added: bool, fact: Atom) -> None:
        """Record one genuine mutation, advancing the floor on overflow."""
        if len(self._changes) == self.max_tracked_changes:
            self._change_floor += 1
        self._changes.append((added, fact))

    def changes_since(self, epoch: int) -> list[tuple[bool, Atom]] | None:
        """The ``(added?, fact)`` delta from *epoch* to now, oldest first.

        Returns ``None`` when the change log no longer reaches back to
        *epoch* (too many mutations since, or *epoch* predates this
        instance) — the caller must then treat the whole instance as
        changed.  An up-to-date *epoch* returns the empty list.  Replaying
        the delta in order over a copy of the instance's state at *epoch*
        reproduces the current fact set exactly (a fact removed and
        re-added contributes both entries).
        """
        if not self._change_floor <= epoch <= self._epoch:
            return None
        # The log holds one entry per epoch step, so the delta is its last
        # `_epoch - epoch` entries; walk only those, not the whole log.
        tail = list(islice(reversed(self._changes), self._epoch - epoch))
        tail.reverse()
        return tail

    def net_changes_since(
        self, epoch: int
    ) -> tuple[set[Atom], set[Atom]] | LogGap:
        """The net ``(added, removed)`` fact sets from *epoch* to now.

        Returns a :class:`LogGap` instead when the change log cannot be
        used: it no longer reaches back to *epoch*, or the raw slice since
        then is longer than the instance (patching would cost more than
        rebuilding).  The caller must then treat the whole instance as
        changed.
        """
        if not self._change_floor <= epoch <= self._epoch:
            return LogGap.TRUNCATED
        if self._epoch - epoch > len(self._facts):
            return LogGap.OVERSIZE
        return net_changes(self.changes_since(epoch))

    def add(self, fact: Atom) -> bool:
        """Insert a ground atom; returns ``True`` if it was new."""
        if not fact.is_ground():
            raise ValueError(f"cannot store non-ground atom {fact!r}")
        if self._schema is not None and fact.name not in self._schema:
            self._schema.add_predicate(fact.predicate)
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._by_predicate[fact.predicate].add(fact)
        for index, term in enumerate(fact.terms, start=1):
            self._by_position_value[(fact.predicate, index, term)].add(fact)
        self._epoch += 1
        self._log_change(True, fact)
        return True

    def remove(self, fact: Atom) -> bool:
        """Delete a ground atom; returns ``True`` if it was present."""
        if fact not in self._facts:
            return False
        self._facts.discard(fact)
        self._by_predicate[fact.predicate].discard(fact)
        for index, term in enumerate(fact.terms, start=1):
            self._by_position_value[(fact.predicate, index, term)].discard(fact)
        self._epoch += 1
        self._log_change(False, fact)
        return True

    def remove_tuple(self, relation_name: str, values: Sequence[object]) -> bool:
        """Delete a tuple of plain Python values from the named relation."""
        predicate = Predicate(relation_name, len(values))
        return self.remove(Atom(predicate, tuple(Constant(v) for v in values)))

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Insert many atoms; returns the number of new atoms."""
        return sum(1 for fact in facts if self.add(fact))

    def add_tuple(self, relation_name: str, values: Sequence[object]) -> bool:
        """Insert a tuple of plain Python values into the named relation."""
        predicate = Predicate(relation_name, len(values))
        return self.add(Atom(predicate, tuple(Constant(v) for v in values)))

    # -- inspection ---------------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    @property
    def facts(self) -> frozenset[Atom]:
        """All stored atoms."""
        return frozenset(self._facts)

    @property
    def schema(self) -> RelationalSchema | None:
        """The schema the instance was created with (if any)."""
        return self._schema

    def predicates(self) -> frozenset[Predicate]:
        """Predicates with at least one stored atom."""
        return frozenset(p for p, atoms in self._by_predicate.items() if atoms)

    def relation(self, predicate: Predicate) -> frozenset[Atom]:
        """All atoms of the given predicate."""
        return frozenset(self._by_predicate.get(predicate, ()))

    def relation_by_name(self, name: str, arity: int) -> frozenset[Atom]:
        """All atoms of the predicate ``name/arity``."""
        return self.relation(Predicate(name, arity))

    def relation_size(self, predicate: Predicate) -> int:
        """Number of stored atoms of *predicate* (no copy, unlike :meth:`relation`)."""
        return len(self._by_predicate.get(predicate, ()))

    def position_cardinalities(self, predicate: Predicate) -> tuple[int, ...]:
        """Distinct values stored at each position of *predicate* (0-based tuple).

        The statistic behind the cost-aware planner's selectivity
        estimates (:mod:`repro.database.planning`): a relation of size
        ``N`` probed with a bound value at position ``i`` is expected to
        yield ``N / cardinalities[i]`` rows.  Counts are computed lazily
        and cached until the next genuine mutation (epoch bump).
        """
        cached = self._cardinality_cache.get(predicate)
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        facts = self._by_predicate.get(predicate, ())
        counts = tuple(
            len({fact.terms[position] for fact in facts})
            for position in range(predicate.arity)
        )
        self._cardinality_cache[predicate] = (self._epoch, counts)
        return counts

    def probe(
        self, predicate: Predicate, bound: Sequence[tuple[int, Term]]
    ) -> Collection[Atom]:
        """The smallest index bucket of *predicate* over the bound positions.

        *bound* holds ``(position, value)`` pairs, positions 0-based.  The
        result holds every atom of *predicate* agreeing with all of them,
        and exactly those when at most one position is bound; with more,
        the caller checks the others.  It is the index's own set, not a
        copy (the whole relation when nothing is bound): the caller must
        be done with it before the instance next changes.  The
        evaluator's search (:mod:`repro.database.evaluator`) probes
        through here.
        """
        if not bound:
            return self._by_predicate.get(predicate, ())
        index = self._by_position_value
        smallest: Collection[Atom] | None = None
        for position, value in bound:
            bucket = index.get((predicate, position + 1, value))
            if not bucket:
                return ()
            if smallest is None or len(bucket) < len(smallest):
                smallest = bucket
        return smallest

    def constants(self) -> frozenset[Constant]:
        """The active domain of the instance (constants only)."""
        return frozenset(
            term for fact in self._facts for term in fact.terms if is_constant(term)
        )

    # -- integrity ------------------------------------------------------------------

    def satisfies_key(self, key: KeyDependency) -> bool:
        """``True`` iff the instance satisfies the key dependency.

        Two distinct tuples of the key's relation must not agree on all key
        positions (Section 4.2: the preliminary KD check performed before
        dropping the keys from the reasoning problem).
        """
        groups: dict[tuple[Term, ...], Atom] = {}
        for fact in self._by_predicate.get(key.predicate, ()):  # noqa: B905
            key_values = tuple(fact[i] for i in key.key_positions)
            other = groups.get(key_values)
            if other is not None and other != fact:
                return False
            groups.setdefault(key_values, fact)
        return True

    def satisfies_keys(self, keys: Iterable[KeyDependency]) -> bool:
        """``True`` iff all key dependencies hold."""
        return all(self.satisfies_key(key) for key in keys)

    def __repr__(self) -> str:
        return f"RelationalInstance({len(self._facts)} facts, {len(self.predicates())} relations)"


def database_from_tuples(
    tuples: Iterable[tuple[str, Sequence[object]]],
    schema: RelationalSchema | None = None,
) -> RelationalInstance:
    """Build an instance from ``[("stock", ("s1", "ACME", 12)), ...]`` pairs."""
    instance = RelationalInstance(schema=schema)
    for relation_name, values in tuples:
        instance.add_tuple(relation_name, values)
    return instance
