"""Atom coverage (Definition 5) — the heart of query elimination.

An atom ``a`` of a query *covers* another atom ``b`` (``a ≺ b``) when ``b``
is logically implied by ``a`` with respect to the given set of **linear**
TGDs, as witnessed by

* condition (i): every shared variable / constant of ``b`` also occurs in
  ``a`` (so dropping ``b`` loses no constant and no join except the one with
  ``a``), and
* condition (ii): a chain of TGDs ``σ1, ..., σk−1`` whose equality types
  propagate (``eq(body(σ1)) ⊆ eq(a)`` and
  ``eq(body(σj+1)) ⊆ eq(head(σj))``) and whose dependency-graph paths carry
  every shared term of ``b`` from its positions in ``a`` to its positions in
  ``b``.

**Reading of the definition.**  The paper's Definition 5 literally places the
existential quantifier over the chain *inside* the universal quantifier over
the shared terms of ``b`` ("for each i ∈ [n]: ... there exists k and TGDs
..."), i.e. each shared term may use its own chain.  That reading is unsound:
with ``σA : p(X,Y) → ∃W r(X,W)`` and ``σB : p(X,Y) → ∃W r(W,Y)`` it would
let ``p(A,B)`` cover ``r(A,B)``, although ``chase({p(a,b)})`` contains no atom
``r(a,b)``.  We therefore require a *single common chain* for all shared
terms of ``b`` (which also makes the final atom of the chain an atom of
``pred(b)`` carrying all of them, exactly what the proof of Lemma 8 needs),
and — when ``b`` has no shared terms at all — we still require *some* chain
from ``pred(a)`` to ``pred(b)``, since otherwise the definition would be
vacuously true and eliminate atoms of unrelated predicates.  Both choices are
documented here and covered by unit tests (``tests/core/test_coverage.py``).

**Cost.**  The paper treats the per-pair check as constant time for a fixed
Σ; :class:`CoverageChecker` makes it so in practice.  A reachability table
between predicates rejects most pairs outright, and the chain search's
result is memoised by the pair's shape (:func:`repro.core.applicability.shape_key`),
of which a fixed Σ has finitely many — so a whole workload runs a few
dozen searches per ontology instead of one per pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from ..logic.atoms import Atom, Position, Predicate
from ..logic.terms import Term, is_constant
from ..logic.unification import UnificationMemo
from ..dependencies.tgd import TGD, schema_constants
from ..dependencies.classifiers import is_linear
from ..queries.conjunctive_query import ConjunctiveQuery
from .applicability import shape_key
from .dependency_graph import DependencyGraph
from .equality_types import eq_subset, equality_type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .closures import RenamingClosures


@dataclass(frozen=True)
class CoverageWitness:
    """A chain of TGDs witnessing ``a ≺ b``."""

    source: Atom
    target: Atom
    chain: tuple[TGD, ...]


class CoverageChecker:
    """Decides the coverage relation ``≺`` for a fixed set of linear TGDs.

    Built once per rule set, the checker holds the dependency graph and a
    reachability table: for each predicate, the predicates that some rule
    chain starting there can reach.  Both are built on first use, so a
    checker that is never asked costs its engine nothing.  ``covers(a, b,
    query)`` rejects a pair with no search when ``pred(b)`` is not
    reachable from ``pred(a)`` or condition (i) fails; otherwise it needs
    a breadth-first search over chain states, polynomial for a fixed rule
    set.

    With *memoise* (the default) the search result is kept for the
    checker's lifetime, keyed by the pair's renaming-invariant shape
    (:func:`repro.core.applicability.shape_key` over ``(a, b)``, with the
    rules' constants kept by value): the chain depends on nothing else, and
    a fixed rule set has finitely many shapes, so after the first pair of
    each shape the check is a dictionary lookup — the constant-time
    per-pair check the paper assumes.  The memo's outcomes are pure, so it
    is shared by concurrent callers without a lock (a race only computes
    an entry twice).  ``chain_searches`` counts the searches actually run.
    """

    def __init__(
        self,
        rules: Sequence[TGD],
        max_states: int = 100_000,
        memoise: bool = True,
    ) -> None:
        rules = list(rules)
        if not is_linear(rules):
            raise ValueError(
                "query elimination (atom coverage) is only sound for linear TGDs"
            )
        for rule in rules:
            if not rule.is_normalized:
                raise ValueError(f"rule {rule!r} must be normalised first")
        self._rules = tuple(rules)
        self._max_states = max_states
        self._constants = schema_constants(self._rules)
        self._memo = UnificationMemo() if memoise else None
        self.chain_searches = 0

    @cached_property
    def graph(self) -> DependencyGraph:
        """The dependency graph of the rule set."""
        return DependencyGraph(self._rules)

    @cached_property
    def _reachable(self) -> dict[Predicate, frozenset[Predicate]]:
        return _reachability(self._rules)

    @property
    def rules(self) -> tuple[TGD, ...]:
        """The rule set."""
        return self._rules

    @property
    def memo(self) -> UnificationMemo | None:
        """The chain memo (``None`` when memoisation is off)."""
        return self._memo

    def reaches(self, source: Predicate, target: Predicate) -> bool:
        """``True`` iff some rule chain leads from *source* to *target*."""
        return target in self._reachable.get(source, ())

    # -- the coverage relation ---------------------------------------------------

    def covers(
        self, source: Atom, target: Atom, query: ConjunctiveQuery
    ) -> CoverageWitness | None:
        """Return a witness for ``source ≺ target`` w.r.t. *query*, or ``None``.

        *source* and *target* must be distinct atoms of ``body(query)``.
        """
        if source == target or not self.reaches(source.predicate, target.predicate):
            return None
        shared_terms = self._relevant_terms(target, query)
        # Condition (i): every shared term of the target occurs in the source.
        source_terms = set(source.terms)
        for term in shared_terms:
            if term not in source_terms:
                return None
        if self._memo is None:
            chain = self._find_chain(source, target, shared_terms)
        else:
            chain = self._memo.lookup(
                shape_key((source, target), query, self._constants),
                lambda: self._find_chain(source, target, shared_terms),
            )
        if chain is None:
            return None
        return CoverageWitness(source, target, chain)

    def union_covers(
        self,
        source: Atom,
        target: Atom,
        query: ConjunctiveQuery,
        unions: "RenamingClosures",
    ) -> bool | None:
        """Whether *source* covers *target* in every member of a union-CQ.

        ``True`` if every pair of predicates the two atoms can pick
        covers, ``False`` if none does, ``None`` if only some do.  The
        members share their terms and shared variables (the union-CQ is
        distinct, :meth:`repro.core.closures.RenamingClosures.distinct`),
        so condition (i) is decided once for all of them.
        """
        source_terms = set(source.terms)
        if any(term not in source_terms for term in self._relevant_terms(target, query)):
            return False
        verdict = None
        for source_predicate in unions.members(source.predicate):
            reachable = self._reachable.get(source_predicate, ())
            member = Atom(source_predicate, source.terms)
            for target_predicate in unions.members(target.predicate):
                covered = target_predicate in reachable and (
                    self.covers(member, Atom(target_predicate, target.terms), query)
                    is not None
                )
                if verdict is None:
                    verdict = covered
                elif verdict != covered:
                    return None
        return verdict

    def cover_set(
        self, target: Atom, query: ConjunctiveQuery
    ) -> frozenset[Atom]:
        """``cover(target)``: the body atoms of *query* that cover *target*."""
        return frozenset(
            atom
            for atom in query.body
            if atom != target and self.covers(atom, target, query) is not None
        )

    def cover_sets(self, query: ConjunctiveQuery) -> dict[Atom, frozenset[Atom]]:
        """The cover set of every body atom of *query*."""
        return {atom: self.cover_set(atom, query) for atom in query.body}

    # -- internals -------------------------------------------------------------------

    def _relevant_terms(
        self, target: Atom, query: ConjunctiveQuery
    ) -> tuple[Term, ...]:
        """Shared variables and constants of *target* (the ``t1, ..., tn`` of Def. 5)."""
        relevant: list[Term] = []
        for term in target.terms:
            if term in relevant:
                continue
            if is_constant(term) or query.is_shared(term):
                relevant.append(term)
        return tuple(relevant)

    def _find_chain(
        self, source: Atom, target: Atom, shared_terms: Sequence[Term]
    ) -> tuple[TGD, ...] | None:
        """Breadth-first search for a common TGD chain witnessing condition (ii)."""
        self.chain_searches += 1
        target_positions: dict[Term, frozenset[Position]] = {
            term: target.positions_of(term) for term in shared_terms
        }
        start_positions: dict[Term, frozenset[Position]] = {
            term: source.positions_of(term) for term in shared_terms
        }
        source_eq = equality_type(source)

        def accepts(last_rule: TGD, reachable: dict[Term, frozenset[Position]]) -> bool:
            head_atom = last_rule.head[0]
            if head_atom.predicate != target.predicate:
                return False
            return all(
                target_positions[term] <= reachable[term] for term in shared_terms
            )

        # Initial expansion: chains of length one.
        queue: deque[tuple[TGD, dict[Term, frozenset[Position]], tuple[TGD, ...]]] = deque()
        visited: set[tuple[TGD, tuple[frozenset[Position], ...]]] = set()
        explored = 0
        for rule in self._rules:
            body_atom = rule.body[0]
            if body_atom.predicate != source.predicate:
                continue
            if not equality_type(body_atom).is_subset_of(source_eq):
                continue
            reachable = {
                term: self.graph.successors(start_positions[term], rule)
                for term in shared_terms
            }
            state_key = (rule, tuple(reachable[t] for t in shared_terms))
            if state_key in visited:
                continue
            visited.add(state_key)
            chain = (rule,)
            if accepts(rule, reachable):
                return chain
            queue.append((rule, reachable, chain))

        while queue:
            last_rule, reachable, chain = queue.popleft()
            explored += 1
            if explored > self._max_states:
                return None
            head_atom = last_rule.head[0]
            for rule in self._rules:
                body_atom = rule.body[0]
                if body_atom.predicate != head_atom.predicate:
                    continue
                if not eq_subset(body_atom, head_atom):
                    continue
                next_reachable = {
                    term: self.graph.successors(reachable[term], rule)
                    for term in shared_terms
                }
                if shared_terms and any(not next_reachable[t] for t in shared_terms):
                    # Some shared term cannot be propagated any further, so no
                    # extension of this chain can ever reach its target
                    # positions; the chain is dead.
                    continue
                state_key = (rule, tuple(next_reachable[t] for t in shared_terms))
                if state_key in visited:
                    continue
                visited.add(state_key)
                next_chain = chain + (rule,)
                if accepts(rule, next_reachable):
                    return next_chain
                queue.append((rule, next_reachable, next_chain))
        return None


def _reachability(rules: Sequence[TGD]) -> dict[Predicate, frozenset[Predicate]]:
    """For each body predicate, the head predicates of the rule chains starting there."""
    successors: dict[Predicate, set[Predicate]] = {}
    for rule in rules:
        successors.setdefault(rule.body[0].predicate, set()).add(rule.head[0].predicate)
    reachable: dict[Predicate, frozenset[Predicate]] = {}
    for start in successors:
        seen: set[Predicate] = set()
        pending = list(successors[start])
        while pending:
            predicate = pending.pop()
            if predicate not in seen:
                seen.add(predicate)
                pending.extend(successors.get(predicate, ()))
        reachable[start] = frozenset(seen)
    return reachable


def covers(
    source: Atom,
    target: Atom,
    query: ConjunctiveQuery,
    rules: Iterable[TGD],
) -> bool:
    """One-shot convenience wrapper around :class:`CoverageChecker`."""
    checker = CoverageChecker(list(rules))
    return checker.covers(source, target, query) is not None
