"""Applicability and factorizability (Definitions 1 and 2 of the paper).

These two notions drive the rewriting algorithm of Section 5:

* **Applicability** (Definition 1) tells when a TGD ``σ`` may be used as a
  rewriting rule on a set ``A`` of body atoms of a query ``q``:
  ``A ∪ {head(σ)}`` must unify, and no atom of ``A`` may hold a constant or a
  *shared* variable of ``q`` at the existential position ``πσ`` of the head.
  Dropping the condition makes the rewriting unsound (Example 3).

* **Factorizability** (Definition 2) identifies sets of atoms whose shared
  existential variable necessarily comes from one and the same chase atom, so
  they can be unified without loss of information.  The restricted
  factorisation step is what keeps the rewriting complete (Example 4) without
  the exhaustive factorisations of QuOnto-style algorithms.

Both are stated for a *normalised* TGD: single head atom, at most one
existential variable occurring once, so ``πσ`` is well defined.
:func:`applicable_unifier` returns the unifier the rewriting step applies,
so each step unifies once.

The module also houses the engine's rule-side helpers, shared across
every query of a workload run:

* :class:`RuleIndex` — the head-predicate index that keeps non-candidate
  TGDs off the hot path entirely;
* :class:`RenameApartCache` — a per-rule pool of freshly renamed rule
  copies, so renaming a TGD apart from a query is a disjointness probe
  instead of a substitution walk;
* :func:`shape_key` — the renaming-invariant shape of an atom set, the
  key of the coverage memo of :class:`repro.core.coverage.CoverageChecker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..logic.atoms import Atom, Predicate, atoms_predicates
from ..logic.substitution import Substitution
from ..logic.terms import Variable, is_constant, is_variable
from ..logic.unification import AtomProfile, atom_sequence_profile, mgu
from ..dependencies.tgd import TGD
from ..queries.conjunctive_query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .closures import RenamingClosures


class RuleIndex:
    """Head-predicate index over a normalised TGD set.

    Both steps of Algorithm 1 only ever use a TGD ``σ`` on a query ``q`` when
    some body atom of ``q`` carries the predicate of ``head(σ)`` — otherwise
    neither an applicable set (Definition 1) nor a factorizable set
    (Definition 2) can exist.  Indexing the rules by head predicate lets the
    rewriter touch only candidate rules per query instead of scanning Σ,
    which for ontologies with dozens of TGDs (Table 1) removes most
    rename-apart and unification work from the hot path.
    """

    __slots__ = ("_rules", "_by_head", "_by_union")

    def __init__(self, rules: Iterable[TGD]) -> None:
        self._rules: tuple[TGD, ...] = tuple(rules)
        by_head: dict[Predicate, list[tuple[int, TGD]]] = {}
        for position, rule in enumerate(self._rules):
            if not rule.is_single_head:
                raise ValueError(f"{rule!r} must be normalised (single head atom)")
            by_head.setdefault(rule.head[0].predicate, []).append((position, rule))
        self._by_head: dict[Predicate, tuple[tuple[int, TGD], ...]] = {
            predicate: tuple(entries) for predicate, entries in by_head.items()
        }
        self._by_union: dict[Predicate, tuple[tuple[int, TGD], ...]] = {}

    @property
    def rules(self) -> tuple[TGD, ...]:
        """All indexed rules, in insertion order."""
        return self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[TGD]:
        return iter(self._rules)

    @property
    def head_predicates(self) -> frozenset[Predicate]:
        """The predicates produced by some rule head."""
        return frozenset(self._by_head)

    def rules_for(self, predicate: Predicate) -> tuple[TGD, ...]:
        """The rules whose head predicate is *predicate*, in rule order."""
        return tuple(rule for _, rule in self._by_head.get(predicate, ()))

    def candidate_rules(
        self, query: ConjunctiveQuery, unions: "RenamingClosures | None" = None
    ) -> list[TGD]:
        """The rules whose head predicate occurs in ``body(query)``.

        The result preserves the global rule order, so swapping a linear scan
        of Σ for this lookup leaves the rewriting exploration deterministic.
        With *unions*, a collapsed atom offers every predicate of its
        closure (:mod:`repro.core.closures`).
        """
        by_head = self._by_head
        entries: list[tuple[int, TGD]] = []
        for predicate in atoms_predicates(query.body):
            found = by_head.get(predicate)
            if found is None and unions is not None and unions.is_collapsed(predicate):
                found = self._union_entries(predicate, unions)
            if found:
                entries.extend(found)
        if unions is not None:
            # Two closures may share a predicate, hence a rule.
            entries = list(dict(entries).items())
        entries.sort(key=lambda entry: entry[0])
        return [rule for _, rule in entries]

    def _union_entries(
        self, predicate: Predicate, unions: "RenamingClosures"
    ) -> tuple[tuple[int, TGD], ...]:
        """The index entries of every predicate of a collapsed predicate's closure."""
        cache = self._by_union
        found = cache.get(predicate)
        if found is None:
            found = tuple(
                entry
                for member in unions.members(predicate)
                for entry in self._by_head.get(member, ())
            )
            cache[predicate] = found
        return found

    def fan_out(self, query: ConjunctiveQuery) -> int:
        """How many rule applications *query* can trigger per rewriting step.

        The count of ``(body predicate, rule)`` pairs with matching head
        predicate — the work one frontier member represents, which the
        ``auto`` scheduling strategy uses to size a generation's CPU cost
        without expanding anything.
        """
        by_head = self._by_head
        return sum(
            len(by_head.get(predicate, ()))
            for predicate in atoms_predicates(query.body)
        )


class RenameApartCache:
    """A per-rule pool of variable-refreshed TGD copies, minted deterministically.

    The rewriting and factorisation steps must use a rule whose variables
    are disjoint from the query's.  Renaming on every (query, rule) pair
    rebuilds the same substituted atoms thousands of times; instead the
    cache keeps, per rule, a pool of fully refreshed copies and serves the
    first one whose variable set is disjoint from the query's — a
    frozenset probe.

    The ``k``-th copy of rule ``rule_key`` always carries the variables
    ``W<rule_key>_<k>_1, W<rule_key>_<k>_2, …``: minting depends only on
    the rule and the copy's position in the pool, never on how many
    copies other rules (or earlier queries on the same engine) consumed.
    Together with the in-order disjointness probe this makes the served
    copy a pure function of ``(rule, query variables)``, so a rewriting
    computed on a warmed-up engine is *byte-identical* to one computed on
    a fresh engine — the invariant the parallel compilation path relies
    on to keep worker output equal to the sequential path.

    Any copy whose variables avoid the query is interchangeable with the
    output of :meth:`TGD.rename_apart` — the rewriting only ever uses the
    renamed rule up to α-equivalence, and generated queries are interned
    modulo variable renaming anyway.

    The cache is shared by every expansion of an engine, including
    concurrent ones under :class:`repro.scheduling.ThreadedStrategy`; a
    lock around the probe-and-mint keeps pool growth consistent, so the
    served copy stays the same pure function of ``(rule, query
    variables)`` no matter how many threads expand at once.
    """

    __slots__ = ("_pools", "_lock", "hits", "misses")

    def __init__(self) -> None:
        import threading

        # Pools grow on demand; they stay tiny in practice: one copy per
        # nesting level of the same rule in a derivation.
        self._pools: dict[object, list[tuple[TGD, frozenset[Variable]]]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _mint(rule_key: object, rule: TGD, position: int) -> TGD:
        """Deterministically refresh *rule* into its *position*-th pooled copy."""
        from ..logic.terms import VariableFactory

        return rule.refresh(VariableFactory(prefix=f"W{rule_key}_{position}_"))

    @classmethod
    def unpooled(
        cls, rule_key: object, rule: TGD, avoid: frozenset[Variable]
    ) -> TGD:
        """The copy :meth:`rename` serves, minted afresh instead of pooled.

        :meth:`rename` serves the first copy, in minting order, whose
        variables avoid *avoid*; this mints copies in that order until one
        does, so an engine without the pool renames to the same bytes.
        """
        position = 0
        while True:
            copy = cls._mint(rule_key, rule, position)
            if (copy.body_variables | copy.head_variables).isdisjoint(avoid):
                return copy
            position += 1

    def rename(self, rule_key: object, rule: TGD, avoid: frozenset[Variable]) -> TGD:
        """A copy of *rule* whose variables are disjoint from *avoid*.

        *rule_key* must identify the rule stably across calls (the rule's
        position in the rewriter's rule tuple).  Copies are minted from the
        deterministic per-``(rule_key, position)`` namespace, so the
        returned copy does not depend on the engine's history.
        """
        with self._lock:
            pool = self._pools.setdefault(rule_key, [])
            for copy, copy_variables in pool:
                if copy_variables.isdisjoint(avoid):
                    self.hits += 1
                    return copy
            self.misses += 1
            while True:
                refreshed = self._mint(rule_key, rule, len(pool))
                variables = refreshed.body_variables | refreshed.head_variables
                pool.append((refreshed, variables))
                if variables.isdisjoint(avoid):
                    return refreshed


def shape_key(
    atoms: Sequence[Atom],
    query: ConjunctiveQuery,
    kept_constants: frozenset | None = None,
) -> AtomProfile:
    """The renaming-invariant shape of *atoms* inside *query*: the coverage memo's key.

    :func:`repro.logic.unification.atom_sequence_profile` with the query's
    shared variables marked and only *kept_constants* — the constants the
    rule set mentions — kept by value; every other constant is kept by
    identity only.  Definition 5 looks at a query's atoms only through
    their predicates, their variable-equality pattern, which of their
    variables are shared, and which of their constants are equal to each
    other or to a rule constant — so equal keys imply equal outcomes.  As
    the rule set fixes the kept constants, there are finitely many keys
    of each length over the rules' predicates, however many distinct
    constants the queries bring.  ``None`` keeps every constant by value.
    """
    return atom_sequence_profile(
        atoms, marked=query.shared_variables, kept_constants=kept_constants
    )


def applicable_unifier(
    rule: TGD, atoms: Sequence[Atom], query: ConjunctiveQuery
) -> Substitution | None:
    """Definition 1: the unifier with which *rule* applies to *atoms* ⊆ body(*query*).

    Returns ``γ``, the MGU of ``atoms ∪ {head(rule)}`` that the rewriting
    step applies, or ``None`` when the rule is not applicable.  Assumes
    the rule is normalised and its variables are disjoint from the
    query's (callers rename the rule apart first).
    """
    if not rule.is_single_head:
        raise ValueError(f"{rule!r} must be normalised (single head atom)")
    atoms = list(atoms)
    head_atom = rule.head[0]
    if not atoms or any(atom.predicate != head_atom.predicate for atom in atoms):
        return None
    # Condition (ii), first as it needs no unification: no constant or
    # shared variable of q sits at πσ.
    existential_position = rule.existential_position
    if existential_position is not None:
        index = existential_position.index
        for atom in atoms:
            term = atom[index]
            if is_constant(term) or query.is_shared(term):
                return None
    # Condition (i): A ∪ {head(σ)} unifies.
    return mgu(atoms + [head_atom])


def applicable_atom_sets(
    rule: TGD,
    query: ConjunctiveQuery,
    unions: "RenamingClosures | None" = None,
    renaming: bool = False,
) -> Iterator[tuple[tuple[Atom, ...], Substitution]]:
    """Enumerate the subsets ``A ⊆ body(q)`` to which *rule* is applicable.

    Each set comes with its unifier (:func:`applicable_unifier`).  Only
    atoms whose predicate matches the rule's head predicate can belong
    to such a set, so the enumeration is over the non-empty subsets of those
    candidate atoms (singletons first, then growing, in a deterministic
    order).  In the vast majority of cases this is a handful of atoms.

    With *unions* (:mod:`repro.core.closures`), a collapsed atom is a
    candidate when its closure holds the head predicate, and the check
    reads it as an atom over the head predicate.  A *renaming* rule
    (:attr:`~repro.core.closures.RenamingClosures.renaming_rules`) is
    never offered a single collapsed atom: what it would make is another
    member of the same union-CQ.
    """
    if not rule.is_single_head:
        raise ValueError(f"{rule!r} must be normalised (single head atom)")
    head_predicate = rule.head[0].predicate
    if unions is None:
        candidates = [atom for atom in query.body if atom.predicate == head_predicate]
    else:
        candidates = [
            atom for atom in query.body if unions.holds(atom.predicate, head_predicate)
        ]
    # Subsets ordered by size, in a stable order within a size.
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            if renaming and size == 1 and unions.is_collapsed(subset[0].predicate):
                continue
            probe = subset if unions is None else unions.retarget(subset, head_predicate)
            unifier = applicable_unifier(rule, probe, query)
            if unifier is not None:
                yield subset, unifier


@dataclass(frozen=True)
class FactorizableSet:
    """A factorizable set ``S`` together with its witnessing variable and MGU."""

    atoms: tuple[Atom, ...]
    variable: Variable
    unifier: Substitution


def factorizable_sets(
    rule: TGD, query: ConjunctiveQuery, unions: "RenamingClosures | None" = None
) -> Iterator[FactorizableSet]:
    """Enumerate the sets ``S ⊆ body(q)`` factorizable w.r.t. *rule* (Definition 2).

    For a normalised rule with existential position ``πσ``, a set ``S`` is
    factorizable iff there is a variable ``V`` occurring in every atom of
    ``S`` *only at position* ``πσ`` and nowhere else in the query (body
    outside ``S``, nor in the head for non-Boolean queries).  Consequently
    ``S`` is exactly the set of body atoms containing ``V``, which makes the
    enumeration linear in the number of query variables.  With *unions*,
    a collapsed atom belongs to ``S`` when its closure holds the head
    predicate, and the unifier is taken over the atoms' terms.
    """
    if not rule.is_single_head:
        raise ValueError(f"{rule!r} must be normalised (single head atom)")
    existential_position = rule.existential_position
    if existential_position is None:
        return
    head_predicate = rule.head[0].predicate
    index = existential_position.index

    atoms_with_variable: dict[Variable, list[Atom]] = {}
    for atom in query.body:
        for term in set(atom.terms):
            if is_variable(term):
                atoms_with_variable.setdefault(term, []).append(atom)

    for variable in sorted(atoms_with_variable, key=str):
        atoms = atoms_with_variable[variable]
        if len(atoms) < 2:
            continue
        if variable in query.answer_variables:
            # For non-Boolean CQs the witnessing variable must not occur in
            # the head, otherwise unifying would lose an answer binding.
            continue
        if unions is None:
            if any(atom.predicate != head_predicate for atom in atoms):
                continue
        elif not all(unions.holds(atom.predicate, head_predicate) for atom in atoms):
            continue
        # V must occur only at πσ in every atom of S.
        occurs_elsewhere = False
        for atom in atoms:
            for position, term in enumerate(atom.terms, start=1):
                if term == variable and position != index:
                    occurs_elsewhere = True
                    break
            if occurs_elsewhere:
                break
        if occurs_elsewhere:
            continue
        unifier = mgu(atoms if unions is None else unions.retarget(atoms, head_predicate))
        if unifier is None:
            continue
        yield FactorizableSet(tuple(atoms), variable, unifier)


def is_factorizable(
    rule: TGD, atoms: Sequence[Atom], query: ConjunctiveQuery
) -> bool:
    """Definition 2 membership test for an explicit candidate set *atoms*."""
    atom_set = set(atoms)
    if len(atom_set) < 2:
        return False
    for candidate in factorizable_sets(rule, query):
        if set(candidate.atoms) == atom_set:
            return True
    return False
