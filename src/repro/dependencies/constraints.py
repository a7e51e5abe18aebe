"""Negative constraints (NCs) and key dependencies (KDs).

Section 4.2 of the paper: Datalog± combines TGDs with

* **negative constraints** ``∀X φ(X) → ⊥`` — the body must never hold
  (disjointness of concepts, forbidden participations, ...);
* **key dependencies** ``key(r) = {i1, ..., ik}`` — the listed attribute
  positions functionally determine the whole tuple.

Checking an NC amounts to answering the BCQ whose body is the NC body
(:func:`NegativeConstraint.as_query`).  KDs may only be combined with TGDs
when the interaction is *separable*; the syntactic *non-conflicting*
criterion (Calì, Gottlob & Lukasiewicz, PODS'09) that the paper relies on is
implemented in :func:`is_non_conflicting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ..logic.atoms import Atom, Predicate, atoms_variables
from ..logic.terms import Variable, is_variable
from ..queries.conjunctive_query import ConjunctiveQuery
from .tgd import TGD


@dataclass(frozen=True)
class NegativeConstraint:
    """A negative constraint ``body → ⊥``."""

    body: tuple[Atom, ...]
    label: str = ""

    def __init__(self, body: Iterable[Atom], label: str = "") -> None:
        body = tuple(body)
        if not body:
            raise ValueError("a negative constraint must have at least one body atom")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "label", label)

    @cached_property
    def variables(self) -> frozenset[Variable]:
        """Variables of the constraint body."""
        return atoms_variables(self.body)

    def as_query(self) -> ConjunctiveQuery:
        """The BCQ ``qν() ← body`` whose positive answer signals a violation."""
        return ConjunctiveQuery(self.body, (), head_name=f"nc_{self.label or 'check'}")

    def __repr__(self) -> str:
        body = ", ".join(repr(a) for a in self.body)
        name = f"[{self.label}] " if self.label else ""
        return f"{name}{body} -> ⊥"


@dataclass(frozen=True)
class KeyDependency:
    """A key dependency ``key(predicate) = key_positions`` (1-based positions)."""

    predicate: Predicate
    key_positions: tuple[int, ...]
    label: str = ""

    def __init__(
        self, predicate: Predicate, key_positions: Iterable[int], label: str = ""
    ) -> None:
        key_positions = tuple(sorted(set(key_positions)))
        if not key_positions:
            raise ValueError("a key dependency needs at least one key position")
        for index in key_positions:
            if not 1 <= index <= predicate.arity:
                raise ValueError(
                    f"key position {index} out of range for {predicate!r}"
                )
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "key_positions", key_positions)
        object.__setattr__(self, "label", label)

    @property
    def non_key_positions(self) -> tuple[int, ...]:
        """Positions of the predicate not belonging to the key."""
        return tuple(
            i for i in range(1, self.predicate.arity + 1) if i not in self.key_positions
        )

    def __repr__(self) -> str:
        positions = ", ".join(str(i) for i in self.key_positions)
        name = f"[{self.label}] " if self.label else ""
        return f"{name}key({self.predicate.name}) = {{{positions}}}"

    def violating_query(self) -> "KeyViolationQuery":
        """A symbolic representation of the violation check.

        The paper (Section 4.2) reduces KD checking to an NC over an auxiliary
        inequality predicate ``neq``: ``r(X..), r(X'..), neq(Yi, Y'i) → ⊥``.
        Because our in-memory engine can evaluate inequalities natively, the
        violation check is expressed as two atoms sharing the key positions
        plus a disequality on some non-key position; see
        :meth:`repro.database.instance.RelationalInstance.satisfies_key`.
        """
        return KeyViolationQuery(self)


@dataclass(frozen=True)
class KeyViolationQuery:
    """Two-atom pattern describing a violation of a key dependency."""

    key: KeyDependency

    def atoms(self) -> tuple[Atom, Atom, tuple[tuple[Variable, Variable], ...]]:
        """Return the two atoms plus the pairs of variables that must differ."""
        predicate = self.key.predicate
        left_terms = [Variable(f"K{i}") for i in range(1, predicate.arity + 1)]
        right_terms = [
            Variable(f"K{i}") if i in self.key.key_positions else Variable(f"K{i}_b")
            for i in range(1, predicate.arity + 1)
        ]
        inequalities = tuple(
            (left_terms[i - 1], right_terms[i - 1]) for i in self.key.non_key_positions
        )
        return (
            Atom(predicate, tuple(left_terms)),
            Atom(predicate, tuple(right_terms)),
            inequalities,
        )


def is_non_conflicting(rule: TGD, key: KeyDependency) -> bool:
    """Sufficient syntactic criterion for the separability of a TGD and a KD.

    Following Calì, Gottlob & Lukasiewicz (PODS'09), a (normalised,
    single-head) TGD ``σ`` and a key ``κ = key(r) = K`` are *non-conflicting*
    when at least one of the following holds:

    1. the head predicate of ``σ`` differs from ``r``;
    2. the positions of ``K`` are **not** a proper subset of the head
       positions of ``σ`` holding universally quantified (frontier) terms or
       constants, and every existential variable of ``σ`` occurs exactly once
       in the head.

    Intuitively, either the TGD never creates tuples of ``r``, or the tuples
    it creates carry a fresh null inside the key (hence they can never
    violate the key against existing tuples), or they duplicate the whole
    key-determined part.
    """
    for head_atom in rule.head:
        if head_atom.predicate != key.predicate:
            continue
        universal_positions = {
            i
            for i, term in enumerate(head_atom.terms, start=1)
            if not (is_variable(term) and term in rule.existential_variables)
        }
        key_positions = set(key.key_positions)
        if key_positions < universal_positions:
            return False
        existential_occurrences: dict[Variable, int] = {}
        for term in head_atom.terms:
            if is_variable(term) and term in rule.existential_variables:
                existential_occurrences[term] = existential_occurrences.get(term, 0) + 1
        if any(count > 1 for count in existential_occurrences.values()):
            return False
    return True


def non_conflicting_set(rules: Sequence[TGD], keys: Sequence[KeyDependency]) -> bool:
    """``True`` iff every TGD/KD pair is non-conflicting."""
    return first_conflict(rules, keys) is None


def first_conflict(
    rules: Sequence[TGD], keys: Sequence[KeyDependency]
) -> tuple[TGD, KeyDependency] | None:
    """The first TGD/KD pair that is not non-conflicting, in rule then key order.

    ``None`` when the keys are separable from the rules by
    :func:`is_non_conflicting`, the only case in which Section 5's
    rewriting may ignore the keys.
    """
    for rule in rules:
        for key in keys:
            if not is_non_conflicting(rule, key):
                return rule, key
    return None
