"""Relational atoms, predicates and positions.

An *atom* is a formula ``r(t1, ..., tn)`` where ``r`` is a predicate of arity
``n`` and each ``ti`` is a term.  A *position* ``r[i]`` identifies the *i*-th
argument (1-based, following the paper) of predicate ``r``; positions are the
nodes of the dependency graph used by query elimination (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .terms import Constant, Null, Term, Variable, is_constant, is_variable


@dataclass(frozen=True, slots=True)
class Predicate:
    """A relation symbol with a fixed arity.

    Like the term classes, predicates and atoms cache their hash at
    construction (they key every candidate index and atom set of the hot
    loops) and pickle by reconstruction because the cached value is
    process-local.
    """

    name: str
    arity: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.arity)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Predicate, (self.name, self.arity))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}/{self.arity}"

    def __getitem__(self, index: int) -> "Position":
        """``pred[i]`` returns the 1-based position ``pred[i]``."""
        return Position(self, index)


@dataclass(frozen=True, slots=True)
class Position:
    """A position ``r[i]`` of a predicate ``r`` (``i`` is 1-based)."""

    predicate: Predicate
    index: int

    def __post_init__(self) -> None:
        if not 1 <= self.index <= self.predicate.arity:
            raise ValueError(
                f"position index {self.index} out of range for {self.predicate!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{self.predicate.name}[{self.index}]"


@dataclass(frozen=True, slots=True)
class Atom:
    """An atomic formula ``predicate(terms...)``.

    Atoms are immutable; "modification" helpers such as :meth:`apply` return
    new atoms.
    """

    predicate: Predicate
    terms: tuple[Term, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.terms) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate!r} expects {self.predicate.arity} terms, "
                f"got {len(self.terms)}"
            )
        object.__setattr__(self, "_hash", hash((self.predicate, self.terms)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is Atom:
            return (
                self._hash == other._hash
                and self.predicate == other.predicate
                and self.terms == other.terms
            )
        return NotImplemented

    def __reduce__(self):
        return (Atom, (self.predicate, self.terms))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(name: str, *terms: Term) -> "Atom":
        """Convenience constructor inferring the arity from the terms."""
        return Atom(Predicate(name, len(terms)), tuple(terms))

    # -- accessors ---------------------------------------------------------

    @property
    def name(self) -> str:
        """The predicate name."""
        return self.predicate.name

    @property
    def arity(self) -> int:
        """The predicate arity."""
        return self.predicate.arity

    @property
    def predicates(self) -> tuple[Predicate]:
        """The predicate as a one-element union.

        A factored join's atom ranges over several predicates
        (:class:`repro.queries.ucq.UnionAtom`); planning and evaluation
        read ``predicates`` and ``terms``, so a plain atom is the
        one-predicate case.
        """
        return (self.predicate,)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __getitem__(self, index: int) -> Term:
        """1-based access to the term at position ``index`` (paper convention)."""
        if not 1 <= index <= self.arity:
            raise IndexError(f"atom position {index} out of range for {self!r}")
        return self.terms[index - 1]

    def positions(self) -> tuple[Position, ...]:
        """All positions of this atom's predicate, in order."""
        return tuple(Position(self.predicate, i) for i in range(1, self.arity + 1))

    def positions_of(self, term: Term) -> frozenset[Position]:
        """The set of positions at which *term* occurs in this atom."""
        return frozenset(
            Position(self.predicate, i)
            for i, t in enumerate(self.terms, start=1)
            if t == term
        )

    def variables(self) -> frozenset[Variable]:
        """All variables occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def constants(self) -> frozenset[Constant]:
        """All constants occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Constant))

    def nulls(self) -> frozenset[Null]:
        """All labelled nulls occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Null))

    def is_ground(self) -> bool:
        """``True`` iff the atom contains no variables."""
        return not any(is_variable(t) for t in self.terms)

    def is_fact(self) -> bool:
        """``True`` iff every term is a constant (a database fact)."""
        return all(is_constant(t) for t in self.terms)

    # -- transformation ----------------------------------------------------

    def apply(self, mapping: Mapping[Term, Term]) -> "Atom":
        """Return the atom obtained by substituting terms according to *mapping*.

        Terms absent from *mapping* are left untouched.
        """
        return Atom(self.predicate, tuple(mapping.get(t, t) for t in self.terms))

    def rename_predicate(self, name: str) -> "Atom":
        """Return a copy of the atom with the predicate renamed."""
        return Atom(Predicate(name, self.arity), self.terms)

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate.name}({args})"


def atoms_variables(atoms: Iterable[Atom]) -> frozenset[Variable]:
    """Union of the variables of all *atoms*."""
    result: set[Variable] = set()
    for atom in atoms:
        result.update(atom.variables())
    return frozenset(result)


def atoms_constants(atoms: Iterable[Atom]) -> frozenset[Constant]:
    """Union of the constants of all *atoms*."""
    result: set[Constant] = set()
    for atom in atoms:
        result.update(atom.constants())
    return frozenset(result)


def atoms_terms(atoms: Iterable[Atom]) -> frozenset[Term]:
    """Union of all terms occurring in *atoms*."""
    result: set[Term] = set()
    for atom in atoms:
        result.update(atom.terms)
    return frozenset(result)


def atoms_predicates(atoms: Iterable[Atom]) -> frozenset[Predicate]:
    """The set of predicates used by *atoms*."""
    return frozenset(atom.predicate for atom in atoms)


def term_occurrences(atoms: Sequence[Atom]) -> dict[Term, int]:
    """Count how many times each term occurs across *atoms* (with multiplicity)."""
    counts: dict[Term, int] = {}
    for atom in atoms:
        for term in atom.terms:
            counts[term] = counts.get(term, 0) + 1
    return counts
