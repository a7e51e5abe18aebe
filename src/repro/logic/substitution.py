"""Substitutions: finite mappings from terms to terms.

A *substitution* ``γ`` maps variables (and, for homomorphisms, nulls) to
terms.  Constants are always fixed points.  Substitutions compose
(``(γ2 ∘ γ1)(t) = γ2(γ1(t))``) and can be applied to terms, atoms and
collections of atoms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .atoms import Atom
from .terms import Term, Variable, is_constant


class Substitution(Mapping[Term, Term]):
    """An immutable substitution.

    The mapping's keys are variables or nulls; mapping a constant to anything
    other than itself raises :class:`ValueError` since constants denote fixed
    domain values (unique name assumption).
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Mapping[Term, Term] | None = None) -> None:
        items: dict[Term, Term] = {}
        if mapping:
            for key, value in mapping.items():
                if is_constant(key) and key != value:
                    raise ValueError(f"cannot map constant {key!r} to {value!r}")
                if key != value:
                    items[key] = value
        self._mapping = items

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, key: Term) -> Term:
        return self._mapping.get(key, key)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, key: object) -> bool:
        return key in self._mapping

    @property
    def bindings(self) -> Mapping[Term, Term]:
        """The non-trivial bindings themselves, not a copy; never mutate them."""
        return self._mapping

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Substitution):
            return self._mapping == other._mapping
        if isinstance(other, Mapping):
            return self._mapping == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._mapping.items()))

    def __repr__(self) -> str:
        if not self._mapping:
            return "{}"
        inner = ", ".join(f"{k} -> {v}" for k, v in sorted(
            self._mapping.items(), key=lambda kv: str(kv[0])))
        return "{" + inner + "}"

    # -- application --------------------------------------------------------

    def apply_term(self, term: Term) -> Term:
        """Image of a single term (identity for unmapped terms)."""
        return self._mapping.get(term, term)

    def apply_atom(self, atom: Atom) -> Atom:
        """Image of an atom."""
        return Atom(atom.predicate, tuple(self.apply_term(t) for t in atom.terms))

    def apply_atoms(self, atoms: Iterable[Atom]) -> tuple[Atom, ...]:
        """Image of a sequence of atoms, preserving order."""
        return tuple(self.apply_atom(a) for a in atoms)

    def __call__(self, obj):
        """Apply the substitution to a term, an atom or an iterable of atoms."""
        if isinstance(obj, Atom):
            return self.apply_atom(obj)
        if isinstance(obj, (list, tuple, set, frozenset)):
            applied = [self(x) for x in obj]
            if isinstance(obj, list):
                return applied
            if isinstance(obj, tuple):
                return tuple(applied)
            if isinstance(obj, set):
                return set(applied)
            return frozenset(applied)
        return self.apply_term(obj)

    # -- algebra -------------------------------------------------------------

    def compose(self, other: "Substitution") -> "Substitution":
        """Return ``other ∘ self`` (first apply *self*, then *other*).

        ``(other ∘ self)(t) = other(self(t))`` for every term ``t``.
        """
        combined: dict[Term, Term] = {}
        for key, value in self._mapping.items():
            combined[key] = other.apply_term(value)
        for key, value in other._mapping.items():
            if key not in combined:
                combined[key] = value
        return Substitution(combined)

    def extend(self, key: Term, value: Term) -> "Substitution":
        """Return a copy of the substitution with ``key -> value`` added.

        Raises :class:`ValueError` if *key* is already bound to a different
        term.
        """
        existing = self._mapping.get(key)
        if existing is not None and existing != value:
            raise ValueError(f"{key!r} already bound to {existing!r}")
        new = dict(self._mapping)
        if key != value:
            new[key] = value
        return Substitution(new)

    def restrict(self, keys: Iterable[Term]) -> "Substitution":
        """Return the substitution restricted to the given *keys*."""
        keys = set(keys)
        return Substitution({k: v for k, v in self._mapping.items() if k in keys})

    def domain(self) -> frozenset[Term]:
        """The set of terms that are explicitly (non-trivially) mapped."""
        return frozenset(self._mapping)

    def range(self) -> frozenset[Term]:
        """The set of images of the domain."""
        return frozenset(self._mapping.values())

    def is_renaming(self) -> bool:
        """``True`` iff the substitution is an injective map of variables to variables."""
        values = list(self._mapping.values())
        return (
            all(isinstance(k, Variable) for k in self._mapping)
            and all(isinstance(v, Variable) for v in values)
            and len(set(values)) == len(values)
        )

    def as_dict(self) -> dict[Term, Term]:
        """A plain-``dict`` copy of the non-trivial bindings."""
        return dict(self._mapping)


EMPTY_SUBSTITUTION = Substitution()
