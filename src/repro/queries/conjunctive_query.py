"""Conjunctive queries (CQs) and Boolean conjunctive queries (BCQs).

A CQ of arity ``n`` has the form ``q(X) ← φ(X, Y)`` where ``φ`` is a
conjunction of atoms (Section 3.1).  A BCQ is a CQ of arity zero.  The
rewriting algorithms of the paper operate on these objects: the body is the
set of atoms being rewritten, while the head fixes the answer variables that
must be preserved (an answer variable behaves like a *shared* variable for the
applicability condition of Definition 1).

Queries are immutable; rewriting steps construct new queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping, Sequence

from ..logic.atoms import Atom, Predicate, atoms_constants, atoms_variables
from ..logic.canonical import (
    CanonicalFingerprint,
    CanonicalKey,
    canonical_fingerprint as _canonical_fingerprint,
)
from ..logic.flat import FlatQuery
from ..logic.homomorphism import variable_bijections
from ..logic.substitution import Substitution
from ..logic.terms import Constant, Term, Variable, is_constant, is_variable


@dataclass(frozen=True)
class ConjunctiveQuery:
    """An immutable conjunctive query ``head_name(answer_terms) ← body``.

    Parameters
    ----------
    body:
        The conjunction of body atoms.  Duplicated atoms are collapsed (a
        conjunction is identified with the set of its atoms, as in the paper)
        but the original order is preserved for readable output.
    answer_terms:
        The terms of the head; usually variables occurring in the body, but
        constants are allowed (and may appear after a rewriting step unifies
        an answer variable with a constant).
    head_name:
        Name of the head predicate (purely cosmetic; it does not participate
        in any equality or variant check).
    """

    body: tuple[Atom, ...]
    answer_terms: tuple[Term, ...] = ()
    head_name: str = "q"

    def __init__(
        self,
        body: Iterable[Atom],
        answer_terms: Iterable[Term] = (),
        head_name: str = "q",
    ) -> None:
        deduplicated: list[Atom] = []
        seen: set[Atom] = set()
        for atom in body:
            if atom not in seen:
                seen.add(atom)
                deduplicated.append(atom)
        object.__setattr__(self, "body", tuple(deduplicated))
        object.__setattr__(self, "answer_terms", tuple(answer_terms))
        object.__setattr__(self, "head_name", head_name)
        body_variables = None
        for term in self.answer_terms:
            if is_variable(term):
                if body_variables is None:
                    body_variables = atoms_variables(self.body)
                if term not in body_variables:
                    raise ValueError(
                        f"answer variable {term!r} does not occur in the query body"
                    )

    # -- basic accessors -----------------------------------------------------

    @property
    def arity(self) -> int:
        """The arity of the query (number of answer terms)."""
        return len(self.answer_terms)

    @property
    def is_boolean(self) -> bool:
        """``True`` iff the query is a BCQ (arity zero)."""
        return self.arity == 0

    @property
    def head(self) -> Atom:
        """The head atom ``q(answer_terms)``."""
        return Atom(Predicate(self.head_name, self.arity), self.answer_terms)

    @cached_property
    def body_set(self) -> frozenset[Atom]:
        """The body as a set of atoms."""
        return frozenset(self.body)

    @cached_property
    def variables(self) -> frozenset[Variable]:
        """All variables of the query (body and head)."""
        head_vars = frozenset(t for t in self.answer_terms if is_variable(t))
        return atoms_variables(self.body) | head_vars

    @cached_property
    def answer_variables(self) -> frozenset[Variable]:
        """Variables occurring in the head."""
        return frozenset(t for t in self.answer_terms if is_variable(t))

    @cached_property
    def existential_variables(self) -> frozenset[Variable]:
        """Body variables not occurring in the head."""
        return self.variables - self.answer_variables

    @cached_property
    def constants(self) -> frozenset[Constant]:
        """All constants of the query (body and head)."""
        head_consts = frozenset(t for t in self.answer_terms if is_constant(t))
        return atoms_constants(self.body) | head_consts

    @cached_property
    def variable_occurrences(self) -> dict[Variable, int]:
        """Number of occurrences of each variable in the whole query.

        Occurrences in the head count (the paper: for non-Boolean CQs a
        variable is *shared* if it occurs more than once in the query,
        considering also the head).
        """
        counts: dict[Variable, int] = {}
        for atom in self.body:
            for term in atom.terms:
                if is_variable(term):
                    counts[term] = counts.get(term, 0) + 1
        for term in self.answer_terms:
            if is_variable(term):
                counts[term] = counts.get(term, 0) + 1
        return counts

    @cached_property
    def shared_variables(self) -> frozenset[Variable]:
        """Variables occurring more than once in the query (head included)."""
        return frozenset(
            v for v, count in self.variable_occurrences.items() if count > 1
        )

    def is_shared(self, term: Term) -> bool:
        """``True`` iff *term* is a shared variable of the query."""
        return isinstance(term, Variable) and term in self.shared_variables

    # -- transformations -----------------------------------------------------

    def apply(self, substitution: Substitution | Mapping[Term, Term]) -> "ConjunctiveQuery":
        """Apply a substitution to body and head, returning a new query."""
        if not isinstance(substitution, Substitution):
            substitution = Substitution(dict(substitution))
        return self.derive(substitution)

    def derive(
        self,
        substitution: Substitution,
        removed: Collection[Atom] = (),
        added: Sequence[Atom] = (),
        fingerprint: CanonicalFingerprint | None = None,
    ) -> "ConjunctiveQuery":
        """The query ``γ(body − removed) ∪ γ(added)`` with head ``γ(answer_terms)``.

        ``γ`` is *substitution*.  A factorisation step derives with
        nothing removed or added, a rewriting step removes the resolved
        atoms and adds the rule body (Algorithm 1).  Applying ``γ`` while
        the new body is assembled matters: the body without the removed
        atoms may lose an answer variable that ``γ`` reintroduces
        through the rule's frontier.

        *fingerprint*, when given, must be the fingerprint of
        :func:`repro.logic.flat.encode_query` called with the same
        arguments — the derived query's own encoding, hence its key — and
        is kept as the derived query's :attr:`canonical_fingerprint`.
        """
        apply_atom = substitution.apply_atom
        new_body = [apply_atom(atom) for atom in self.body if atom not in removed]
        new_body.extend(apply_atom(atom) for atom in added)
        new_answer = tuple(substitution.apply_term(t) for t in self.answer_terms)
        derived = ConjunctiveQuery(new_body, new_answer, self.head_name)
        if fingerprint is not None:
            derived.__dict__["canonical_fingerprint"] = fingerprint
        return derived

    def replace_atoms(
        self, removed: Iterable[Atom], added: Iterable[Atom]
    ) -> "ConjunctiveQuery":
        """Return the query with *removed* body atoms replaced by *added* ones."""
        removed_set = set(removed)
        new_body = [a for a in self.body if a not in removed_set]
        new_body.extend(added)
        return ConjunctiveQuery(new_body, self.answer_terms, self.head_name)

    def drop_atoms(self, removed: Iterable[Atom]) -> "ConjunctiveQuery":
        """Return the query with the given body atoms removed."""
        return self.replace_atoms(removed, ())

    def with_body(self, body: Iterable[Atom]) -> "ConjunctiveQuery":
        """Return a copy of the query with a different body."""
        return ConjunctiveQuery(body, self.answer_terms, self.head_name)

    def rename_variables(self, factory=None, prefix: str = "R") -> "ConjunctiveQuery":
        """Return a variant of the query with canonically renamed variables."""
        counter = iter(range(1, len(self.variables) + 1))
        mapping: dict[Term, Term] = {}
        for atom in self.body:
            for term in atom.terms:
                if is_variable(term) and term not in mapping:
                    if factory is not None:
                        mapping[term] = factory()
                    else:
                        mapping[term] = Variable(f"{prefix}{next(counter)}")
        for term in self.answer_terms:
            if is_variable(term) and term not in mapping:
                if factory is not None:
                    mapping[term] = factory()
                else:
                    mapping[term] = Variable(f"{prefix}{next(counter)}")
        return self.apply(Substitution(mapping))

    def freeze(self) -> tuple[tuple[Atom, ...], Substitution]:
        """Freeze the query: replace each variable with a fresh constant.

        Returns the frozen body (the *canonical database* of the query) and
        the freezing substitution.  Freezing is the standard device used to
        check containment and by the chase & back-chase algorithm (Section 2).
        """
        mapping: dict[Term, Term] = {}
        for index, variable in enumerate(sorted(self.variables, key=str)):
            mapping[variable] = Constant(f"__frozen_{index}_{variable.name}")
        substitution = Substitution(mapping)
        return substitution.apply_atoms(self.body), substitution

    # -- structural comparisons ----------------------------------------------

    @cached_property
    def signature(self) -> tuple:
        """A cheap hashable invariant for bucketing variant candidates.

        Two variant queries necessarily have equal signatures; the converse
        need not hold, so the signature is only used to avoid expensive
        bijection searches.
        """
        body_profile = tuple(
            sorted(
                (
                    atom.name,
                    atom.arity,
                    tuple(
                        "c:" + str(t)
                        if is_constant(t)
                        else ("a" if t in self.answer_variables else "e")
                        + str(self.variable_occurrences.get(t, 0))
                        for t in atom.terms
                    ),
                )
                for atom in self.body_set
            )
        )
        head_profile = tuple(
            "c:" + str(t) if is_constant(t) else "v" for t in self.answer_terms
        )
        return (len(self.body_set), head_profile, body_profile)

    @cached_property
    def canonical_fingerprint(self) -> CanonicalFingerprint:
        """Interning key plus exactness flag (see :mod:`repro.logic.canonical`).

        The key is invariant under variable renaming and body-atom
        reordering, so :class:`repro.queries.ucq.QuerySet` uses it to bucket
        queries and replace linear variant scans by a hash probe.  When the
        flag is ``True`` the key is a complete invariant for this query: any
        other exact query with an equal key is certainly a variant.
        """
        return _canonical_fingerprint(self)

    @property
    def canonical_key(self) -> CanonicalKey:
        """The order- and renaming-invariant interning key of the query."""
        return self.canonical_fingerprint[0]

    def is_variant_of(self, other: "ConjunctiveQuery") -> bool:
        """``True`` iff the two queries are equal modulo bijective variable renaming.

        The bijection must map the head of one query onto the head of the
        other (answer terms position-wise) and the body onto the body.
        """
        if self.arity != other.arity:
            return False
        if self.signature != other.signature:
            return False
        if self.body_set == other.body_set and self.answer_terms == other.answer_terms:
            return True
        for bijection in variable_bijections(tuple(self.body_set), tuple(other.body_set)):
            image = tuple(bijection.apply_term(t) for t in self.answer_terms)
            if image == other.answer_terms:
                return True
        return False

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        head = f"{self.head_name}({', '.join(str(t) for t in self.answer_terms)})"
        body = ", ".join(repr(a) for a in self.body)
        return f"{head} <- {body}"


def encoded_fingerprint(flat: FlatQuery) -> CanonicalFingerprint:
    """The canonical fingerprint of a query given as its flat encoding.

    Calls the same function :attr:`ConjunctiveQuery.canonical_fingerprint`
    does, so a key taken from an encoding is one call of it like any
    other: the rewriting engine keys each candidate this way, before (and
    mostly instead of) building the candidate's query.
    """
    return _canonical_fingerprint(flat)


def boolean_query(body: Iterable[Atom]) -> ConjunctiveQuery:
    """Convenience constructor for a BCQ."""
    return ConjunctiveQuery(body, (), "q")
