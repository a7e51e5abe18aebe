"""Unification and most general unifiers (MGUs), with memoisation support.

Section 5 of the paper defines: a set of atoms ``A = {a1, ..., an}`` (n ≥ 2)
*unifies* if there exists a substitution ``γ`` (a *unifier*) such that
``γ(a1) = ... = γ(an)``; a *most general unifier* ``γA`` is a unifier such
that every other unifier factors through it.  The MGU of a singleton set is
the identity.

The implementation is the classical Robinson-style algorithm restricted to
function-free terms, which makes it linear in the number of term pairs:

* a variable unifies with anything (bind it);
* two constants unify iff they are equal;
* a constant never unifies with a labelled null (nulls in queries/TGDs do not
  occur; nulls are included for completeness when unifying instance atoms).

The rewriting engine asks the *same* unification question over and over
across the UCQ frontier: whether a candidate atom set of a query unifies
with a TGD head depends only on the *shape* of the atom set — its
predicates, its variable-equality pattern and its constants — never on the
variable names, and hundreds of generated CQs share a handful of shapes.
:func:`atom_sequence_profile` computes that shape as a hashable key
(variables become first-occurrence De Bruijn indices plus caller-chosen
markings) and :class:`UnificationMemo` is the keyed outcome table used by
:mod:`repro.core.applicability` to skip repeated MGU attempts.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Sequence

from .atoms import Atom
from .flat import flat_mgu
from .substitution import Substitution
from .terms import Term, is_constant, is_null, is_variable


def _find(representative: dict[Term, Term], term: Term) -> Term:
    """Union-find lookup with path compression."""
    root = term
    while representative.get(root, root) != root:
        root = representative[root]
    while representative.get(term, term) != term:
        representative[term], term = root, representative[term]
    return root


def _union(representative: dict[Term, Term], left: Term, right: Term) -> bool:
    """Merge the classes of *left* and *right*.

    Non-variable terms (constants, nulls) are preferred as class
    representatives.  Returns ``False`` on a clash (two distinct
    constants/nulls in the same class).
    """
    root_left = _find(representative, left)
    root_right = _find(representative, right)
    if root_left == root_right:
        return True
    left_rigid = not is_variable(root_left)
    right_rigid = not is_variable(root_right)
    if left_rigid and right_rigid:
        return False
    if left_rigid:
        representative[root_right] = root_left
    else:
        representative[root_left] = root_right
    return True


def unify_terms(pairs: Iterable[tuple[Term, Term]]) -> Substitution | None:
    """Compute an MGU for a set of term equations, or ``None`` if none exists."""
    representative: dict[Term, Term] = {}
    for left, right in pairs:
        if not _union(representative, left, right):
            return None
    bindings: dict[Term, Term] = {}
    for term in list(representative):
        root = _find(representative, term)
        if term != root:
            bindings[term] = root
    return Substitution(bindings)


def mgu(atoms: Sequence[Atom]) -> Substitution | None:
    """Most general unifier of a set/sequence of atoms.

    Returns ``None`` if the atoms do not unify (different predicates, clashing
    constants, ...).  For a singleton or empty sequence the identity
    substitution is returned, matching the paper's convention.

    Runs on the packed union-find of :func:`repro.logic.flat.flat_mgu`;
    the term-dict original is kept as :func:`mgu_reference` and the two
    are held equal by ``tests/logic/test_flat_agreement.py``.
    """
    return flat_mgu(atoms)


def mgu_reference(atoms: Sequence[Atom]) -> Substitution | None:
    """Object-based reference implementation of :func:`mgu`."""
    atoms = list(atoms)
    if len(atoms) <= 1:
        return Substitution()
    first = atoms[0]
    pairs: list[tuple[Term, Term]] = []
    for other in atoms[1:]:
        if other.predicate != first.predicate:
            return None
        pairs.extend(zip(first.terms, other.terms))
    return unify_terms(pairs)


def unifiable(atoms: Sequence[Atom]) -> bool:
    """``True`` iff the atoms admit a unifier."""
    return mgu(atoms) is not None


def unify_atoms(left: Atom, right: Atom) -> Substitution | None:
    """MGU of exactly two atoms (``None`` if they do not unify)."""
    return mgu([left, right])


def is_unifier(substitution: Substitution, atoms: Sequence[Atom]) -> bool:
    """Check that *substitution* maps all *atoms* to the same atom."""
    images = {substitution.apply_atom(a) for a in atoms}
    return len(images) <= 1


def rename_apart(
    atoms: Sequence[Atom], avoid: Iterable[Term], fresh_factory
) -> tuple[tuple[Atom, ...], Substitution]:
    """Rename the variables of *atoms* so they avoid the variables in *avoid*.

    Returns the renamed atoms together with the renaming substitution.  Used
    before resolving a TGD against a query so that the two have disjoint
    variables (assumed w.l.o.g. throughout Section 5 of the paper).
    """
    avoid_set = {t for t in avoid if is_variable(t)}
    renaming: dict[Term, Term] = {}
    for atom in atoms:
        for term in atom.terms:
            if is_variable(term) and term in avoid_set and term not in renaming:
                renaming[term] = fresh_factory()
    substitution = Substitution(renaming)
    return substitution.apply_atoms(atoms), substitution


#: A renaming-invariant shape of an atom sequence (see
#: :func:`atom_sequence_profile`): hashable, comparable, usable as a memo key.
AtomProfile = tuple


def atom_sequence_profile(
    atoms: Sequence[Atom],
    marked: AbstractSet[Term] = frozenset(),
    kept_constants: AbstractSet[Term] | None = None,
) -> AtomProfile:
    """A renaming-invariant, order-sensitive shape key for *atoms*.

    Two atom sequences receive equal profiles iff one maps onto the other
    by a bijective variable renaming that preserves membership in *marked*
    (and the order of the sequences).  Concretely, every variable is
    replaced by its first-occurrence index across the whole sequence plus a
    flag telling whether it belongs to *marked*; constants and nulls are
    kept by ``repr`` (they are rigid, so their identity matters).

    Every unification-shaped question is invariant under such renamings:
    whether the sequence unifies with a fixed (variable-disjoint) atom, and
    any property that additionally consults *marked* — the applicability
    condition of Definition 1 marks the query's shared variables, making
    the profile a sound memo key for the whole check, not only the MGU
    attempt (see :class:`repro.core.applicability.ApplicabilityMemo`).

    With *kept_constants* given, only the constants in that set keep their
    value; every other constant is replaced by its first-occurrence index
    among such constants, so the profile is also invariant under a
    bijective renaming of those constants.  A question that compares the
    sequence's constants only with each other and with the constants of
    a rule set — unification against a rule head, equality types along a
    rule chain — cannot tell such constants apart, so passing the rules'
    constants keeps the key sound while bounding the number of distinct
    keys for a fixed rule set (see :func:`repro.core.applicability.shape_key`).
    """
    indices: dict[Term, int] = {}
    constant_indices: dict[Term, int] = {}
    rows = []
    for atom in atoms:
        labels = []
        for term in atom.terms:
            if is_variable(term):
                index = indices.setdefault(term, len(indices))
                labels.append((1, index, term in marked))
            elif (
                kept_constants is None
                or term in kept_constants
                or not is_constant(term)
            ):
                labels.append((0, repr(term)))
            else:
                index = constant_indices.setdefault(term, len(constant_indices))
                labels.append((2, index))
        rows.append((atom.name, atom.arity, tuple(labels)))
    return tuple(rows)


class UnificationMemo:
    """A keyed outcome table for repeated unification-shaped questions.

    The memo stores arbitrary outcomes (booleans in practice) under
    caller-provided keys, typically ``(rule id, atom profile)`` pairs.  It
    deliberately knows nothing about rules or queries: the *caller* is
    responsible for choosing keys such that equal keys imply equal
    outcomes — :func:`atom_sequence_profile` provides the query half of
    such a key, a stable rule identifier the other half.

    ``hits``/``misses`` counters feed the ``unification_memo_*`` fields of
    :class:`repro.core.rewriter.RewritingStatistics`.
    """

    __slots__ = ("_table", "hits", "misses")

    _MISSING = object()

    def __init__(self) -> None:
        self._table: dict[object, object] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, key: object, compute) -> object:
        """Return the memoised outcome for *key*, computing it on first use."""
        outcome = self._table.get(key, self._MISSING)
        if outcome is not self._MISSING:
            self.hits += 1
            return outcome
        self.misses += 1
        outcome = compute()
        self._table[key] = outcome
        return outcome


__all__ = [
    "AtomProfile",
    "UnificationMemo",
    "atom_sequence_profile",
    "mgu",
    "mgu_reference",
    "unifiable",
    "unify_atoms",
    "unify_terms",
    "is_unifier",
    "rename_apart",
]
