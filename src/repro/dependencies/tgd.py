"""Tuple-generating dependencies (TGDs), the rules of Datalog±.

A TGD has the form ``∀X ∀Y φ(X, Y) → ∃Z ψ(X, Z)`` (Section 3.2): whenever the
body holds, the head must hold for *some* value of the existential variables.
The variables shared between body and head (``X``) are called the *frontier*;
the remaining head variables (``Z``) are existentially quantified.

After the normalisation of Lemmas 1 and 2 (see
:mod:`repro.dependencies.normalization`), every TGD used by the rewriting
algorithms has a single head atom containing at most one existential variable
that occurs exactly once; :attr:`TGD.existential_position` (``πσ`` in the
paper) is then well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ..logic.atoms import Atom, Position, Predicate, atoms_predicates, atoms_variables
from ..logic.substitution import Substitution
from ..logic.terms import Constant, Term, Variable, is_constant, is_variable


@dataclass(frozen=True)
class TGD:
    """An immutable tuple-generating dependency ``body → head``."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    label: str = ""

    def __init__(
        self, body: Iterable[Atom], head: Iterable[Atom], label: str = ""
    ) -> None:
        body = tuple(body)
        head = tuple(head)
        if not body:
            raise ValueError("a TGD must have at least one body atom")
        if not head:
            raise ValueError("a TGD must have at least one head atom")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "label", label)

    # -- variable classification ----------------------------------------------

    @cached_property
    def body_variables(self) -> frozenset[Variable]:
        """Variables occurring in the body (the universally quantified ones)."""
        return atoms_variables(self.body)

    @cached_property
    def head_variables(self) -> frozenset[Variable]:
        """Variables occurring in the head."""
        return atoms_variables(self.head)

    @cached_property
    def frontier(self) -> frozenset[Variable]:
        """Variables shared by body and head (propagated, not invented)."""
        return self.body_variables & self.head_variables

    @cached_property
    def existential_variables(self) -> frozenset[Variable]:
        """Head variables that do not occur in the body (the ``∃Z`` of the rule)."""
        return self.head_variables - self.body_variables

    @cached_property
    def constants(self) -> frozenset[Constant]:
        """Constants mentioned anywhere in the rule."""
        result: set[Constant] = set()
        for atom in self.body + self.head:
            result.update(atom.constants())
        return frozenset(result)

    @cached_property
    def predicates(self) -> frozenset[Predicate]:
        """Predicates mentioned anywhere in the rule."""
        return atoms_predicates(self.body) | atoms_predicates(self.head)

    # -- shape predicates -------------------------------------------------------

    @property
    def is_linear(self) -> bool:
        """``True`` iff the TGD has a single body atom (Section 4.1)."""
        return len(self.body) == 1

    @property
    def is_full(self) -> bool:
        """``True`` iff the TGD has no existential variables (a "full" TGD)."""
        return not self.existential_variables

    @property
    def is_single_head(self) -> bool:
        """``True`` iff the TGD has exactly one head atom."""
        return len(self.head) == 1

    @property
    def is_normalized(self) -> bool:
        """``True`` iff single-head with at most one existential variable occurring once.

        This is the normal form assumed by the rewriting algorithms (obtained
        via Lemmas 1 and 2).
        """
        if not self.is_single_head:
            return False
        existentials = [
            t for t in self.head[0].terms if isinstance(t, Variable)
            and t in self.existential_variables
        ]
        return len(existentials) <= 1

    @cached_property
    def existential_position(self) -> Position | None:
        """The position ``πσ`` of the existential variable in the head.

        Only meaningful for normalised TGDs; ``None`` for full TGDs.  Raises
        :class:`ValueError` when the TGD is not normalised (the position would
        be ambiguous).
        """
        if not self.is_single_head:
            raise ValueError(f"{self!r} is not single-head; normalise it first")
        head_atom = self.head[0]
        positions = [
            Position(head_atom.predicate, i)
            for i, t in enumerate(head_atom.terms, start=1)
            if isinstance(t, Variable) and t in self.existential_variables
        ]
        if not positions:
            return None
        if len(positions) > 1:
            raise ValueError(
                f"{self!r} has several existential occurrences; normalise it first"
            )
        return positions[0]

    @property
    def guard(self) -> Atom | None:
        """A body atom containing all universally quantified variables, if any."""
        for atom in self.body:
            if self.body_variables <= atom.variables():
                return atom
        return None

    @property
    def is_guarded(self) -> bool:
        """``True`` iff some body atom is a guard (Section 4.1)."""
        return self.guard is not None

    # -- transformations ---------------------------------------------------------

    def apply(self, substitution: Substitution) -> "TGD":
        """Apply a substitution to body and head, returning a new TGD."""
        return TGD(
            substitution.apply_atoms(self.body),
            substitution.apply_atoms(self.head),
            self.label,
        )

    def rename_apart(self, avoid: Iterable[Term], factory) -> "TGD":
        """Rename all variables of the rule away from those in *avoid*.

        The rewriting algorithm assumes w.l.o.g. that the variables of the
        query and of the TGD are disjoint; this helper enforces it.  The
        factory guarantees freshness only against its *own* previous
        output, so each minted name is additionally checked against
        *avoid* and the rule's variables — a query that itself mentions
        ``W1`` must not receive ``W1`` as the "fresh" replacement.
        """
        avoid_set = {t for t in avoid if is_variable(t)}
        own_variables = self.body_variables | self.head_variables
        mapping: dict[Term, Term] = {}
        for variable in sorted(own_variables, key=str):
            if variable in avoid_set:
                replacement = factory()
                while replacement in avoid_set or replacement in own_variables:
                    replacement = factory()
                mapping[variable] = replacement
        if not mapping:
            return self
        return self.apply(Substitution(mapping))

    def refresh(self, factory) -> "TGD":
        """Return a copy with *all* variables renamed to fresh ones."""
        mapping = {
            variable: factory()
            for variable in sorted(self.body_variables | self.head_variables, key=str)
        }
        return self.apply(Substitution(mapping))

    # -- display -------------------------------------------------------------------

    def __repr__(self) -> str:
        body = ", ".join(repr(a) for a in self.body)
        head = ", ".join(repr(a) for a in self.head)
        existentials = sorted(self.existential_variables, key=str)
        prefix = ""
        if existentials:
            prefix = "∃" + ",".join(str(v) for v in existentials) + " "
        name = f"[{self.label}] " if self.label else ""
        return f"{name}{body} -> {prefix}{head}"


def tgd(body: Sequence[Atom] | Atom, head: Sequence[Atom] | Atom, label: str = "") -> TGD:
    """Convenience constructor accepting single atoms or sequences."""
    if isinstance(body, Atom):
        body = (body,)
    if isinstance(head, Atom):
        head = (head,)
    return TGD(body, head, label)


def schema_predicates(tgds: Iterable[TGD]) -> frozenset[Predicate]:
    """All predicates mentioned by a set of TGDs."""
    result: set[Predicate] = set()
    for rule in tgds:
        result.update(rule.predicates)
    return frozenset(result)


def schema_constants(tgds: Iterable[TGD]) -> frozenset[Constant]:
    """All constants mentioned by a set of TGDs."""
    result: set[Constant] = set()
    for rule in tgds:
        result.update(rule.constants)
    return frozenset(result)


def schema_positions(tgds: Iterable[TGD]) -> frozenset[Position]:
    """All positions of the schema induced by a set of TGDs."""
    positions: set[Position] = set()
    for predicate in schema_predicates(tgds):
        for index in range(1, predicate.arity + 1):
            positions.add(Position(predicate, index))
    return frozenset(positions)
