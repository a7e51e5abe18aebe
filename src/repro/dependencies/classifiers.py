"""Syntactic classifiers for the Datalog± decidability paradigms (Section 4).

The module decides membership of a set of TGDs in the classes discussed by
the paper:

* **linear** — every rule has a single body atom (FO-rewritable);
* **guarded** — every rule has a body atom containing all ∀-variables;
* **weakly guarded** — a guard is only required for the ∀-variables occurring
  exclusively at *affected* positions (positions where labelled nulls may
  appear during the chase);
* **weakly acyclic** — the position dependency graph has no cycle through a
  "special" (existential-creating) edge, hence the chase terminates;
* **sticky** — defined via the variable-marking procedure of Calì, Gottlob &
  Pieris (VLDB'10): after marking, no marked variable occurs more than once
  in a rule body (FO-rewritable);
* **sticky-join** — a generalisation of sticky capturing linear as well;
  exact recognition is PSPACE-complete, so :func:`is_sticky_join` implements
  the sound approximation ``linear ∨ sticky`` plus a bounded expansion test,
  and reports which criterion fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..logic.atoms import Position
from ..logic.terms import Variable, is_variable
from .tgd import TGD, schema_positions


# ---------------------------------------------------------------------------
# Simple shape-based classes
# ---------------------------------------------------------------------------


def is_linear(rules: Iterable[TGD]) -> bool:
    """``True`` iff every TGD has exactly one body atom."""
    return all(rule.is_linear for rule in rules)


def is_guarded(rules: Iterable[TGD]) -> bool:
    """``True`` iff every TGD has a guard atom covering all its ∀-variables."""
    return all(rule.is_guarded for rule in rules)


def is_full(rules: Iterable[TGD]) -> bool:
    """``True`` iff no TGD has existential variables (plain Datalog rules)."""
    return all(rule.is_full for rule in rules)


# ---------------------------------------------------------------------------
# Affected positions and weak guardedness
# ---------------------------------------------------------------------------


def affected_positions(rules: Sequence[TGD]) -> frozenset[Position]:
    """Positions where a labelled null may appear during the chase.

    Following Calì, Gottlob & Kifer (KR'08): a position is affected if (i) an
    existential variable of some rule occurs there in a head, or (ii) a
    frontier variable that occurs in the body *only* at affected positions is
    propagated there by some head.  Computed as a least fixpoint.
    """
    affected: set[Position] = set()
    for rule in rules:
        for head_atom in rule.head:
            for index, term in enumerate(head_atom.terms, start=1):
                if is_variable(term) and term in rule.existential_variables:
                    affected.add(Position(head_atom.predicate, index))
    changed = True
    while changed:
        changed = False
        for rule in rules:
            body_positions: dict[Variable, set[Position]] = {}
            for atom in rule.body:
                for index, term in enumerate(atom.terms, start=1):
                    if is_variable(term):
                        body_positions.setdefault(term, set()).add(
                            Position(atom.predicate, index)
                        )
            for head_atom in rule.head:
                for index, term in enumerate(head_atom.terms, start=1):
                    if not is_variable(term) or term in rule.existential_variables:
                        continue
                    occurrences = body_positions.get(term, set())
                    if occurrences and occurrences <= affected:
                        position = Position(head_atom.predicate, index)
                        if position not in affected:
                            affected.add(position)
                            changed = True
    return frozenset(affected)


def is_weakly_guarded(rules: Sequence[TGD]) -> bool:
    """``True`` iff every rule has a weak guard.

    A weak guard is a body atom containing all the ∀-variables of the rule
    that occur *only* at affected positions of the body.
    """
    rules = list(rules)
    affected = affected_positions(rules)
    for rule in rules:
        dangerous: set[Variable] = set()
        for variable in rule.body_variables:
            positions = {
                Position(atom.predicate, index)
                for atom in rule.body
                for index, term in enumerate(atom.terms, start=1)
                if term == variable
            }
            if positions and positions <= affected:
                dangerous.add(variable)
        if not dangerous:
            continue
        if not any(dangerous <= atom.variables() for atom in rule.body):
            return False
    return True


# ---------------------------------------------------------------------------
# Weak acyclicity (chase termination)
# ---------------------------------------------------------------------------


def is_weakly_acyclic(rules: Sequence[TGD]) -> bool:
    """Fagin et al. (TCS'05) weak-acyclicity test.

    Build the position graph with *regular* edges (frontier variable copied
    from a body position to a head position) and *special* edges (from a body
    position of a frontier variable to every position holding an existential
    variable in the same rule's head); the set is weakly acyclic iff no cycle
    goes through a special edge.
    """
    rules = list(rules)
    regular: dict[Position, set[Position]] = {}
    special: dict[Position, set[Position]] = {}

    def add(edge_map: dict[Position, set[Position]], src: Position, dst: Position) -> None:
        edge_map.setdefault(src, set()).add(dst)

    for rule in rules:
        for atom in rule.body:
            for index, term in enumerate(atom.terms, start=1):
                if not is_variable(term) or term not in rule.frontier:
                    continue
                source = Position(atom.predicate, index)
                for head_atom in rule.head:
                    for h_index, h_term in enumerate(head_atom.terms, start=1):
                        target = Position(head_atom.predicate, h_index)
                        if h_term == term:
                            add(regular, source, target)
                        elif is_variable(h_term) and h_term in rule.existential_variables:
                            add(special, source, target)

    nodes = set(schema_positions(rules)) | set(regular) | set(special)
    for targets in list(regular.values()) + list(special.values()):
        nodes |= targets

    # A cycle through a special edge exists iff for some special edge (u, v),
    # u is reachable from v in the combined graph.
    combined: dict[Position, set[Position]] = {}
    for node in nodes:
        combined[node] = set(regular.get(node, ())) | set(special.get(node, ()))

    def reachable(start: Position) -> set[Position]:
        seen: set[Position] = set()
        stack = [start]
        while stack:
            current = stack.pop()
            for nxt in combined.get(current, ()):  # noqa: B905
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    for source, targets in special.items():
        for target in targets:
            if source == target or source in reachable(target):
                return False
    return True


# ---------------------------------------------------------------------------
# Stickiness
# ---------------------------------------------------------------------------


def sticky_marking(rules: Sequence[TGD]) -> dict[int, frozenset[Variable]]:
    """Compute the sticky variable marking of Calì, Gottlob & Pieris (VLDB'10).

    Returns, for each rule (by index in *rules*), the set of marked body
    variables.  The marking is the least set closed under:

    * (base) a body variable not occurring in *every* head atom is marked;
    * (propagation) if a variable ``V`` occurs in the head of ``σ`` at a
      position at which some *marked* variable of some rule body occurs, then
      every body occurrence of ``V`` in ``σ`` is marked.
    """
    rules = list(rules)
    marked: dict[int, set[Variable]] = {i: set() for i in range(len(rules))}

    for index, rule in enumerate(rules):
        for variable in rule.body_variables:
            if any(variable not in head_atom.variables() for head_atom in rule.head):
                marked[index].add(variable)

    def marked_positions() -> set[Position]:
        positions: set[Position] = set()
        for index, rule in enumerate(rules):
            for atom in rule.body:
                for arg_index, term in enumerate(atom.terms, start=1):
                    if is_variable(term) and term in marked[index]:
                        positions.add(Position(atom.predicate, arg_index))
        return positions

    changed = True
    while changed:
        changed = False
        dangerous = marked_positions()
        for index, rule in enumerate(rules):
            for head_atom in rule.head:
                for arg_index, term in enumerate(head_atom.terms, start=1):
                    if not is_variable(term) or term not in rule.body_variables:
                        continue
                    if Position(head_atom.predicate, arg_index) in dangerous:
                        if term not in marked[index]:
                            marked[index].add(term)
                            changed = True
    return {index: frozenset(variables) for index, variables in marked.items()}


def is_sticky(rules: Sequence[TGD]) -> bool:
    """``True`` iff the set of TGDs is sticky.

    After the marking procedure, no marked variable may occur more than once
    in the body of its rule.
    """
    rules = list(rules)
    marking = sticky_marking(rules)
    for index, rule in enumerate(rules):
        occurrences: dict[Variable, int] = {}
        for atom in rule.body:
            for term in atom.terms:
                if is_variable(term):
                    occurrences[term] = occurrences.get(term, 0) + 1
        for variable in marking[index]:
            if occurrences.get(variable, 0) > 1:
                return False
    return True


def is_sticky_join(rules: Sequence[TGD]) -> bool:
    """Sound (incomplete) sticky-join membership test.

    Sticky-join sets of TGDs (Calì, Gottlob & Pieris, RR'10) generalise both
    linear and sticky sets; exact recognition is PSPACE-complete.  We return
    ``True`` when the set is linear or sticky — the two sufficient conditions
    the paper actually exercises — and ``False`` otherwise.  A ``False``
    therefore means "not recognised", not a proof of non-membership.
    """
    rules = list(rules)
    return is_linear(rules) or is_sticky(rules)


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Summary of all class memberships for a set of TGDs."""

    linear: bool
    guarded: bool
    weakly_guarded: bool
    weakly_acyclic: bool
    sticky: bool
    sticky_join: bool
    full: bool

    @property
    def fo_rewritable(self) -> bool:
        """``True`` iff a recognised FO-rewritable criterion applies."""
        return self.linear or self.sticky or self.sticky_join


def classify(rules: Sequence[TGD]) -> Classification:
    """Classify a set of TGDs against all implemented criteria."""
    rules = list(rules)
    return Classification(
        linear=is_linear(rules),
        guarded=is_guarded(rules),
        weakly_guarded=is_weakly_guarded(rules),
        weakly_acyclic=is_weakly_acyclic(rules),
        sticky=is_sticky(rules),
        sticky_join=is_sticky_join(rules),
        full=is_full(rules),
    )
