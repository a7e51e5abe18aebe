"""Tests for negative constraints and key dependencies."""

import pytest

from repro.logic.atoms import Atom, Predicate
from repro.logic.terms import Variable
from repro.dependencies.constraints import (
    KeyDependency,
    NegativeConstraint,
    first_conflict,
    is_non_conflicting,
    non_conflicting_set,
)
from repro.dependencies.tgd import tgd

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestNegativeConstraint:
    def test_empty_body_is_rejected(self):
        with pytest.raises(ValueError):
            NegativeConstraint(())

    def test_as_query_builds_a_boolean_query(self):
        constraint = NegativeConstraint(
            (Atom.of("student", X), Atom.of("professor", X)), label="disjoint"
        )
        query = constraint.as_query()
        assert query.is_boolean
        assert set(query.body) == set(constraint.body)

    def test_variables(self):
        constraint = NegativeConstraint((Atom.of("leads", X, Y),))
        assert constraint.variables == {X, Y}

    def test_repr_mentions_falsum(self):
        assert "⊥" in repr(NegativeConstraint((Atom.of("p", X),)))


class TestKeyDependency:
    def test_positions_are_validated(self):
        with pytest.raises(ValueError):
            KeyDependency(Predicate("r", 2), (3,))
        with pytest.raises(ValueError):
            KeyDependency(Predicate("r", 2), ())

    def test_positions_are_sorted_and_deduplicated(self):
        key = KeyDependency(Predicate("r", 3), (2, 1, 2))
        assert key.key_positions == (1, 2)
        assert key.non_key_positions == (3,)

    def test_violating_query_shape(self):
        key = KeyDependency(Predicate("r", 3), (1,))
        left, right, inequalities = key.violating_query().atoms()
        assert left.predicate == right.predicate == Predicate("r", 3)
        assert left[1] == right[1]  # key position shared
        assert len(inequalities) == 2  # one per non-key position


class TestNonConflicting:
    def test_different_head_predicate_is_non_conflicting(self):
        rule = tgd(Atom.of("p", X), Atom.of("q", X, Y))
        key = KeyDependency(Predicate("r", 2), (1,))
        assert is_non_conflicting(rule, key)

    def test_key_is_proper_subset_of_universal_positions_conflicts(self):
        # r(X, Y) -> s(X, Y): the key {1} of s is a proper subset of the
        # universal head positions {1, 2}, so a derived tuple can clash with a
        # stored one.
        rule = tgd(Atom.of("r", X, Y), Atom.of("s", X, Y))
        key = KeyDependency(Predicate("s", 2), (1,))
        assert not is_non_conflicting(rule, key)

    def test_existential_inside_key_is_non_conflicting(self):
        # p(X) -> ∃Y s(X, Y) with key {1, 2}: the key positions are not a
        # proper subset of the universal positions ({1}), so the rule can
        # never create a violating duplicate.
        rule = tgd(Atom.of("p", X), Atom.of("s", X, Y))
        key = KeyDependency(Predicate("s", 2), (1, 2))
        assert is_non_conflicting(rule, key)

    def test_whole_tuple_key_is_non_conflicting(self):
        rule = tgd(Atom.of("r", X, Y), Atom.of("s", X, Y))
        key = KeyDependency(Predicate("s", 2), (1, 2))
        assert is_non_conflicting(rule, key)

    def test_non_conflicting_set_checks_every_pair(self):
        rules = [
            tgd(Atom.of("p", X), Atom.of("q", X, Y)),
            tgd(Atom.of("r", X, Y), Atom.of("s", X, Y)),
        ]
        safe_keys = [KeyDependency(Predicate("q", 2), (1, 2))]
        unsafe_keys = [KeyDependency(Predicate("s", 2), (1,))]
        assert non_conflicting_set(rules, safe_keys)
        assert not non_conflicting_set(rules, unsafe_keys)

    def test_first_conflict_names_the_first_conflicting_pair(self):
        rules = [
            tgd(Atom.of("p", X), Atom.of("q", X, Y)),
            tgd(Atom.of("r", X, Y), Atom.of("s", X, Y)),
            tgd(Atom.of("t", X, Y), Atom.of("s", X, Y)),
        ]
        safe = KeyDependency(Predicate("q", 2), (1, 2))
        unsafe = KeyDependency(Predicate("s", 2), (1,))
        assert first_conflict(rules, [safe]) is None
        assert first_conflict(rules, [safe, unsafe]) == (rules[1], unsafe)
