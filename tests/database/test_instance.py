"""Tests for in-memory relational instances."""

import pytest

from repro.database.instance import RelationalInstance, database_from_tuples
from repro.database.schema import RelationalSchema
from repro.dependencies.constraints import KeyDependency
from repro.logic.atoms import Atom, Predicate
from repro.logic.terms import Constant, Variable

a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestMutation:
    def test_add_ground_atom(self):
        instance = RelationalInstance()
        assert instance.add(Atom.of("r", a, b))
        assert not instance.add(Atom.of("r", a, b))  # duplicate
        assert len(instance) == 1

    def test_non_ground_atoms_are_rejected(self):
        with pytest.raises(ValueError):
            RelationalInstance().add(Atom.of("r", Variable("X"), a))

    def test_add_tuple_wraps_python_values(self):
        instance = RelationalInstance()
        instance.add_tuple("stock", ("s1", "ACME", 12))
        assert Atom.of("stock", Constant("s1"), Constant("ACME"), Constant(12)) in instance

    def test_add_all_counts_new_facts(self):
        instance = RelationalInstance()
        added = instance.add_all([Atom.of("p", a), Atom.of("p", a), Atom.of("p", b)])
        assert added == 2

    def test_schema_is_extended_on_insert(self):
        schema = RelationalSchema()
        instance = RelationalInstance(schema=schema)
        instance.add_tuple("r", ("x", "y"))
        assert "r" in schema

    def test_database_from_tuples(self):
        instance = database_from_tuples([("r", ("x", "y")), ("p", ("x",))])
        assert len(instance) == 2


class TestInspection:
    def setup_method(self):
        self.instance = database_from_tuples(
            [("r", ("a", "b")), ("r", ("a", "c")), ("p", ("a",))]
        )

    def test_relation_lookup(self):
        assert len(self.instance.relation(Predicate("r", 2))) == 2
        assert len(self.instance.relation_by_name("p", 1)) == 1
        assert self.instance.relation(Predicate("missing", 1)) == frozenset()

    def test_predicates(self):
        assert {p.name for p in self.instance.predicates()} == {"r", "p"}

    def test_probe_uses_position_value_index(self):
        r = Predicate("r", 2)
        # Positions are 0-based; one bound position selects exactly.
        assert set(self.instance.probe(r, [(0, a)])) == {
            Atom.of("r", a, b),
            Atom.of("r", a, c),
        }
        assert set(self.instance.probe(r, [(1, c)])) == {Atom.of("r", a, c)}
        # A bound value with no facts is an empty bucket.
        assert not self.instance.probe(r, [(1, Constant("zzz"))])
        assert not self.instance.probe(r, [(0, a), (1, Constant("zzz"))])

    def test_unbound_probe_returns_whole_relation(self):
        r = Predicate("r", 2)
        assert set(self.instance.probe(r, ())) == self.instance.relation(r)
        assert not self.instance.probe(Predicate("missing", 1), ())

    def test_constants_active_domain(self):
        assert self.instance.constants() == {a, b, c}

    def test_facts_is_a_frozen_copy(self):
        facts = self.instance.facts
        assert isinstance(facts, frozenset)
        assert len(facts) == 3


class TestKeySatisfaction:
    def test_key_violation_is_detected(self):
        instance = database_from_tuples([("r", ("k", "x")), ("r", ("k", "y"))])
        key = KeyDependency(Predicate("r", 2), (1,))
        assert not instance.satisfies_key(key)

    def test_key_satisfaction(self):
        instance = database_from_tuples([("r", ("k1", "x")), ("r", ("k2", "x"))])
        key = KeyDependency(Predicate("r", 2), (1,))
        assert instance.satisfies_key(key)
        assert instance.satisfies_keys([key])

    def test_composite_key(self):
        instance = database_from_tuples(
            [("s", ("k", "1", "x")), ("s", ("k", "2", "x")), ("s", ("m", "1", "y"))]
        )
        # No two tuples agree on positions {1, 2}, but the first two agree on
        # positions {1, 3}.
        assert instance.satisfies_key(KeyDependency(Predicate("s", 3), (1, 2)))
        assert not instance.satisfies_key(KeyDependency(Predicate("s", 3), (1, 3)))

    def test_empty_relation_trivially_satisfies_keys(self):
        assert RelationalInstance().satisfies_key(KeyDependency(Predicate("r", 2), (1,)))


class TestRemoval:
    def test_remove_deletes_and_bumps_epoch(self):
        instance = RelationalInstance()
        fact = Atom.of("r", a, b)
        instance.add(fact)
        epoch = instance.epoch
        assert instance.remove(fact)
        assert fact not in instance
        assert len(instance) == 0
        assert instance.epoch == epoch + 1

    def test_removing_an_absent_fact_is_a_noop(self):
        instance = RelationalInstance()
        epoch = instance.epoch
        assert not instance.remove(Atom.of("r", a, b))
        assert instance.epoch == epoch

    def test_remove_updates_the_position_indexes(self):
        instance = RelationalInstance()
        keep, drop = Atom.of("r", a, b), Atom.of("r", a, c)
        instance.add(keep)
        instance.add(drop)
        instance.remove(drop)
        assert set(instance.probe(Predicate("r", 2), [(0, a)])) == {keep}
        assert not instance.probe(Predicate("r", 2), [(1, c)])

    def test_remove_tuple_wraps_python_values(self):
        instance = RelationalInstance()
        instance.add_tuple("stock", ("s1", 12))
        assert instance.remove_tuple("stock", ("s1", 12))
        assert len(instance) == 0


class TestChangeLog:
    def test_delta_replays_the_mutations_in_order(self):
        instance = RelationalInstance()
        instance.add(Atom.of("r", a))
        epoch = instance.epoch
        instance.add(Atom.of("r", b))
        instance.remove(Atom.of("r", a))
        assert instance.changes_since(epoch) == [
            (True, Atom.of("r", b)),
            (False, Atom.of("r", a)),
        ]

    def test_current_epoch_yields_an_empty_delta(self):
        instance = RelationalInstance()
        instance.add(Atom.of("r", a))
        assert instance.changes_since(instance.epoch) == []

    def test_future_epoch_is_unavailable(self):
        instance = RelationalInstance()
        assert instance.changes_since(instance.epoch + 1) is None

    def test_noop_mutations_do_not_pollute_the_log(self):
        instance = RelationalInstance()
        instance.add(Atom.of("r", a))
        epoch = instance.epoch
        instance.add(Atom.of("r", a))  # duplicate insert
        instance.remove(Atom.of("r", b))  # absent removal
        assert instance.changes_since(epoch) == []

    def test_overflowed_log_reports_unavailable(self, monkeypatch):
        monkeypatch.setattr(RelationalInstance, "MAX_TRACKED_CHANGES", 3)
        instance = RelationalInstance()
        instance.add(Atom.of("r", a))
        epoch = instance.epoch
        for index in range(4):
            instance.add_tuple("r", (f"v{index}",))
        assert instance.changes_since(epoch) is None
        # The most recent window is still replayable.
        recent = instance.changes_since(instance.epoch - 3)
        assert recent is not None and len(recent) == 3

    def test_log_capacity_is_a_constructor_parameter(self):
        instance = RelationalInstance(max_tracked_changes=2)
        assert instance.max_tracked_changes == 2
        instance.add(Atom.of("r", a))
        epoch = instance.epoch
        instance.add(Atom.of("r", b))
        instance.add(Atom.of("r", c))
        assert instance.changes_since(epoch) == [
            (True, Atom.of("r", b)),
            (True, Atom.of("r", c)),
        ]
        instance.add_tuple("r", ("d",))
        assert instance.changes_since(epoch) is None

    def test_default_capacity_is_the_class_attribute(self):
        assert RelationalInstance().max_tracked_changes == (
            RelationalInstance.MAX_TRACKED_CHANGES
        )

    def test_negative_capacity_is_rejected(self):
        with pytest.raises(ValueError):
            RelationalInstance(max_tracked_changes=-1)

    def test_truncation_boundary_is_exact(self):
        # Regression: the oldest epoch whose delta is still replayable is
        # exactly `epoch - capacity`; one step earlier must report None,
        # never a silently short delta.
        instance = RelationalInstance(max_tracked_changes=3)
        for index in range(6):
            instance.add_tuple("r", (f"v{index}",))
        floor = instance.epoch - 3
        at_floor = instance.changes_since(floor)
        assert at_floor is not None and len(at_floor) == 3
        assert instance.changes_since(floor - 1) is None
        # And the current epoch is always an empty (non-None) delta.
        assert instance.changes_since(instance.epoch) == []

    def test_full_log_yields_ordered_tails(self):
        # At the default capacity the log is full and has overflowed once:
        # every tail, up to the whole log, comes back oldest first.
        instance = RelationalInstance()
        capacity = instance.max_tracked_changes
        facts = [Atom.of("r", Constant(f"v{index}")) for index in range(capacity + 1)]
        for fact in facts:
            instance.add(fact)
        instance.remove(facts[0])
        logged = [(True, fact) for fact in facts[2:]] + [(False, facts[0])]
        assert instance.changes_since(instance.epoch - capacity) == logged
        assert instance.changes_since(instance.epoch - capacity - 1) is None
        assert instance.changes_since(instance.epoch - 8) == logged[-8:]
        assert instance.net_changes_since(instance.epoch - 8) == (
            set(facts[-7:]),
            {facts[0]},
        )

    def test_zero_capacity_keeps_no_log(self):
        instance = RelationalInstance(max_tracked_changes=0)
        instance.add(Atom.of("r", a))
        epoch = instance.epoch
        instance.add(Atom.of("r", b))
        assert instance.changes_since(epoch) is None
        assert instance.changes_since(instance.epoch) == []
