"""Incremental SQLite snapshot loading: apply the delta, not the world."""

import pytest

from repro.backends.sqlite import SQLiteBackend
from repro.database.instance import RelationalInstance
from repro.dependencies.tgd import tgd
from repro.dependencies.theory import OntologyTheory
from repro.logic.atoms import Atom, Predicate
from repro.logic.terms import Variable
from repro.api import OBDASystem
from repro.queries.parser import parse_query

X, Y = Variable("X"), Variable("Y")


@pytest.fixture()
def system():
    theory = OntologyTheory(
        tgds=[tgd(Atom.of("employee", X), Atom.of("person", X))]
    )
    built = OBDASystem(theory, use_nc_pruning=False, backend="sqlite")
    built.add_fact("employee", ["alice"])
    built.add_fact("person", ["bob"])
    yield built
    built.close()


def _answers(system, query_text="q(A) :- person(A)"):
    return {row[0].value for row in system.answer(parse_query(query_text))}


class TestIncrementalLoading:
    def test_first_execution_is_a_full_load(self, system):
        assert _answers(system) == {"alice", "bob"}
        backend = system.backend_for("sqlite")
        assert backend.full_loads == 1
        assert backend.incremental_loads == 0

    def test_epoch_bump_applies_the_delta(self, system):
        _answers(system)
        backend = system.backend_for("sqlite")
        system.add_fact("employee", ["carol"])
        assert _answers(system) == {"alice", "bob", "carol"}
        assert backend.full_loads == 1
        assert backend.incremental_loads == 1

    def test_removals_are_applied_incrementally(self, system):
        _answers(system)
        backend = system.backend_for("sqlite")
        system.database.remove_tuple("person", ["bob"])
        assert _answers(system) == {"alice"}
        assert backend.incremental_loads == 1
        # Remove-then-re-add nets out.
        system.database.add_tuple("person", ["bob"])
        assert _answers(system) == {"alice", "bob"}
        assert backend.incremental_loads == 2
        assert backend.full_loads == 1

    def test_new_relation_in_delta_creates_its_table(self, system):
        _answers(system)
        backend = system.backend_for("sqlite")
        system.add_fact("person", ["dave"])
        system.add_fact("visitor", ["eve"])  # brand-new table, unreferenced
        assert _answers(system) == {"alice", "bob", "dave"}
        assert backend.incremental_loads == 1

    def test_unchanged_epoch_never_reloads(self, system):
        _answers(system)
        backend = system.backend_for("sqlite")
        for _ in range(3):
            _answers(system)
        assert backend.full_loads == 1
        assert backend.incremental_loads == 0

    def test_oversized_delta_falls_back_to_full_reload(self, system):
        _answers(system)
        backend = system.backend_for("sqlite")
        # Churn more rows than the instance ends up holding: patching
        # would cost more than rebuilding, so the backend reloads.
        for index in range(10):
            system.add_fact("person", [f"p{index}"])
        for index in range(10):
            system.database.remove_tuple("person", [f"p{index}"])
        for index in range(3):
            system.database.remove_tuple(
                "person", ["bob"] if index == 0 else [f"gone{index}"]
            )
        assert len(system.database.changes_since(2)) > len(system.database)
        assert _answers(system) == {"alice"}
        assert backend.full_loads == 2
        assert backend.incremental_loads == 0

    def test_truncated_change_log_falls_back_to_full_reload(self, system):
        from collections import deque

        _answers(system)
        backend = system.backend_for("sqlite")
        database = system.database
        # Shrink the live instance's log to 2 entries (the capacity is a
        # constructor parameter, fixed per instance) so it overflows past
        # the loaded epoch.
        database.max_tracked_changes = 2
        database._changes = deque(maxlen=2)
        database._change_floor = database.epoch
        for index in range(5):
            system.add_fact("person", [f"late{index}"])
        assert database.changes_since(2) is None
        assert "late4" in _answers(system)
        assert backend.full_loads == 2

    def test_different_instance_forces_full_reload(self):
        theory = OntologyTheory(
            tgds=[tgd(Atom.of("employee", X), Atom.of("person", X))]
        )
        backend = SQLiteBackend()
        first = OBDASystem(theory, use_nc_pruning=False, backend=backend)
        first.add_fact("person", ["one"])
        assert _answers(first) == {"one"}
        second = OBDASystem(theory, use_nc_pruning=False, backend=backend)
        second.add_fact("person", ["two"])
        assert _answers(second) == {"two"}
        assert backend.full_loads == 2
        assert backend.incremental_loads == 0
        backend.close()


class TestBackendAgreementUnderMutation:
    def test_sqlite_and_memory_agree_through_add_remove_cycles(self):
        theory = OntologyTheory(
            tgds=[tgd(Atom.of("works_for", X, Y), Atom.of("person", X))]
        )
        system = OBDASystem(theory, use_nc_pruning=False)
        query = parse_query("q(A) :- person(A)")
        mutations = [
            ("add", ("person", ["a"])),
            ("add", ("works_for", ["b", "acme"])),
            ("add", ("person", ["c"])),
            ("remove", ("person", ["a"])),
            ("add", ("person", ["a"])),
            ("remove", ("works_for", ["b", "acme"])),
        ]
        for action, (relation, values) in mutations:
            if action == "add":
                system.database.add_tuple(relation, values)
            else:
                system.database.remove_tuple(relation, values)
            memory = system.answer(query, backend="memory").tuples
            sqlite = system.answer(query, backend="sqlite").tuples
            assert memory == sqlite, f"disagreement after {action} {relation}"
        backend = system.backend_for("sqlite")
        assert backend.incremental_loads >= 4
        system.close()

    def test_one_slice_of_cancelling_mutations_applies_its_net_change(self):
        theory = OntologyTheory(
            tgds=[tgd(Atom.of("works_for", X, Y), Atom.of("person", X))]
        )
        system = OBDASystem(theory, use_nc_pruning=False)
        database = system.database
        for name in ("a", "b", "c", "d"):
            database.add_tuple("person", [name])
        database.add_tuple("works_for", ["e", "acme"])
        query = parse_query("q(A) :- person(A)")
        system.answer(query, backend="sqlite")
        # One slice, shorter than the instance: a fact removed and
        # re-added, another added and removed again.
        database.remove_tuple("person", ["a"])
        database.add_tuple("person", ["a"])
        database.add_tuple("person", ["f"])
        database.remove_tuple("person", ["f"])
        memory = system.answer(query, backend="memory").tuples
        sqlite = system.answer(query, backend="sqlite").tuples
        assert memory == sqlite
        backend = system.backend_for("sqlite")
        assert backend.incremental_loads == 1
        (rows,) = backend.connection.execute(
            'SELECT COUNT(*) FROM "person"'
        ).fetchone()
        assert rows == database.relation_size(Predicate("person", 1))
        system.close()
