"""SQLite backend specifics: loading, encoding, attach mode, errors."""

import sqlite3

import pytest

from repro.api import OBDASystem
from repro.backends import BackendError, SQLiteBackend, create_backend
from repro.backends.sqlite import decode_value, encode_term
from repro.database.instance import RelationalInstance
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Null, Variable
from repro.dependencies.tgd import tgd
from repro.dependencies.theory import OntologyTheory
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries

X, A, B = Variable("X"), Variable("A"), Variable("B")


def simple_theory() -> OntologyTheory:
    return OntologyTheory(
        tgds=[tgd(Atom.of("student", X), Atom.of("person", X))], name="sqlite-tests"
    )


class TestValueEncoding:
    @pytest.mark.parametrize(
        "value", ["plain", 7, 2.5, True, False, None, "o'hare", 'a"b', ""]
    )
    def test_scalar_round_trip(self, value):
        assert decode_value(encode_term(Constant(value))) == Constant(value)

    def test_nul_prefixed_strings_are_escaped(self):
        tricky = "\x00z:42"  # collides with the null encoding un-escaped
        assert decode_value(encode_term(Constant(tricky))) == Constant(tricky)

    def test_labelled_nulls_round_trip(self):
        assert decode_value(encode_term(Null(9))) == Null(9)

    def test_non_scalar_values_are_rejected(self):
        with pytest.raises(BackendError, match="cannot store"):
            encode_term(Constant(("tuple", "value")))

    def test_python_numeric_equality_carries_over(self):
        # SQLite compares 1, 1.0 and TRUE numerically; Python's Constant
        # equality does the same, so the backends cannot disagree here.
        assert Constant(1) == Constant(1.0) == Constant(True)


class TestSQLiteExecution:
    def test_answers_with_boolean_query(self):
        system = OBDASystem(simple_theory())
        system.add_fact("student", ("kim",))
        query = ConjunctiveQuery([Atom.of("person", X)], ())  # BCQ
        assert system.answer(query, backend="sqlite").tuples == frozenset({()})
        system.close()

    def test_boolean_query_without_matches_is_empty(self):
        system = OBDASystem(simple_theory())
        query = ConjunctiveQuery([Atom.of("person", X)], ())
        assert system.answer(query, backend="sqlite").tuples == frozenset()
        system.close()

    def test_labelled_nulls_join_but_never_answer(self):
        database = RelationalInstance(
            [
                Atom.of("edge", Constant("a"), Null(1)),
                Atom.of("edge", Null(1), Constant("b")),
            ]
        )
        theory = OntologyTheory(tgds=[], name="nulls")
        system = OBDASystem(theory, database=database)
        two_hop = ConjunctiveQuery(
            [Atom.of("edge", A, X), Atom.of("edge", X, B)], (A, B)
        )
        expected = system.answer(two_hop, backend="memory").tuples
        assert expected == frozenset({(Constant("a"), Constant("b"))})
        assert system.answer(two_hop, backend="sqlite").tuples == expected
        # the null itself must not leak into unary answers
        ends = ConjunctiveQuery([Atom.of("edge", A, X)], (A,))
        assert system.answer(ends, backend="sqlite").tuples == frozenset(
            {(Constant("a"),)}
        )
        system.close()

    def test_arity_collision_is_a_clear_error(self):
        system = OBDASystem(simple_theory())
        system.add_fact("person", ("kim",))
        system.database.add_tuple("person", ("kim", "extra"))  # person/2
        query = ConjunctiveQuery([Atom.of("person", A)], (A,))
        with pytest.raises(BackendError, match="collision"):
            system.answer(query, backend="sqlite")
        system.close()

    def test_empty_rewriting_cannot_be_prepared(self):
        backend = SQLiteBackend()
        with pytest.raises(BackendError, match="empty rewriting"):
            backend.prepare(UnionOfConjunctiveQueries([]))

    def test_ucq_beyond_compound_select_limit_is_chunked(self):
        # SQLITE_LIMIT_COMPOUND_SELECT is 500 by default; a perfect
        # rewriting can easily exceed it.  The plan must chunk the UNION
        # and merge the chunk results.
        disjuncts = [
            ConjunctiveQuery([Atom.of(f"r{i}", A)], (A,)) for i in range(501)
        ]
        database = RelationalInstance(
            [Atom.of("r0", Constant("first")), Atom.of("r500", Constant("last"))]
        )
        backend = SQLiteBackend()
        try:
            plan = backend.prepare(UnionOfConjunctiveQueries(disjuncts))
            assert plan.sql.count(";") >= 1  # more than one statement
            assert plan.execute(database) == frozenset(
                {(Constant("first"),), (Constant("last"),)}
            )
        finally:
            backend.close()

    def test_snapshot_can_live_in_a_file(self, tmp_path):
        path = tmp_path / "snapshot.db"
        system = OBDASystem(simple_theory(), backend=SQLiteBackend(str(path)))
        system.add_fact("student", ("kim",))
        query = ConjunctiveQuery([Atom.of("person", A)], (A,))
        assert (Constant("kim"),) in system.answer(query)
        system.close()
        assert path.exists()

    def test_file_snapshot_from_a_previous_process_is_fully_replaced(
        self, tmp_path
    ):
        path = tmp_path / "snapshot.db"
        query = ConjunctiveQuery([Atom.of("person", A)], (A,))
        first = OBDASystem(simple_theory(), backend=SQLiteBackend(str(path)))
        first.add_facts([("student", ("alice",)), ("student", ("bob",))])
        assert len(first.answer(query)) == 2
        first.close()
        # A new "process" over the same file, with a different instance:
        # the old snapshot's facts must not be resurrected.
        second = OBDASystem(simple_theory(), backend=SQLiteBackend(str(path)))
        second.add_fact("student", ("carol",))
        assert second.answer(query).tuples == frozenset({(Constant("carol"),)})
        second.close()


class TestAttachedMode:
    def setup_database(self, path):
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE student (arg1)")
        connection.execute("INSERT INTO student VALUES ('kim')")
        connection.commit()
        connection.close()

    def test_attach_requires_a_path(self):
        with pytest.raises(ValueError, match="existing database"):
            SQLiteBackend(attach=True)

    def test_attached_database_is_queried_in_place(self, tmp_path):
        path = tmp_path / "external.db"
        self.setup_database(path)
        backend = SQLiteBackend(str(path), attach=True, create_missing=True)
        system = OBDASystem(simple_theory(), backend=backend)
        query = ConjunctiveQuery([Atom.of("person", A)], (A,))
        # the instance is empty; the answers come from the file
        assert system.database.epoch == 0
        assert system.answer(query).tuples == frozenset({(Constant("kim"),)})
        system.close()

    def test_missing_tables_raise_without_create_missing(self, tmp_path):
        path = tmp_path / "external.db"
        self.setup_database(path)
        backend = SQLiteBackend(str(path), attach=True)
        system = OBDASystem(simple_theory(), backend=backend)
        query = ConjunctiveQuery([Atom.of("person", A)], (A,))
        with pytest.raises(BackendError, match="missing tables"):
            system.answer(query)
        system.close()

    def test_data_epoch_tracks_external_commits(self, tmp_path):
        path = tmp_path / "external.db"
        self.setup_database(path)
        backend = SQLiteBackend(str(path), attach=True, create_missing=True)
        system = OBDASystem(simple_theory(), backend=backend)
        query = ConjunctiveQuery([Atom.of("person", A)], (A,))
        prepared = system.prepare(query)
        assert prepared.execute().tuples == frozenset({(Constant("kim"),)})

        other = sqlite3.connect(path)
        other.execute("INSERT INTO student VALUES ('lee')")
        other.commit()
        other.close()

        answers = prepared.execute().tuples
        assert (Constant("lee"),) in answers
        system.close()

    def test_poll_sees_external_commits_like_execute(self, tmp_path):
        path = tmp_path / "external.db"
        self.setup_database(path)
        backend = SQLiteBackend(str(path), attach=True, create_missing=True)
        system = OBDASystem(simple_theory(), backend=backend)
        prepared = system.prepare(ConjunctiveQuery([Atom.of("person", A)], (A,)))
        assert prepared.poll().added == frozenset({(Constant("kim"),)})

        other = sqlite3.connect(path)
        other.execute("INSERT INTO student VALUES ('lee')")
        other.commit()
        other.close()

        # The instance epoch did not move; the file's data_version did,
        # and the instance change log cannot explain that change.
        delta = prepared.poll()
        assert delta.mode == "full"
        assert delta.added == frozenset({(Constant("lee"),)})
        assert delta.removed == frozenset()
        assert prepared.maintained_answers == prepared.execute().tuples
        assert prepared.poll().mode == "noop"
        system.close()


class TestBackendRegistry:
    def test_create_backend_by_name(self):
        assert isinstance(create_backend("sqlite"), SQLiteBackend)

    def test_create_backend_default(self):
        assert create_backend().name == "memory"

    def test_create_backend_passthrough(self):
        backend = SQLiteBackend()
        assert create_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="known backends"):
            create_backend("postgres")
