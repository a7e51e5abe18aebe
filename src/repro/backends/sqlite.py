"""The SQLite execution backend.

This is the repo's first *actually executed* SQL path: the UCQ rewriting is
rendered once with ``?`` placeholders for every constant
(:func:`repro.database.sql.ucq_to_parameterized_sql`) and run by SQLite, so
the paper's "hand the perfect rewriting to any relational engine" claim is
exercised end to end and differential-tested against the in-memory
evaluator.

Two modes:

* **snapshot mode** (default) — the backend owns a SQLite database
  (in-memory or at ``path``) and loads the :class:`RelationalInstance`
  into it on first execution; the loaded snapshot is keyed by the
  instance's epoch, so an unchanged database is never reloaded.  On an
  epoch bump the backend asks the instance for the net change since the
  loaded epoch (:meth:`RelationalInstance.net_changes_since`) and deletes
  and inserts those rows instead of dropping and reloading every table;
  it falls back to a full reload when the instance says its change log
  cannot be used (``full_loads`` / ``incremental_loads`` count the
  split).
* **attached mode** (``attach=True``) — the backend executes against an
  existing SQLite file maintained outside this library; the instance is
  never loaded.  ``data_epoch`` then folds in SQLite's ``PRAGMA
  data_version`` so answer caches see commits made by other connections.

Value encoding: strings, ints, floats and booleans are stored natively
(SQLite's numeric comparisons match Python's ``1 == 1.0 == True``, so the
two backends agree on answers).  ``None`` and labelled nulls are encoded as
NUL-prefixed strings — SQL ``NULL`` never compares equal, which would break
joins the in-memory evaluator performs happily — and rows containing a
labelled null are filtered from answers (certain answers are constant
tuples only).  Other value types are rejected with :class:`BackendError`.

Tables are created without column types (BLOB affinity: no coercion) and
get one single-column index per attribute, mirroring the per-(position,
value) indexes of the in-memory instance.
"""

from __future__ import annotations

import sqlite3
import weakref
from typing import Hashable, Mapping, Sequence

from ..database.instance import LogGap, RelationalInstance
from ..database.planning import CardinalityEstimator
from ..database.schema import RelationalSchema
from ..database.sql import ParameterizedSQL, ucq_to_parameterized_sql
from ..logic.atoms import Atom, Predicate, atoms_predicates
from ..logic.terms import Constant, Null, Term, is_null
from ..queries.ucq import UnionOfConjunctiveQueries
from .base import BackendError, ExecutionBackend, ExecutionPlan

#: Prefix reserved for encoded values; real strings starting with NUL are
#: escaped with it too, so decoding is unambiguous.
_ESCAPE = "\x00"


def encode_term(term: Term) -> object:
    """Encode a ground term as a SQLite storage value."""
    if is_null(term):
        return f"{_ESCAPE}z:{term.label}"
    value = term.value  # type: ignore[union-attr]
    if value is None:
        return f"{_ESCAPE}n:"
    if isinstance(value, str):
        if value.startswith(_ESCAPE):
            return f"{_ESCAPE}s:{value}"
        return value
    if isinstance(value, (bool, int, float)):
        return value
    raise BackendError(
        f"SQLiteBackend cannot store constant value {value!r} of type "
        f"{type(value).__name__}; supported types are str, int, float, "
        "bool and None"
    )


def decode_value(value: object) -> Term:
    """Decode a SQLite storage value back into a term."""
    if isinstance(value, str) and value.startswith(_ESCAPE):
        kind, _, rest = value[1:].partition(":")
        if kind == "z":
            return Null(int(rest))
        if kind == "n":
            return Constant(None)
        if kind == "s":
            return Constant(rest)
        raise BackendError(f"unreadable encoded value {value!r}")
    return Constant(value)


class SQLitePlan(ExecutionPlan):
    """The rewriting's parameterized SQL plus the relations it references.

    A rewriting with more disjuncts than SQLite's compound-SELECT limit
    (``SQLITE_LIMIT_COMPOUND_SELECT``, 500 by default) cannot run as one
    ``UNION`` statement, so the plan holds one statement per chunk of
    disjuncts and unions the chunk results in Python — answer sets are
    deduplicated there anyway.
    """

    def __init__(
        self,
        backend: "SQLiteBackend",
        statements: Sequence[ParameterizedSQL],
        referenced: frozenset[Predicate],
        arity: int,
        schema: RelationalSchema | None,
        queries: Sequence,
    ) -> None:
        self._backend = backend
        self._statements = tuple(statements)
        self._referenced = referenced
        self._arity = arity
        self._schema = schema
        # Per-disjunct execution: the member CQs, with their single-query
        # SQL rendered lazily on first use (most plans never need it).
        self._queries = tuple(queries)
        self._disjunct_statements: dict[int, ParameterizedSQL] = {}

    @property
    def sql(self) -> str:
        """The SQL text executed by this plan (``?`` placeholders).

        One statement in the common case; chunked plans render one
        statement per chunk, separated by ``;``.
        """
        return ";\n\n".join(statement.sql for statement in self._statements)

    @property
    def parameters(self) -> tuple[Constant, ...]:
        """The constants bound to the placeholders, in order."""
        return tuple(
            constant
            for statement in self._statements
            for constant in statement.parameters
        )

    @property
    def description(self) -> str:
        return self.sql

    def _answers(
        self,
        database: RelationalInstance,
        statements: Sequence[ParameterizedSQL],
        bindings: Mapping[Constant, Constant] | None,
    ) -> frozenset[tuple]:
        """Run *statements* under *bindings*; their decoded rows as answers."""
        connection = self._backend.ensure_ready(
            database, self._referenced, self._schema
        )
        rows: list = []
        for statement in statements:
            parameters = [
                encode_term(
                    bindings.get(constant, constant) if bindings else constant
                )
                for constant in statement.parameters
            ]
            try:
                rows.extend(
                    connection.execute(statement.sql, parameters).fetchall()
                )
            except sqlite3.Error as error:
                raise BackendError(f"SQLite execution failed: {error}") from error
        if self._arity == 0:
            return frozenset({()}) if rows else frozenset()
        answers: set[tuple] = set()
        for row in rows:
            decoded = tuple(decode_value(value) for value in row)
            if any(is_null(term) for term in decoded):
                continue  # nulls witness joins but never appear in answers
            answers.add(decoded)
        return frozenset(answers)

    def execute(
        self,
        database: RelationalInstance,
        bindings: Mapping[Constant, Constant] | None = None,
    ) -> frozenset[tuple]:
        return self._answers(database, self._statements, bindings)

    def execute_disjunct(
        self,
        database: RelationalInstance,
        index: int,
        bindings: Mapping[Constant, Constant] | None = None,
    ) -> frozenset[tuple]:
        """Run one member CQ of the union on its own, as SQL."""
        statement = self._disjunct_statements.get(index)
        if statement is None:
            # Raises IndexError for out-of-range indexes, like a sequence.
            query = self._queries[index]
            statement = ucq_to_parameterized_sql([query], schema=self._schema)
            self._disjunct_statements[index] = statement
        return self._answers(database, (statement,), bindings)

    def explain(self, database: RelationalInstance) -> str:
        lines = ["backend: sqlite"]
        if self._backend.attached:
            lines.append(
                "attached mode: executing external tables; instance "
                "statistics do not apply"
            )
        else:
            estimator = CardinalityEstimator(database)
            for index, query in enumerate(self._queries):
                plan = estimator.plan_body(query.body)
                join = " -> ".join(atom.name for atom in plan.order) or "<empty body>"
                lines.append(
                    f"disjunct {index}: cost ~{plan.cost:.1f} rows; join {join}"
                )
        lines.append("sql:")
        lines.append(self.sql)
        return "\n".join(lines)


class SQLiteBackend(ExecutionBackend):
    """Executes rewritings on SQLite (stdlib ``sqlite3``).

    Parameters
    ----------
    path:
        SQLite database path; the default ``":memory:"`` keeps the
        snapshot private to this backend instance.
    attach:
        ``True`` executes against the existing database at *path* as-is:
        the :class:`RelationalInstance` is **not** loaded, tables are
        expected to be maintained externally, and missing referenced
        tables raise unless *create_missing* is set.
    create_missing:
        In attached mode, create empty tables for referenced relations
        absent from the file (mutates the file!).  Snapshot mode always
        creates every referenced table.
    """

    name = "sqlite"

    def __init__(
        self,
        path: str = ":memory:",
        attach: bool = False,
        create_missing: bool = False,
    ) -> None:
        if attach and path == ":memory:":
            raise ValueError("attach=True needs the path of an existing database")
        self._path = str(path)
        self._attach = attach
        self._create_missing = create_missing
        self._connection: sqlite3.Connection | None = None
        # The instance (held weakly — a recycled id() must never pass for
        # the loaded one) and epoch of the currently loaded snapshot.
        self._loaded_instance: "weakref.ref[RelationalInstance] | None" = None
        self._loaded_epoch: int | None = None
        # Tables this backend created, by name (snapshot mode drops them
        # on reload; attached mode only ever adds empty missing ones).
        self._predicates_by_table: dict[str, Predicate] = {}
        #: How often the snapshot was rebuilt from scratch / patched in
        #: place from the instance's change log.
        self.full_loads = 0
        self.incremental_loads = 0

    # -- connection and loading -------------------------------------------

    @property
    def attached(self) -> bool:
        """``True`` when executing against an external file (attach mode)."""
        return self._attach

    @property
    def local_data_epoch(self) -> bool:
        """``False`` when attached: :meth:`data_epoch` reads the connection."""
        return not self._attach

    @property
    def connection(self) -> sqlite3.Connection:
        """The lazily opened SQLite connection."""
        if self._connection is None:
            self._connection = sqlite3.connect(self._path)
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
            self._loaded_instance = None
            self._loaded_epoch = None
            self._predicates_by_table.clear()

    def data_epoch(self, database: RelationalInstance) -> Hashable:
        if not self._attach:
            return database.epoch
        # Attached files change under other connections; data_version moves
        # exactly when another connection commits.
        (version,) = self.connection.execute("PRAGMA data_version").fetchone()
        return (database.epoch, version)

    def ensure_ready(
        self,
        database: RelationalInstance,
        referenced: frozenset[Predicate],
        schema: RelationalSchema | None = None,
    ) -> sqlite3.Connection:
        """Make sure every referenced table exists and holds current data."""
        connection = self.connection
        if self._attach:
            self._check_attached_tables(connection, referenced, schema)
            return connection
        loaded = (
            self._loaded_instance() if self._loaded_instance is not None else None
        )
        if loaded is not database or self._loaded_epoch != database.epoch:
            changes = LogGap.TRUNCATED  # nothing of this instance is loaded
            if loaded is database and self._loaded_epoch is not None:
                changes = database.net_changes_since(self._loaded_epoch)
            if isinstance(changes, LogGap):
                self._load(connection, database, referenced, schema)
                self.full_loads += 1
            else:
                self._apply_delta(connection, *changes, schema)
                self.incremental_loads += 1
            self._loaded_instance = weakref.ref(database)
            self._loaded_epoch = database.epoch
        known = set(self._predicates_by_table.values())
        missing = set(referenced) - known
        if missing:
            self._create_tables(connection, missing, schema)
        return connection

    def _check_attached_tables(
        self,
        connection: sqlite3.Connection,
        referenced: frozenset[Predicate],
        schema: RelationalSchema | None,
    ) -> None:
        existing = {
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        missing = sorted(p.name for p in referenced if p.name not in existing)
        if not missing:
            return
        if not self._create_missing:
            raise BackendError(
                "attached database is missing tables referenced by the "
                f"rewriting: {', '.join(missing)} (pass create_missing=True "
                "to create them empty)"
            )
        self._create_tables(
            connection, {p for p in referenced if p.name in set(missing)}, schema
        )

    def _columns(self, predicate: Predicate, schema: RelationalSchema | None) -> list[str]:
        """Column names for a table: the schema's attributes, else ``argN``.

        Must agree with what :func:`repro.database.sql` renders for the
        same schema, or the generated SQL would reference missing columns.
        """
        if schema is not None:
            relation = schema.get(predicate.name)
            if relation is not None and relation.arity == predicate.arity:
                return list(relation.attributes)
        return [f"arg{i}" for i in range(1, predicate.arity + 1)]

    def _create_tables(
        self,
        connection: sqlite3.Connection,
        predicates: set[Predicate],
        schema: RelationalSchema | None,
    ) -> None:
        for predicate in sorted(predicates, key=lambda p: (p.name, p.arity)):
            known = self._predicates_by_table.get(predicate.name)
            if known is not None and known.arity != predicate.arity:
                # SQL tables are keyed by name alone, so two predicates
                # sharing a name with different arities cannot coexist
                # (the in-memory instance keeps them apart).
                raise BackendError(
                    f"relation name collision: {predicate.name!r} is used "
                    f"with arities {known.arity} and {predicate.arity}; "
                    "the SQLite backend cannot represent both"
                )
            columns = self._columns(predicate, schema)
            table = self._quoted(predicate.name)
            column_list = ", ".join(self._quoted(column) for column in columns)
            connection.execute(f"CREATE TABLE IF NOT EXISTS {table} ({column_list})")
            for i, column in enumerate(columns, start=1):
                index_name = self._quoted(f"idx_{predicate.name}_{i}")
                connection.execute(
                    f"CREATE INDEX IF NOT EXISTS {index_name} ON {table} "
                    f"({self._quoted(column)})"
                )
            self._predicates_by_table[predicate.name] = predicate
        connection.commit()

    def _load(
        self,
        connection: sqlite3.Connection,
        database: RelationalInstance,
        referenced: frozenset[Predicate],
        schema: RelationalSchema | None,
    ) -> None:
        """(Re)load the snapshot: drop every table, recreate, bulk-insert.

        Snapshot mode owns the whole database, so *all* existing tables
        are dropped — including ones left behind by a previous process
        when the snapshot lives in a file — or stale facts would be
        resurrected into answers.
        """
        stale = [
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        ]
        for table in sorted(stale):
            connection.execute(f"DROP TABLE IF EXISTS {self._quoted(table)}")
        self._predicates_by_table.clear()
        predicates = set(database.predicates()) | set(referenced)
        self._create_tables(connection, predicates, schema)
        for predicate in sorted(predicates, key=lambda p: (p.name, p.arity)):
            facts = database.relation(predicate)
            if not facts:
                continue
            placeholders = ", ".join("?" for _ in range(predicate.arity))
            statement = (
                f"INSERT INTO {self._quoted(predicate.name)} VALUES ({placeholders})"
            )
            connection.executemany(
                statement,
                [tuple(encode_term(term) for term in fact.terms) for fact in facts],
            )
        connection.commit()

    def _apply_delta(
        self,
        connection: sqlite3.Connection,
        added: set[Atom],
        removed: set[Atom],
        schema: RelationalSchema | None,
    ) -> None:
        """Patch the loaded snapshot with the instance's net change.

        The net sets are disjoint, so deleting *removed* and inserting
        *added* reproduces the instance whatever the order of the
        underlying mutations.  Tables for predicates first seen in the
        change are created first; deletes match every column (encoded
        values are never SQL ``NULL``, so ``=`` comparisons are exact).
        """
        unknown = {
            fact.predicate
            for facts in (added, removed)
            for fact in facts
            if self._predicates_by_table.get(fact.predicate.name) != fact.predicate
        }
        if unknown:
            self._create_tables(connection, unknown, schema)
        for fact in removed:
            condition = " AND ".join(
                f"{self._quoted(column)} = ?"
                for column in self._columns(fact.predicate, schema)
            )
            connection.execute(
                f"DELETE FROM {self._quoted(fact.name)} WHERE {condition}",
                tuple(encode_term(term) for term in fact.terms),
            )
        for fact in added:
            placeholders = ", ".join("?" for _ in fact.terms)
            connection.execute(
                f"INSERT INTO {self._quoted(fact.name)} VALUES ({placeholders})",
                tuple(encode_term(term) for term in fact.terms),
            )
        connection.commit()

    @staticmethod
    def _quoted(name: str) -> str:
        return '"' + name.replace('"', '""') + '"'

    # -- the backend protocol ----------------------------------------------

    def prepare(
        self,
        ucq: UnionOfConjunctiveQueries,
        schema: RelationalSchema | None = None,
    ) -> SQLitePlan:
        if len(ucq) == 0:
            raise BackendError("cannot prepare an empty rewriting for SQLite")
        queries = list(ucq)
        limit = self._compound_select_limit()
        statements = [
            ucq_to_parameterized_sql(queries[start : start + limit], schema=schema)
            for start in range(0, len(queries), limit)
        ]
        referenced = frozenset(
            predicate for query in ucq for predicate in atoms_predicates(query.body)
        )
        return SQLitePlan(self, statements, referenced, ucq.arity, schema, queries)

    def _compound_select_limit(self) -> int:
        """Max disjuncts per statement (SQLITE_LIMIT_COMPOUND_SELECT)."""
        try:
            limit = self.connection.getlimit(sqlite3.SQLITE_LIMIT_COMPOUND_SELECT)
        except AttributeError:  # pragma: no cover - Python < 3.11
            limit = 500
        return max(1, limit)
