"""The execution-backend protocol of the serving layer.

The paper's central practical claim (Section 1) is that a perfect rewriting
is an ordinary relational query: once compilation is done, *any* relational
engine can answer it on the database alone.  This module pins that claim
down as an interface.  An :class:`ExecutionBackend` turns a compiled UCQ
rewriting into an :class:`ExecutionPlan` once (``prepare``); the plan is
then executed many times, against the current state of the database and
optionally under new bindings for the query's constants.

Two implementations ship with the library:

* :class:`repro.backends.memory.InMemoryBackend` — the built-in index
  nested-loop evaluator with a reusable join order;
* :class:`repro.backends.sqlite.SQLiteBackend` — loads the database into
  SQLite (or attaches an existing database file) and executes the
  rewriting's SQL form there.

Answer *caching* does not live here: :class:`repro.api.PreparedQuery`
caches answer sets keyed by the value returned from :meth:`data_epoch`, so
backends only need to say when the data may have changed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Hashable, Mapping

from ..logic.terms import Constant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database.instance import RelationalInstance
    from ..database.schema import RelationalSchema
    from ..queries.ucq import UnionOfConjunctiveQueries


class BackendError(RuntimeError):
    """Raised when a backend cannot prepare or execute a plan."""


class ExecutionPlan(ABC):
    """A backend-compiled form of one UCQ rewriting.

    Plans are created by :meth:`ExecutionBackend.prepare` and owned by a
    :class:`repro.api.PreparedQuery`; they hold whatever the backend needs
    to re-execute cheaply (a SQL string and parameter order, a reusable
    join order, ...).
    """

    @abstractmethod
    def execute(
        self,
        database: "RelationalInstance",
        bindings: Mapping[Constant, Constant] | None = None,
    ) -> frozenset[tuple]:
        """Answers of the plan on *database*, as tuples of constants.

        *bindings* maps constants of the rewriting to replacement
        constants (parameter binding); soundness of rebinding is the
        caller's responsibility (:meth:`repro.api.PreparedQuery.execute`
        validates it against the theory).
        """

    @property
    @abstractmethod
    def description(self) -> str:
        """A human-readable account of the plan (SQL text, join order, ...)."""

    def explain(self, database: "RelationalInstance") -> str:
        """The plan as it would run on *database*: join orders and costs.

        Unlike :attr:`description` (static, database-independent) the
        explanation reflects the cost-aware choices the backend makes for
        the current database state — chosen join order per disjunct and
        estimated cardinalities.  The default falls back to the static
        description for backends without a planner.
        """
        return self.description

    @abstractmethod
    def execute_disjunct(
        self,
        database: "RelationalInstance",
        index: int,
        bindings: Mapping[Constant, Constant] | None = None,
    ) -> frozenset[tuple]:
        """Answers of disjunct *index* alone, as tuples of constants.

        *index* is the disjunct's position in the rewriting.  UCQ
        answering is a union over independent CQs, so the union of every
        disjunct's answers is :meth:`execute`'s.  No answer path runs one
        disjunct alone: this is the one-CQ-at-a-time reference that the
        differential tests and the perf gate hold :meth:`execute` to.
        """


class ExecutionBackend(ABC):
    """A pluggable engine that executes compiled rewritings.

    Backends are context managers; :meth:`close` releases whatever
    resources they hold (connections, loaded snapshots).
    """

    #: Registry name of the backend (``"memory"``, ``"sqlite"``).
    name: str = "?"

    #: ``True`` when :meth:`data_epoch` reads the instance alone, no
    #: connection, so any thread may call it.
    local_data_epoch: bool = True

    @abstractmethod
    def prepare(
        self,
        ucq: "UnionOfConjunctiveQueries",
        schema: "RelationalSchema | None" = None,
    ) -> ExecutionPlan:
        """Compile *ucq* into a reusable :class:`ExecutionPlan`."""

    def data_epoch(self, database: "RelationalInstance") -> Hashable:
        """A value that changes whenever the visible data may have changed.

        The default is the instance's epoch counter; backends reading
        external state (an attached SQLite file) extend it with their own
        change signal.  :class:`repro.api.PreparedQuery` keys its answer
        cache on this value.
        """
        return database.epoch

    def close(self) -> None:
        """Release backend resources; the default backend holds none."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
