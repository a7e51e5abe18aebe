"""High-level OBDA facade.

:class:`OBDASystem` wires the pieces of the library into the workflow that
the paper motivates (Section 1): an ontology (TGDs + NCs + KDs) sits on top
of a relational database; conjunctive queries posed against the ontology are
*compiled* into UCQ rewritings (optionally optimised with query elimination)
and then executed directly on the database — or exported as SQL for an
external RDBMS.

Compilation is served through three cache layers, checked in order:

1. an in-process dict keyed by the exact query object (``compile`` called
   twice returns the same result instance);
2. the optional **persistent store** (``cache=`` argument): a
   :class:`repro.cache.store.RewritingStore` keyed by ``(canonical query
   key, theory fingerprint)`` that survives process restarts and is shared
   by every system compiled against an equal theory;
3. the rewriting engine itself, whose rename-apart, applicability and
   coverage memos persist across queries, so a whole workload compiled
   through :meth:`OBDASystem.compile_many` shares the interning, memo and
   persistent layers in one pass.

*Answering* follows a prepare/execute lifecycle mirroring a database
driver's: :meth:`OBDASystem.prepare` compiles the query, hands the UCQ to a
pluggable :class:`~repro.backends.base.ExecutionBackend` (in-memory
evaluator or SQLite) for backend-side compilation, and returns a
:class:`PreparedQuery` handle.  ``PreparedQuery.execute()`` runs the plan,
supports rebinding the query's constants, and caches answer sets keyed by
the database's epoch counter — repeated executions on an unchanged ABox
are dictionary lookups.  :meth:`OBDASystem.answer` remains as a one-line
convenience over the lifecycle.
"""

from __future__ import annotations

import logging
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .backends import ExecutionBackend, ExecutionPlan, create_backend
from .cache.checkpoint import FrontierCheckpoint
from .cache.fingerprint import theory_fingerprint
from .cache.store import RewritingStore
from .chase.chase import certain_answers as chase_certain_answers
from .core.rewriter import RewritingResult, RewritingStatistics, TGDRewriter
from .database.instance import RelationalInstance
from .database.schema import RelationalSchema
from .database.sql import ucq_to_sql
from .dependencies.constraints import KeyDependency, first_conflict
from .dependencies.tgd import TGD
from .dependencies.theory import OntologyTheory
from .incremental.maintain import AnswerDelta, MaintainedAnswerSet
from .logic.terms import Constant
from .queries.conjunctive_query import ConjunctiveQuery

logger = logging.getLogger(__name__)


class ConflictingKeysError(ValueError):
    """A key dependency conflicts with a TGD of the theory.

    Section 5 rewrites as if the keys were absent, which is sound only
    when they are non-conflicting with the TGDs
    (:func:`repro.dependencies.constraints.is_non_conflicting`):
    otherwise a rule can derive a tuple that breaks the key, and no
    check on the stored facts sees it.  ``rule`` and ``key`` name the
    first conflicting pair.
    """

    def __init__(self, rule: TGD, key: KeyDependency) -> None:
        super().__init__(f"key {key!r} conflicts with TGD {rule!r}")
        self.rule = rule
        self.key = key


class InconsistentTheoryError(RuntimeError):
    """Raised when the database violates a negative constraint or key dependency."""


@dataclass
class AnswerSet:
    """Answers of an ontological query, with the rewriting that produced them."""

    query: ConjunctiveQuery
    rewriting: RewritingResult
    tuples: frozenset[tuple]

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, item) -> bool:
        return tuple(item) in self.tuples


@dataclass(frozen=True)
class ExecutionCacheInfo:
    """Hit/miss counters of one :class:`PreparedQuery`'s answer cache."""

    hits: int
    misses: int
    size: int


class PreparedQuery:
    """A compiled, backend-planned ontological query, ready to execute.

    Owns the perfect rewriting plus the backend's compiled plan (for
    SQLite: the parameterized SQL; for the in-memory evaluator: a reusable
    join order).  Execution results are cached per database epoch and
    binding set, so a warm :meth:`execute` on an unchanged database never
    touches the backend.  Obtained from :meth:`OBDASystem.prepare`.
    """

    #: Bound answer-cache size: epochs only move forward, so this only
    #: matters for workloads cycling through many distinct binding sets.
    MAX_CACHED_ANSWERS = 128

    def __init__(
        self,
        system: "OBDASystem",
        query: ConjunctiveQuery,
        rewriting: RewritingResult,
        backend: ExecutionBackend,
        plan: ExecutionPlan,
    ) -> None:
        self._system = system
        self._query = query
        self._rewriting = rewriting
        self._backend = backend
        self._plan = plan
        self._answers: dict[Hashable, frozenset[tuple]] = {}
        self._maintained: MaintainedAnswerSet | None = None
        self._hits = 0
        self._misses = 0

    # -- introspection -----------------------------------------------------

    @property
    def query(self) -> ConjunctiveQuery:
        """The ontological query this handle was prepared for."""
        return self._query

    @property
    def rewriting(self) -> RewritingResult:
        """The perfect UCQ rewriting the plan executes."""
        return self._rewriting

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend that compiled and runs the plan."""
        return self._backend

    @property
    def plan(self) -> ExecutionPlan:
        """The backend-compiled plan."""
        return self._plan

    @property
    def sql(self) -> str | None:
        """The SQL text the plan executes, for SQL-speaking backends."""
        return getattr(self._plan, "sql", None)

    def explain(self) -> str:
        """The cost-aware plan for the system's current database state.

        Delegates to :meth:`ExecutionPlan.explain`: chosen join order per
        disjunct and the estimated cardinalities behind it (``repro
        answer --explain`` prints this).
        """
        return self._plan.explain(self._system.database)

    @property
    def bindable_constants(self) -> frozenset[Constant]:
        """Query constants that :meth:`execute` may rebind.

        A constant is bindable when it does not occur in the theory's TGDs
        or negative constraints: the rewriting then treats it generically
        (it only ever unifies with variables), so substituting another
        value commutes with rewriting and the prepared plan stays exact.
        """
        return self._query.constants - self._system.theory_constants

    # -- execution ---------------------------------------------------------

    def execute(
        self, bindings: Mapping[object, object] | None = None
    ) -> AnswerSet:
        """Certain answers over the system's current database.

        *bindings* maps bindable constants (as :class:`Constant` or raw
        values) to replacement values — the prepared-statement parameter
        binding of the serving API.  Answers are cached under the
        database's epoch and the binding set; an unchanged database is
        served without executing the plan.
        """
        normalized, key, tuples = self._lookup(bindings)
        if tuples is None:
            self._misses += 1
            tuples = self._plan.execute(self._system.database, normalized)
            while len(self._answers) >= self.MAX_CACHED_ANSWERS:
                self._answers.pop(next(iter(self._answers)))
            self._answers[key] = tuples
        else:
            self._hits += 1
        return AnswerSet(query=self._query, rewriting=self._rewriting, tuples=tuples)

    def probe(
        self, bindings: Mapping[object, object] | None = None
    ) -> frozenset[tuple] | None:
        """The cached answers :meth:`execute` would serve, or ``None``.

        Never executes the plan and counts nothing; raises
        :class:`ValueError` on bad *bindings*, as :meth:`execute` does.
        """
        return self._lookup(bindings)[2]

    def _lookup(self, bindings: Mapping[object, object] | None):
        """``(normalized bindings, answer-cache key, cached answers or None)``."""
        normalized = self._normalize_bindings(bindings)
        key = (
            self._backend.data_epoch(self._system.database),
            frozenset(normalized.items()) if normalized else None,
        )
        return normalized, key, self._answers.get(key)

    def _normalize_bindings(
        self, bindings: Mapping[object, object] | None
    ) -> dict[Constant, Constant] | None:
        if not bindings:
            return None
        theory_constants = self._system.theory_constants
        bindable = self.bindable_constants
        normalized: dict[Constant, Constant] = {}
        for key, value in bindings.items():
            constant = key if isinstance(key, Constant) else Constant(key)
            replacement = value if isinstance(value, Constant) else Constant(value)
            if constant not in bindable:
                raise ValueError(
                    f"{constant!r} is not a bindable constant of the prepared "
                    f"query (bindable: {sorted(map(repr, bindable))})"
                )
            if replacement in theory_constants:
                raise ValueError(
                    f"cannot bind {constant!r} to {replacement!r}: the value "
                    "occurs in the theory's rules, so the prepared rewriting "
                    "may not be exact for it — compile the bound query instead"
                )
            if replacement != constant:
                normalized[constant] = replacement
        return normalized or None

    # -- incremental maintenance -------------------------------------------

    def maintainer(self) -> "MaintainedAnswerSet":
        """The lazily created delta maintainer of this query's answer set.

        Shared by every subscription on this prepared handle.  Creating
        it factors the rewriting (:meth:`repro.queries.ucq.
        UnionOfConjunctiveQueries.factored`), if :meth:`execute` has not
        already; its full (re-)executions are the backend plan's
        ``execute``, the call :meth:`execute` makes, and its incremental
        steps run delta rules over the factored joins on the instance.
        :meth:`poll` refreshes it under the same freshness key as the
        :meth:`execute` answer cache (the backend's ``data_epoch``), so
        both see the same data; they share no answer state and
        cross-check each other in the differential tests.
        """
        if self._maintained is None:
            self._maintained = MaintainedAnswerSet(
                self._rewriting.ucq, plan=self._plan
            )
        return self._maintained

    def poll(self) -> "AnswerDelta":
        """Bring the maintained answer set up to the current epoch.

        Returns the :class:`~repro.incremental.maintain.AnswerDelta` since
        the previous poll (the first poll reports the full answer set as
        added).  Read the current set from :attr:`maintained_answers`.
        Keyed like :meth:`execute`, on the backend's ``data_epoch``: a
        change the instance's change log cannot see (a commit to an
        attached SQLite file) is picked up by a full refresh.
        """
        database = self._system.database
        return self.maintainer().refresh(
            database, self._backend.data_epoch(database)
        )

    @property
    def maintained_answers(self) -> frozenset[tuple]:
        """The combined maintained answer set as of the last :meth:`poll`."""
        return self.maintainer().tuples

    def invalidate(self) -> None:
        """Drop all cached answer sets (e.g. after out-of-band data changes).

        Also discards the maintainer's state, so the next :meth:`poll`
        recomputes from scratch instead of trusting the change log.
        """
        self._answers.clear()
        self._maintained = None

    def execution_cache_info(self) -> ExecutionCacheInfo:
        """Hit/miss counters of the per-epoch answer cache."""
        return ExecutionCacheInfo(
            hits=self._hits, misses=self._misses, size=len(self._answers)
        )


@dataclass(frozen=True)
class PreparedCacheInfo:
    """Counters of an :class:`OBDASystem`'s interned-:class:`PreparedQuery` table.

    ``hits`` counts :meth:`OBDASystem.prepare` calls served an existing
    handle, ``misses`` freshly built handles, ``evictions`` handles
    dropped by the ``max_prepared`` LRU bound (``None`` = unbounded).
    """

    hits: int
    misses: int
    evictions: int
    size: int
    max_prepared: int | None


@dataclass(frozen=True)
class RewritingCacheInfo:
    """Hit/miss counters of an :class:`OBDASystem`'s compilation caches.

    ``hits``/``misses``/``size`` describe the in-process layer (exact
    query objects); the ``persistent_*`` fields describe the optional
    disk-backed :class:`~repro.cache.store.RewritingStore` and stay zero
    when no store is attached.
    """

    hits: int
    misses: int
    size: int
    persistent_hits: int = 0
    persistent_misses: int = 0
    persistent_size: int = 0
    #: Store writes that failed (disk full, permissions) and degraded to
    #: memory-only serving instead of losing the finished compile.
    persistent_write_failures: int = 0


class EngineOptions(NamedTuple):
    """The engine options a theory is compiled with, and their fingerprint."""

    use_elimination: bool
    use_nc_pruning: bool
    fingerprint: str


def resolve_engine_options(
    theory: OntologyTheory,
    use_elimination: bool = True,
    use_nc_pruning: bool = True,
) -> EngineOptions:
    """The options the engine actually runs with on *theory*.

    An optimisation is on only when it is asked for and applies:
    elimination (``TGD-rewrite*``) needs linear TGDs, NC pruning needs
    negative constraints.  The fingerprint hashes the resolved options, so
    every caller resolving here — :class:`OBDASystem`, the serving tier
    and the CLI — keys one theory's rewritings under one fingerprint.
    """
    use_elimination = use_elimination and theory.classification.linear
    use_nc_pruning = use_nc_pruning and bool(theory.negative_constraints)
    fingerprint = theory_fingerprint(
        theory.tgds,
        theory.negative_constraints,
        use_elimination=use_elimination,
        use_nc_pruning=use_nc_pruning,
    )
    return EngineOptions(use_elimination, use_nc_pruning, fingerprint)


class OBDASystem:
    """Ontology-based data access over an in-memory relational database.

    Parameters
    ----------
    theory:
        The ontological theory (TGDs, NCs, KDs).
    database:
        The underlying instance; an empty one is created when omitted.
    use_elimination / use_nc_pruning:
        Engine optimisations (``TGD-rewrite*`` and NC pruning), resolved
        by :func:`resolve_engine_options`: elimination is dropped for
        non-linear theories, where it is not available, and pruning for
        theories without negative constraints, where it does nothing.
    cache:
        Optional persistent rewriting cache: a
        :class:`~repro.cache.store.RewritingStore`, or a directory path
        from which one is opened.  Compiled rewritings are persisted there
        and served back — across process restarts and to any other system
        whose theory fingerprint matches.
    backend:
        Default execution backend for :meth:`prepare` / :meth:`answer`: a
        registered name (``"memory"``, ``"sqlite"``) or a constructed
        :class:`~repro.backends.base.ExecutionBackend`.
    max_prepared:
        Optional LRU bound on the number of interned
        :class:`PreparedQuery` handles (mirroring the store's
        ``max_entries``): preparing beyond the bound evicts the least
        recently *prepared* handle from the intern table.  Evicted handles
        stay valid for the caller holding them — only the guarantee that
        ``prepare`` returns the same object again is bounded.
    rewriting_cache:
        Optional *shared* in-process compilation cache (a mutable mapping
        ``ConjunctiveQuery → RewritingResult``).  Passing the same mapping
        to several systems built over an equal theory makes a rewriting
        compiled through any of them instantly visible to all — the
        multi-tenant serving layer passes one dict per theory fingerprint,
        so structurally identical tenants share one compiled artifact set.
        Callers are responsible for only sharing a cache between systems
        whose :attr:`theory_fingerprint` agree.
    """

    def __init__(
        self,
        theory: OntologyTheory,
        database: RelationalInstance | None = None,
        use_elimination: bool = True,
        use_nc_pruning: bool = True,
        schema: RelationalSchema | None = None,
        cache: RewritingStore | str | os.PathLike | None = None,
        backend: str | ExecutionBackend = "memory",
        max_prepared: int | None = None,
        rewriting_cache: dict[ConjunctiveQuery, RewritingResult] | None = None,
    ) -> None:
        if max_prepared is not None and max_prepared < 1:
            raise ValueError(f"max_prepared must be >= 1, got {max_prepared}")
        conflict = first_conflict(theory.tgds, theory.key_dependencies)
        if conflict is not None:
            raise ConflictingKeysError(*conflict)
        self._theory = theory
        self._database = database if database is not None else RelationalInstance(schema=schema)
        self._schema = schema if schema is not None else self._database.schema
        self._use_elimination, self._use_nc_pruning, self._fingerprint = (
            resolve_engine_options(theory, use_elimination, use_nc_pruning)
        )
        self._rewriter = TGDRewriter(
            theory,
            use_elimination=self._use_elimination,
            use_nc_pruning=self._use_nc_pruning,
        )
        self._last_batch_statistics: RewritingStatistics | None = None
        self._rewriting_cache: dict[ConjunctiveQuery, RewritingResult] = (
            rewriting_cache if rewriting_cache is not None else {}
        )
        self._cache_hits = 0
        self._cache_misses = 0
        self._store_write_failures = 0
        if cache is not None and not isinstance(cache, RewritingStore):
            cache = RewritingStore(cache)
        self._store: RewritingStore | None = cache
        self._default_backend = backend
        self._backends: dict[str, ExecutionBackend] = {}
        self._prepared: OrderedDict[tuple[ConjunctiveQuery, int], PreparedQuery] = (
            OrderedDict()
        )
        self._max_prepared = max_prepared
        self._prepared_hits = 0
        self._prepared_misses = 0
        self._prepared_evictions = 0
        self._theory_constants: frozenset[Constant] | None = None
        self._nc_answer_sets: tuple | None = None
        self._consistency_verdict: tuple[int, str | None] | None = None

    # -- data management ----------------------------------------------------------

    @property
    def theory(self) -> OntologyTheory:
        """The ontological theory (TBox)."""
        return self._theory

    @property
    def database(self) -> RelationalInstance:
        """The underlying database (ABox)."""
        return self._database

    def add_fact(self, relation_name: str, values: Sequence[object]) -> None:
        """Insert a tuple of Python values into the database."""
        self._database.add_tuple(relation_name, values)

    def add_facts(self, facts: Iterable[tuple[str, Sequence[object]]]) -> None:
        """Insert many ``(relation, values)`` tuples."""
        for relation_name, values in facts:
            self.add_fact(relation_name, values)

    # -- consistency ----------------------------------------------------------------

    def check_consistency(self) -> None:
        """Verify key dependencies and negative constraints (Section 4.2).

        Keys are checked directly on the database (they are separable from
        the TGDs when the non-conflicting criterion holds); negative
        constraints are checked as BCQs *after* rewriting them, so that
        constraint violations entailed through the TGDs are detected too.

        Each constraint's rewriting is compiled once per system (the
        theory is immutable) and its answer set is a
        :class:`~repro.incremental.maintain.MaintainedAnswerSet`, non-empty
        exactly when the constraint is violated; a check refreshes every
        set from the database's change log.  The verdict is cached per
        database epoch, so repeated checks between mutations are free.
        """
        epoch = self._database.epoch
        if self._consistency_verdict is not None and self._consistency_verdict[0] == epoch:
            failure = self._consistency_verdict[1]
            if failure is not None:
                raise InconsistentTheoryError(failure)
            return
        failure = self._consistency_failure()
        self._consistency_verdict = (epoch, failure)
        if failure is not None:
            raise InconsistentTheoryError(failure)

    def _consistency_failure(self) -> str | None:
        """The first violated dependency's message, or ``None`` if consistent."""
        for key in self._theory.key_dependencies:
            if not self._database.satisfies_key(key):
                return f"key dependency violated: {key!r}"
        if self._nc_answer_sets is None:
            # Plain TGD-rewrite: no NC pruning, the constraints themselves
            # are being checked.
            rewriter = TGDRewriter(self._theory.tgds)
            self._nc_answer_sets = tuple(
                (nc, MaintainedAnswerSet(rewriter.rewrite(nc.as_query()).ucq))
                for nc in self._theory.negative_constraints
            )
        failure = None
        for constraint, violations in self._nc_answer_sets:
            violations.refresh(self._database)
            if failure is None and violations.tuples:
                failure = f"negative constraint violated: {constraint!r}"
        return failure

    def is_consistent(self) -> bool:
        """``True`` iff the database is consistent with the theory."""
        try:
            self.check_consistency()
        except InconsistentTheoryError:
            return False
        return True

    # -- querying -------------------------------------------------------------------------

    @property
    def rewriting_store(self) -> RewritingStore | None:
        """The attached persistent rewriting store, if any."""
        return self._store

    @property
    def theory_fingerprint(self) -> str:
        """Fingerprint keying this system's entries in a persistent store.

        Covers the TGDs (modulo rule order and variable renaming), the
        negative constraints (when pruning is on), the resolved engine
        options and the engine version — everything a cached rewriting's
        content depends on (see :mod:`repro.cache.fingerprint`).
        """
        return self._fingerprint

    def compile(self, query: ConjunctiveQuery, checkpoint=None) -> RewritingResult:
        """Compile an ontological query into its perfect UCQ rewriting (cached).

        Served, in order, from the in-process cache (exact query), the
        persistent store when one is attached (any *variant* of the query
        under this theory's fingerprint), and finally the rewriting
        engine; a freshly computed rewriting is persisted before being
        returned.  The result's statistics record which persistent path
        was taken (``persistent_cache_hits`` / ``persistent_cache_misses``).

        *checkpoint* is an optional
        :class:`~repro.cache.checkpoint.FrontierCheckpoint` threaded
        through to the engine on a genuine miss, so a killed compilation
        can resume from its last completed generation (cache hits never
        touch it).
        """
        return self.compile_traced(query, checkpoint=checkpoint)[0]

    def compile_traced(
        self, query: ConjunctiveQuery, checkpoint=None, on_generation=None
    ) -> tuple[RewritingResult, str]:
        """:meth:`compile` plus the serving layer that produced the result.

        The second element names the source: ``"memory"`` (in-process
        cache), ``"store"`` (persistent store) or ``"engine"`` (freshly
        rewritten).  The serving front end reports it per request and
        counts exactly one ``"engine"`` outcome per coalesced cold query.
        *on_generation* reaches the engine run, if there is one, as
        :meth:`TGDRewriter.rewrite <repro.core.rewriter.TGDRewriter.rewrite>`'s
        generation-boundary callback: the serving tier cuts a compile
        there for a deadline, a shutdown or an injected fault.
        """
        served = self._serve_from_caches(query)
        if served is not None:
            return served
        result = self._rewriter.rewrite(
            query, checkpoint=checkpoint, on_generation=on_generation
        )
        return self._absorb_fresh_result(query, result), "engine"

    def _serve_from_caches(
        self, query: ConjunctiveQuery
    ) -> tuple[RewritingResult, str] | None:
        """Probe the serving layers in order: in-process dict, then store.

        Returns the served ``(result, source)`` — installed in the
        in-process cache, with its hit counters updated — or ``None`` on a
        genuine miss (the caller then owes the engine a run).  This is the
        *only* implementation of the serving order; :meth:`compile`,
        :meth:`compile_many` and the parallel pre-scan of
        :func:`repro.parallel.compile_workloads` all go through it.
        """
        cached = self._rewriting_cache.get(query)
        if cached is not None:
            self._cache_hits += 1
            return cached, "memory"
        self._cache_misses += 1
        if self._store is not None:
            result = self._store.get(
                query, self._fingerprint, rules=self._rewriter.rules
            )
            if result is not None:
                result.statistics.persistent_cache_hits += 1
                self._rewriting_cache[query] = result
                return result, "store"
        return None

    def _absorb_fresh_result(
        self, query: ConjunctiveQuery, result: RewritingResult
    ) -> RewritingResult:
        """Persist an engine-computed rewriting and install it in the caches.

        Persisting happens before the miss is marked, so the stored
        statistics describe the engine run only and a future warm hit
        reports ``hits=1, misses=0``.  When ``put`` refuses because a
        variant entry already exists (a variant compiled earlier in a
        parallel batch — or by another process — landed first), the
        stored round-trip result is served instead, exactly as a
        sequential probe arriving after that write would have been.
        """
        if self._store is not None:
            try:
                persisted = self._store.put(query, self._fingerprint, result)
            except OSError as error:
                # A full or read-only disk must not lose a finished
                # compile: serve from memory and keep going.
                logger.warning(
                    "rewriting store write failed (%s); serving from memory", error
                )
                self._store_write_failures += 1
                persisted = True
            if persisted:
                result.statistics.persistent_cache_misses += 1
            else:
                stored = self._store.get(
                    query, self._fingerprint, rules=self._rewriter.rules
                )
                if stored is not None:
                    stored.statistics.persistent_cache_hits += 1
                    result = stored
                else:
                    # Uncacheable query (non-scalar constants): compiled
                    # but never persisted.
                    result.statistics.persistent_cache_misses += 1
        self._rewriting_cache[query] = result
        return result

    def compile_many(
        self,
        queries: Iterable[ConjunctiveQuery],
        workers: int | None = None,
        checkpoint_dir: "str | os.PathLike | None" = None,
    ) -> list[RewritingResult]:
        """Compile a batch of queries through the shared cache layers.

        All queries go through the shared cache layers and one persistent
        store, so a warm store turns a whole workload run into a sequence
        of lookups.  Results are returned in input order (duplicated or
        variant inputs each get their — shared — result).  Cache probes
        and store writes always happen in this process, in input order,
        so the stored bytes — and the pinned Table 1 sizes — are
        identical under every worker count.  After the call,
        :attr:`last_batch_statistics` holds the merged per-workload totals.

        ``workers`` (default: one per CPU) fans cold queries out to a
        process pool, one query per task (see
        :func:`repro.parallel.compile_workloads`).  ``workers=1`` or a
        ``checkpoint_dir`` instead compile one member at a time in this
        process, each probing the caches first.

        ``checkpoint_dir`` makes the batch resumable: each cold member
        runs under :meth:`FrontierCheckpoint.for_query
        <repro.cache.checkpoint.FrontierCheckpoint.for_query>`, saved
        after every generation, so a rerun of a killed batch resumes the
        interrupted member.  Members that completed before the kill are
        skipped only when the caches hold them (the persistent store, in
        a new process); otherwise they run again.
        """
        from .parallel import compile_workloads, resolve_workers

        queries = list(queries)
        if resolve_workers(workers) > 1 and checkpoint_dir is None:
            return compile_workloads([(self, queries)], workers=workers)[0]
        results = []
        for query in queries:
            served = self._serve_from_caches(query)
            if served is not None:
                results.append(served[0])
                continue
            checkpoint = (
                FrontierCheckpoint.for_query(checkpoint_dir, self._fingerprint, query)
                if checkpoint_dir is not None
                else None
            )
            result = self._rewriter.rewrite(query, checkpoint=checkpoint)
            results.append(self._absorb_fresh_result(query, result))
        self._record_batch_statistics(results)
        return results

    def _record_batch_statistics(self, results: Sequence[RewritingResult]) -> None:
        """Fold a batch's per-result statistics into merged workload totals.

        Shared results (duplicated inputs) count once; used by both
        :meth:`compile_many` and :func:`repro.parallel.compile_workloads`.
        """
        unique = {id(result): result.statistics for result in results}
        self._last_batch_statistics = RewritingStatistics.merge_all(unique.values())

    @property
    def last_batch_statistics(self) -> RewritingStatistics | None:
        """Merged totals of the most recent :meth:`compile_many` batch.

        Each distinct result's counters summed with
        :meth:`RewritingStatistics.merge` — what ``repro compile --stats``
        prints as per-workload totals.  ``None`` before any batch ran.
        """
        return self._last_batch_statistics

    def rewriting_cache_info(self) -> RewritingCacheInfo:
        """Hit/miss counters of the in-process and persistent caches."""
        store = self._store
        return RewritingCacheInfo(
            hits=self._cache_hits,
            misses=self._cache_misses,
            size=len(self._rewriting_cache),
            persistent_hits=store.statistics.hits if store is not None else 0,
            persistent_misses=store.statistics.misses if store is not None else 0,
            persistent_size=len(store) if store is not None else 0,
            persistent_write_failures=self._store_write_failures,
        )

    def rewriting_statistics(self, query: ConjunctiveQuery) -> RewritingStatistics:
        """The :class:`RewritingStatistics` of *query*'s (cached) compilation.

        Exposes the canonical-interning and rule-index counters of the
        underlying :class:`TGDRewriter` run — how many variant lookups hit,
        how many were proven by key equality alone, and how many TGDs the
        head-predicate index kept off the hot path.
        """
        return self.compile(query).statistics

    # -- the prepare/execute serving lifecycle ---------------------------------

    @property
    def theory_constants(self) -> frozenset[Constant]:
        """Constants occurring in the theory's TGDs or negative constraints.

        A prepared query may only rebind constants outside this set (and
        only to values outside it): for such constants the rewriting is
        generic, so rebinding commutes with compilation.
        """
        if self._theory_constants is None:
            constants: set[Constant] = set()
            for rule in self._theory.tgds:
                constants.update(rule.constants)
            for constraint in self._theory.negative_constraints:
                for atom in constraint.body:
                    constants.update(atom.constants())
            self._theory_constants = frozenset(constants)
        return self._theory_constants

    def backend_for(self, backend: str | ExecutionBackend | None = None) -> ExecutionBackend:
        """Resolve a backend request to a (shared) instance.

        ``None`` resolves the system's default; names resolve to one
        shared instance per name, created on first use and reused by every
        prepared query, so e.g. one SQLite snapshot serves all of them.
        Constructed backends are returned as given.
        """
        if backend is None:
            backend = self._default_backend
        if isinstance(backend, ExecutionBackend):
            return backend
        resolved = self._backends.get(backend)
        if resolved is None:
            resolved = create_backend(backend)
            self._backends[backend] = resolved
        return resolved

    def prepare(
        self,
        query: ConjunctiveQuery,
        backend: str | ExecutionBackend | None = None,
    ) -> PreparedQuery:
        """Compile *query* and plan it on an execution backend.

        The serving entry point: the rewriting is served through the
        compilation cache layers, the backend compiles it into a reusable
        plan (SQL statement, join order), and the returned
        :class:`PreparedQuery` caches its answer sets per database epoch.
        Preparing the same query on the same backend returns the same
        handle — up to the optional ``max_prepared`` LRU bound, beyond
        which the least recently prepared handles are evicted from the
        intern table (an evicted handle keeps working for whoever holds
        it; re-preparing simply builds a fresh one, served by the
        compilation caches).
        """
        resolved = self.backend_for(backend)
        key = (query, id(resolved))
        prepared = self._prepared.get(key)
        if prepared is None:
            self._prepared_misses += 1
            rewriting = self.compile(query)
            plan = resolved.prepare(rewriting.ucq, schema=self._schema)
            prepared = PreparedQuery(self, query, rewriting, resolved, plan)
            self._prepared[key] = prepared
            if self._max_prepared is not None:
                while len(self._prepared) > self._max_prepared:
                    self._prepared.popitem(last=False)
                    self._prepared_evictions += 1
        else:
            self._prepared_hits += 1
            self._prepared.move_to_end(key)
        return prepared

    def prepared_handle(self, query: ConjunctiveQuery) -> PreparedQuery | None:
        """The handle :meth:`prepare` would return on the default backend.

        ``None`` when *query* is not prepared there.  Never compiles,
        plans or creates a backend, and counts nothing.
        """
        backend = self._default_backend
        if not isinstance(backend, ExecutionBackend):
            backend = self._backends.get(backend)
        if backend is None:
            return None
        return self._prepared.get((query, id(backend)))

    def prepare_many(
        self,
        queries: Iterable[ConjunctiveQuery],
        backend: str | ExecutionBackend | None = None,
        workers: int | None = None,
    ) -> list[PreparedQuery]:
        """Prepare a batch of queries, sharing one backend snapshot per epoch.

        The batch analogue of :meth:`prepare`, mirroring how
        :meth:`compile_many` batches compilation: the backend is resolved
        **once** (so every returned handle shares the same instance — one
        SQLite snapshot per database epoch serves them all), the
        rewritings are compiled through :meth:`compile_many` (optionally
        fanning cold misses out to *workers* processes), and each query is
        then planned on the shared backend.  Results come back in input
        order; duplicated inputs share one handle.
        """
        queries = list(queries)
        resolved = self.backend_for(backend)
        self.compile_many(queries, workers=workers)
        return [self.prepare(query, backend=resolved) for query in queries]

    def invalidate_answers(self) -> int:
        """Drop every interned prepared query's cached answer sets.

        The serving tier's out-of-band invalidation hook (e.g. after bulk
        data changes applied behind the backends' epoch signal).  Returns
        the number of prepared handles cleared; their plans stay valid —
        only the per-epoch answer caches are emptied.
        """
        for prepared in self._prepared.values():
            prepared.invalidate()
        return len(self._prepared)

    def prepared_cache_info(self) -> PreparedCacheInfo:
        """Hit/miss/eviction counters of the interned prepared-query table."""
        return PreparedCacheInfo(
            hits=self._prepared_hits,
            misses=self._prepared_misses,
            evictions=self._prepared_evictions,
            size=len(self._prepared),
            max_prepared=self._max_prepared,
        )

    def answer(
        self,
        query: ConjunctiveQuery,
        backend: str | ExecutionBackend | None = None,
    ) -> AnswerSet:
        """Certain answers of *query* over the ontology and the database.

        Convenience shim over the prepare/execute lifecycle (kept for
        backward compatibility; new code that answers a query more than
        once should hold on to :meth:`prepare`'s handle).  Equivalent to
        ``self.prepare(query, backend).execute()`` — including the answer
        cache, since the prepared handle is shared.
        """
        return self.prepare(query, backend=backend).execute()

    def close(self) -> None:
        """Release the backends created by this system (connections etc.)."""
        for backend in self._backends.values():
            backend.close()
        self._backends.clear()
        self._prepared.clear()

    def __enter__(self) -> "OBDASystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def answer_via_chase(
        self, query: ConjunctiveQuery, max_depth: int | None = 8
    ) -> frozenset[tuple]:
        """Reference answers computed by materialising the chase (test oracle)."""
        return chase_certain_answers(
            query, self._database.facts, list(self._rewriter.rules), max_depth=max_depth
        )

    def to_sql(self, query: ConjunctiveQuery) -> str:
        """The SQL form of the perfect rewriting of *query*."""
        rewriting = self.compile(query)
        return ucq_to_sql(rewriting.ucq, schema=self._schema)
