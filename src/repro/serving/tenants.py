"""Tenants, fingerprint-shared artifacts and the registry binding them.

The serving tier separates what tenants *share* from what they *own*:

* **Shared per theory fingerprint** (:class:`SharedArtifacts`): the
  compiled artifact set.  One :class:`~repro.api.OBDASystem` dedicated to
  compilation, one in-process rewriting cache (a plain dict, passed to
  every same-fingerprint system via ``OBDASystem(rewriting_cache=...)``),
  one slice of the persistent :class:`~repro.cache.store.RewritingStore`
  (the store is server-wide; entries are segregated by fingerprint), and
  one frontier-checkpoint directory so a compile killed mid-flight
  resumes instead of restarting.  Two tenants registering structurally
  identical ontologies — same fingerprint — get the *same* object.
* **Owned per tenant** (:class:`Tenant`): the database (its own
  :class:`~repro.database.instance.RelationalInstance` with its own epoch
  counter), the execution backend, and the prepared-query pool with its
  epoch-keyed answer caches.  Mutating one tenant's data therefore only
  invalidates that tenant's answers; the shared rewritings are untouched
  (they depend on the theory alone).

Every tenant and every artifact set carries a dedicated single-thread
executor: blocking work (compiles, plan executions) runs off the event
loop, per-tenant state is mutated by one thread at a time, and
thread-affine backends (SQLite connections) stay on the thread that
created them.  A slow compile occupies only its artifact executor — warm
answers keep flowing through the tenant executors.

Two resilience mechanisms live at this layer (PR 8):

* **Cooperative cancellation** — the app hands
  :meth:`SharedArtifacts.compile_blocking` a per-request
  :class:`~repro.serving.resilience.CancelScope`, and the compile hands
  the rewriting kernel a callback that checks it before each frontier
  generation, so a timed-out compile aborts at the next generation
  boundary *after* the kernel checkpointed the previous one — the
  request 504s, the work is resumable.
* **Epoched live theory updates** — :meth:`TenantRegistry.update_theory`
  swaps a live tenant onto a new artifact set without downtime.  Requests
  pin the :class:`TenantEpoch` (artifacts + execution system) they
  started on; the swap retires the old epoch, which is closed only when
  its in-flight refcount drains.  Artifact sets are refcounted the same
  way (tenant memberships + pinned epochs), so the shared compile
  executor survives exactly as long as someone can still reach it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..api import OBDASystem, PreparedQuery, RewritingResult, resolve_engine_options
from ..cache.checkpoint import FrontierCheckpoint, compile_digest
from ..cache.store import RewritingStore
from ..database.instance import RelationalInstance
from ..dependencies.theory import OntologyTheory
from ..incremental.subscriptions import PollResult, Subscription, SubscriptionPool
from ..queries.conjunctive_query import ConjunctiveQuery
from .resilience import CancelScope, CompileInterrupted

#: Subdirectory of the store directory holding per-compile frontier
#: checkpoints (one file per (canonical key, fingerprint) digest).
CHECKPOINT_DIRNAME = "checkpoints"

#: Default bound on rewritings preloaded from the store per fingerprint.
DEFAULT_WARM_LIMIT = 128


class RegistryError(RuntimeError):
    """Base class of tenant-registry failures (mapped to HTTP statuses)."""


class UnknownTenantError(RegistryError):
    """A request named a tenant that is not registered."""


class DuplicateTenantError(RegistryError):
    """``register`` was asked to create a tenant name that already exists."""


class RegistryFullError(RegistryError):
    """Admission control: the ``max_tenants`` bound would be exceeded."""


class SharedArtifacts:
    """The compiled artifact set shared by every tenant of one fingerprint.

    ``compile_blocking`` is the only compile entry point of the serving
    tier: it serves from the shared in-process cache, then the persistent
    store, and only then runs the engine — under a per-artifacts lock and
    with a frontier checkpoint, so a killed service resumes the compile
    where it died.  ``compiles`` counts *engine runs only*; the coalescing
    tests pin it to exactly one per cold query under any herd size.
    """

    def __init__(
        self,
        theory: OntologyTheory,
        store: RewritingStore | None = None,
        checkpoint_directory: str | Path | None = None,
        warm_limit: int | None = DEFAULT_WARM_LIMIT,
        fault_plan=None,
    ) -> None:
        self.theory = theory
        self.rewriting_cache: dict[ConjunctiveQuery, RewritingResult] = {}
        self.system = OBDASystem(
            theory, cache=store, rewriting_cache=self.rewriting_cache
        )
        self.fingerprint = self.system.theory_fingerprint
        self._checkpoint_directory = (
            Path(checkpoint_directory) if checkpoint_directory is not None else None
        )
        self._compile_lock = threading.Lock()
        self._shutdown = threading.Event()
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"compile-{self.fingerprint[:8]}"
        )
        self.tenant_names: set[str] = set()
        self.compiles = 0
        self.served_memory = 0
        self.served_store = 0
        self._fault_plan = fault_plan
        # Lifetime: tenant memberships + pinned epochs, see retain/retire.
        self._state_lock = threading.Lock()
        self._refs = 0
        self._retired = False
        self._closed = False
        self.warmed = self._warm_from_store(store, warm_limit)

    def _warm_from_store(
        self, store: RewritingStore | None, limit: int | None
    ) -> int:
        """Preload this fingerprint's stored rewritings into the shared cache.

        Restart-warm behaviour: a service reopened over the same cache
        directory answers previously compiled queries without touching
        the engine *or* re-parsing store records per tenant.  Bounded by
        *limit* (oldest records first — the store file is append-ordered,
        and `repro cache compact` keeps the most recently served tail).
        """
        if store is None or limit is not None and limit <= 0:
            return 0
        rules = tuple(self.system._rewriter.rules)
        warmed = 0
        for query, result in store.results_for(self.fingerprint, rules):
            self.rewriting_cache.setdefault(query, result)
            warmed += 1
            if limit is not None and warmed >= limit:
                break
        return warmed

    def checkpoint_for(self, query: ConjunctiveQuery) -> FrontierCheckpoint | None:
        """The resumable frontier checkpoint of *query*'s compile, if any.

        Only available when the registry has a cache directory; the file
        is removed by the engine on successful completion, so its
        existence means "a compile of this query died mid-flight".
        """
        if self._checkpoint_directory is None:
            return None
        self._checkpoint_directory.mkdir(parents=True, exist_ok=True)
        return FrontierCheckpoint.for_query(
            self._checkpoint_directory, self.fingerprint, query
        )

    def compile_blocking(
        self, query: ConjunctiveQuery, scope: CancelScope | None = None
    ) -> tuple[RewritingResult, str]:
        """Compile *query* through the shared layers; returns (result, source).

        Blocking — the serving app runs it on :attr:`executor`.  The lock
        serialises engine runs per fingerprint (the engine's memo tables
        are not thread-safe); cache and store probes inside
        ``compile_traced`` are cheap, so holding the lock across them
        costs warm requests nothing (warm requests are answered from the
        tenant's prepared pool without ever calling this).

        Deadlines, shutdown and injected kills all cut the engine run the
        same way: through the generation-boundary callback this method
        builds for the run.  Before each frontier generation — after the
        kernel checkpointed the previous one — it raises
        :class:`~repro.serving.resilience.CompileInterrupted` once
        :meth:`interrupt` was called or *scope* (the request's
        cancellation scope) expired, and then runs the fault plan's
        ``generation_fault`` hook, which may stall or raise.  An expired
        deadline therefore aborts the run right after a checkpoint —
        resumable, not wasted.
        """
        plan = self._fault_plan
        digest = compile_digest(query, self.fingerprint)
        with self._compile_lock:
            fault = plan.generation_fault(digest) if plan is not None else None

            def at_generation(generation: int) -> None:
                if self._shutdown.is_set():
                    raise CompileInterrupted("serving tier is shutting down")
                if scope is not None and scope.expired():
                    raise CompileInterrupted(
                        "compile deadline exceeded; progress is checkpointed "
                        "and the next request for this query will resume it"
                    )
                if fault is not None:
                    fault(generation)

            if plan is not None:
                plan.before_compile(digest)
            result, source = self.system.compile_traced(
                query,
                checkpoint=self.checkpoint_for(query),
                on_generation=at_generation,
            )
        if source == "engine":
            self.compiles += 1
        elif source == "store":
            self.served_store += 1
        else:
            self.served_memory += 1
        return result, source

    # -- lifetime ----------------------------------------------------------
    #
    # An artifact set stays alive while anyone can still reach it: each
    # registered tenant holds one reference, and each request-pinned
    # TenantEpoch holds one more.  ``retire`` (last tenant detached, e.g.
    # after a live theory update) closes the set as soon as the last
    # in-flight epoch drains — never under a request's feet.

    def retain(self) -> None:
        """Take one reference (tenant membership or pinned epoch)."""
        with self._state_lock:
            self._refs += 1

    def release(self) -> None:
        """Drop one reference; closes the set once retired and drained."""
        with self._state_lock:
            self._refs = max(0, self._refs - 1)
            should_close = self._retired and self._refs == 0
        if should_close:
            self.close()

    def retire(self) -> None:
        """Mark the set obsolete; it closes when the refcount drains."""
        with self._state_lock:
            self._retired = True
            should_close = self._refs == 0
        if should_close:
            self.close()

    def interrupt(self) -> None:
        """Abort the current and all future compiles (service shutdown).

        The in-flight engine run stops at its next generation boundary —
        after the kernel persisted the previous generation's checkpoint —
        so shutdown never loses more than one generation of work.
        """
        self._shutdown.set()

    def describe(self) -> dict:
        """The stats-endpoint view of this artifact set.

        Counts this fingerprint's compiles by the layer that served them;
        the server-wide store's totals are the top-level ``store`` block
        of ``/stats``.
        """
        return {
            "fingerprint": self.fingerprint,
            "tenants": sorted(self.tenant_names),
            "compiles": self.compiles,
            "served_memory": self.served_memory,
            "served_store": self.served_store,
            "warmed_rewritings": self.warmed,
            "rewritings": len(self.rewriting_cache),
        }

    def close(self) -> None:
        """Release the compile executor and the compilation system."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self.executor.shutdown(wait=True)
        self.system.close()


class TenantEpoch:
    """One tenant's view of the world between two theory updates.

    Pins the pair a request must use together — the shared artifact set
    it compiles against and the tenant-owned execution system it answers
    on.  Requests :meth:`~Tenant.retain_epoch` at entry and release at
    exit; a live theory update retires the old epoch, whose system is
    closed (on the tenant's executor thread) only when the last in-flight
    request lets go.  The epoch holds one reference on its artifact set
    for its whole life, so retired artifacts drain the same way.
    """

    def __init__(self, artifacts: SharedArtifacts, system: OBDASystem) -> None:
        self.artifacts = artifacts
        self.system = system
        self.refs = 0
        self.retired = False
        artifacts.retain()


class Tenant:
    """One tenant: its own database, backend and prepared-query pool.

    The compilation side is entirely shared: the tenant's
    :class:`~repro.api.OBDASystem` is built over the *same* theory object
    and the *same* in-process rewriting cache as its
    :class:`SharedArtifacts`, so preparing a query the artifact set has
    compiled never runs the engine — it plans the cached rewriting on the
    tenant's backend and caches answers under the tenant's epoch.
    """

    def __init__(
        self,
        name: str,
        artifacts: SharedArtifacts,
        backend: str = "memory",
        fault_plan=None,
        max_tracked_changes: int | None = None,
    ) -> None:
        self.name = name
        self.backend_name = backend
        self._lock = threading.RLock()
        self._fault_plan = fault_plan
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"tenant-{name}"
        )
        self._epoch_lock = threading.Lock()
        self._epoch = self._open_epoch(
            artifacts, RelationalInstance(max_tracked_changes=max_tracked_changes)
        )
        self._live_epochs: list[TenantEpoch] = [self._epoch]
        # Standing-query cursors; survives theory updates because it keys
        # on the query, not on any epoch's prepared handle.
        self.subscriptions = SubscriptionPool()
        self.theory_updates = 0
        self.answers_served = 0
        #: Answers served by :meth:`answer_cached`, without the executor.
        self.answered_on_loop = 0
        self.warmed_prepared = 0

    @property
    def artifacts(self) -> SharedArtifacts:
        """The current epoch's shared artifact set."""
        return self._epoch.artifacts

    @property
    def system(self) -> OBDASystem:
        """The current epoch's execution system."""
        return self._epoch.system

    # -- epochs (live theory updates) --------------------------------------

    def retain_epoch(self) -> TenantEpoch:
        """Pin the current epoch for one request (release when done).

        Everything the request touches afterwards — artifact cache,
        compile executor, execution system — must come from the returned
        epoch, so a concurrent theory update can never close state out
        from under it.
        """
        with self._epoch_lock:
            epoch = self._epoch
            epoch.refs += 1
            return epoch

    def release_epoch(self, epoch: TenantEpoch) -> None:
        """Unpin *epoch*; a retired epoch is closed once fully drained."""
        with self._epoch_lock:
            epoch.refs -= 1
            drained = epoch.retired and epoch.refs == 0
        if drained:
            self._close_epoch(epoch)

    def _open_epoch(
        self, artifacts: SharedArtifacts, database: RelationalInstance
    ) -> TenantEpoch:
        """An epoch answering over *database* with *artifacts*' rewritings.

        The system is built on the executor thread: thread-affine
        backends (SQLite connections) must live on the thread that will
        run the plans.
        """
        system = self.on_own_thread(
            lambda: OBDASystem(
                artifacts.theory,
                database=database,
                backend=self.backend_name,
                rewriting_cache=artifacts.rewriting_cache,
            )
        )
        return TenantEpoch(artifacts, system)

    def open_epoch(self, artifacts: SharedArtifacts) -> TenantEpoch:
        """A new epoch on *artifacts* over this tenant's database, not yet live.

        The new epoch answers over the *same* database instance — facts
        and the epoch counter survive a theory update.
        """
        return self._open_epoch(artifacts, self._epoch.system.database)

    def adopt(self, fresh: TenantEpoch) -> None:
        """Swap this tenant onto *fresh*, from :meth:`open_epoch` (a live
        theory update).

        The old epoch keeps serving its in-flight requests on the old
        artifacts and is closed when they drain; new requests see the new
        epoch the moment the swap completes.  The swap itself cannot
        fail: an error comes from closing the old epoch, after it.
        """
        with self._epoch_lock:
            old = self._epoch
            self._epoch = fresh
            self._live_epochs.append(fresh)
            old.retired = True
            drained = old.refs == 0
        self.theory_updates += 1
        if drained:
            self._close_epoch(old)

    def _close_epoch(self, epoch: TenantEpoch) -> None:
        """Close a live epoch's system (on the tenant thread) and release
        its artifact reference, also when the close fails; a no-op for an
        epoch already closed."""
        with self._epoch_lock:
            if epoch not in self._live_epochs:
                return
            self._live_epochs.remove(epoch)
        try:
            try:
                self.executor.submit(epoch.system.close).result()
            except RuntimeError:
                # Executor already shut down — nothing ran since, so closing
                # from this thread is the best remaining option.
                epoch.system.close()
        finally:
            epoch.artifacts.release()

    def on_own_thread(self, function, *args):
        """Run *function* on this tenant's executor thread, synchronously.

        Registration-time work (fact loading, prepared-pool warmup) comes
        in on the registry's thread but must touch the backend on the
        tenant's thread; the serving app's request path instead schedules
        straight onto :attr:`executor` asynchronously.
        """
        return self.executor.submit(function, *args).result()

    @property
    def fingerprint(self) -> str:
        """The theory fingerprint keying this tenant's shared artifacts."""
        return self.artifacts.fingerprint

    def add_facts(self, facts: Iterable[tuple[str, Sequence[object]]]) -> int:
        """Insert ``(relation, values)`` tuples; returns how many were new."""
        with self._lock:
            before = len(self.system.database)
            for relation, values in facts:
                self.system.database.add_tuple(relation, values)
            return len(self.system.database) - before

    def remove_facts(self, facts: Iterable[tuple[str, Sequence[object]]]) -> int:
        """Remove ``(relation, values)`` tuples; returns how many existed."""
        removed = 0
        with self._lock:
            for relation, values in facts:
                if self.system.database.remove_tuple(relation, values):
                    removed += 1
        return removed

    def warm_prepared_pool(self, limit: int | None = None) -> int:
        """Plan every shared cached rewriting on this tenant's backend.

        The startup warmup of the prepared-query pool: after a restart
        (or a late registration against a warm artifact set) the tenant's
        first answer to a known query is a plan-cache hit, not a compile
        *plus* a plan.  Returns the number of queries prepared.
        """
        queries = list(self.artifacts.rewriting_cache)
        if limit is not None:
            queries = queries[:limit]
        with self._lock:
            for query in queries:
                self.system.prepare(query)
        self.warmed_prepared += len(queries)
        return len(queries)

    # -- request work -------------------------------------------------------
    #
    # Blocking: the serving app runs each of these on :attr:`executor`,
    # after the shared compile, with the *system* of the epoch the request
    # pinned — so planning is a plan-cache probe or one backend pass, never
    # an engine run, and a concurrent theory update cannot swap the system
    # out from under the request.  The one exception is
    # :meth:`answer_cached`, which the app calls on the event loop first.

    def prepare_blocking(self, query: ConjunctiveQuery, system: OBDASystem):
        """Plan *query* on this tenant's backend; returns the prepared handle."""
        with self._lock:
            return system.prepare(query)

    def answer_blocking(
        self,
        query: ConjunctiveQuery,
        bindings: Mapping[object, object] | None,
        system: OBDASystem,
    ) -> tuple[frozenset[tuple], bool, int]:
        """Execute *query*; returns ``(answers, served-from-cache?, epoch)``.

        Plans (once) and executes on the tenant's backend, with answers
        cached per database epoch.  The epoch is read together with the
        answers, so it is the one they belong to even when a ``/data``
        batch is queued right behind this call.
        """
        if self._fault_plan is not None:
            self._fault_plan.before_execute(self.name)
        with self._lock:
            return self._answer_locked(system.prepare(query), bindings, system)

    def answer_cached(
        self,
        query: ConjunctiveQuery,
        bindings: Mapping[object, object] | None,
        system: OBDASystem,
    ) -> tuple[frozenset[tuple], bool, int] | None:
        """:meth:`answer_blocking`'s result if the answer cache holds it.

        Called on the event loop, so it neither blocks nor executes.  It
        answers only when *query* is already prepared on *system*, the
        backend's data epoch reads no connection, the tenant lock is free
        and the answers of the current epoch and *bindings* are cached;
        otherwise it returns ``None`` and the caller takes the executor.
        Bad *bindings* take the executor too, so the fault plan's
        ``before_execute`` runs before the bindings check on both paths.
        An answer moves the counters as :meth:`answer_blocking` does.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            prepared = system.prepared_handle(query)
            if prepared is None or not prepared.backend.local_data_epoch:
                return None
            try:
                cached = prepared.probe(bindings)
            except ValueError:  # bad bindings: the executor path reports them
                return None
            if cached is None:
                return None
            if self._fault_plan is not None:
                self._fault_plan.before_execute(self.name)
            answered = self._answer_locked(system.prepare(query), bindings, system)
            self.answered_on_loop += 1
            return answered
        finally:
            self._lock.release()

    def _answer_locked(
        self,
        prepared: PreparedQuery,
        bindings: Mapping[object, object] | None,
        system: OBDASystem,
    ) -> tuple[frozenset[tuple], bool, int]:
        """Serve *prepared* under the held lock: ``(answers, cached?, epoch)``."""
        before = prepared.execution_cache_info().hits
        answers = prepared.execute(bindings)
        cached = prepared.execution_cache_info().hits > before
        self.answers_served += 1
        return answers.tuples, cached, system.database.epoch

    def prepare_batch_blocking(
        self, queries: Sequence[ConjunctiveQuery], system: OBDASystem
    ) -> list:
        """Plan a whole batch on this tenant's backend via ``prepare_many``."""
        with self._lock:
            return system.prepare_many(queries)

    # -- standing queries ---------------------------------------------------

    def subscribe_blocking(
        self, query: ConjunctiveQuery, system: OBDASystem
    ) -> tuple[Subscription, frozenset[tuple], int, str]:
        """Open a cursor on *query*'s answer set; returns the initial snapshot.

        The subscription's snapshot starts at the current answer set, so
        the first poll only reports changes made after subscribing.
        Returns ``(subscription, answers, epoch, refresh mode)``.
        """
        with self._lock:
            prepared = system.prepare(query)
            delta = prepared.poll()
            current = prepared.maintained_answers
            subscription = self.subscriptions.subscribe(query)
            subscription.delivered = current
            subscription.epoch = delta.epoch
            return subscription, current, delta.epoch, delta.mode

    def changes_blocking(self, cursor: str, system: OBDASystem) -> PollResult:
        """Poll the cursor: maintain the answer set, diff against the snapshot.

        The query is re-prepared against the pinned epoch's system, so a
        subscription opened before a live theory update keeps polling
        correctly afterwards (the maintainer of the new epoch
        full-refreshes once, and the cursor's delta covers the rewriting
        change exactly).
        """
        query = self.subscriptions.query_for(cursor)
        with self._lock:
            prepared = system.prepare(query)
            delta = prepared.poll()
            return self.subscriptions.deliver(
                cursor, prepared.maintained_answers, delta.epoch, delta.mode
            )

    def unsubscribe_blocking(self, cursor: str) -> None:
        """Drop the cursor (raises ``UnknownSubscriptionError`` if absent)."""
        self.subscriptions.unsubscribe(cursor)

    def invalidate_answers(self) -> int:
        """Drop every prepared query's cached answer sets; returns the count."""
        with self._lock:
            return self.system.invalidate_answers()

    def describe(self) -> dict:
        """The stats-endpoint view of this tenant."""
        prepared = self.system.prepared_cache_info()
        return {
            "fingerprint": self.fingerprint,
            "backend": self.backend_name,
            "facts": len(self.system.database),
            "epoch": self.system.database.epoch,
            "theory_updates": self.theory_updates,
            "answers_served": self.answers_served,
            "answered_on_loop": self.answered_on_loop,
            "warmed_prepared": self.warmed_prepared,
            "subscriptions": self.subscriptions.describe(),
            "prepared": {
                "size": prepared.size,
                "hits": prepared.hits,
                "misses": prepared.misses,
            },
        }

    def close(self) -> None:
        """Release the tenant executor and backend resources.

        Every live epoch's system is closed *on* the executor thread
        first (SQLite connections refuse cross-thread close), then the
        executor drains; each epoch's artifact reference is released so
        retired artifact sets can finally close too.
        """
        with self._epoch_lock:
            epochs = list(self._live_epochs)
        for epoch in epochs:
            self._close_epoch(epoch)
        self.executor.shutdown(wait=True)


class TenantRegistry:
    """Name → tenant, fingerprint → shared artifacts, one store for all.

    Parameters
    ----------
    cache_directory:
        Optional persistent cache directory.  Holds the server-wide
        :class:`~repro.cache.store.RewritingStore` (shared by every
        fingerprint — entries are keyed by it) and the frontier
        checkpoints of in-flight compiles.  Without it the service is
        memory-only: correct, but cold after every restart.
    max_tenants:
        Admission control: ``register`` beyond this bound raises
        :class:`RegistryFullError` (HTTP 429).
    backend:
        Default execution backend name for new tenants.
    warm_limit:
        Bound on rewritings preloaded from the store per fingerprint.
    fault_plan:
        Optional chaos-harness fault plan (see
        :mod:`repro.serving.chaos`), threaded into every artifact set
        (compile stalls/kills at generation boundaries) and tenant
        (backend faults).
    """

    def __init__(
        self,
        cache_directory: str | Path | None = None,
        max_tenants: int | None = None,
        backend: str = "memory",
        warm_limit: int | None = DEFAULT_WARM_LIMIT,
        fault_plan=None,
        max_tracked_changes: int | None = None,
    ) -> None:
        if max_tenants is not None and max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {max_tenants}")
        self._cache_directory = (
            Path(cache_directory) if cache_directory is not None else None
        )
        self.store = (
            RewritingStore(self._cache_directory)
            if self._cache_directory is not None
            else None
        )
        self.max_tenants = max_tenants
        self._default_backend = backend
        self._warm_limit = warm_limit
        self._fault_plan = fault_plan
        #: Per-tenant change-log bound (``repro serve --change-log``);
        #: ``None`` keeps :data:`RelationalInstance.MAX_TRACKED_CHANGES`.
        self._max_tracked_changes = max_tracked_changes
        # register/update/deregister may run on different pool threads
        # (the app offloads them); serialise the registry mutations.
        self._mutation_lock = threading.RLock()
        self._tenants: dict[str, Tenant] = {}
        self._artifacts: dict[str, SharedArtifacts] = {}

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def tenants(self) -> tuple[Tenant, ...]:
        """Every registered tenant, in registration order."""
        return tuple(self._tenants.values())

    def artifact_sets(self) -> tuple[SharedArtifacts, ...]:
        """Every live artifact set, in creation order."""
        return tuple(self._artifacts.values())

    def get(self, name: str) -> Tenant:
        """The tenant registered under *name*."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenantError(f"no tenant named {name!r} is registered")
        return tenant

    # -- registration ------------------------------------------------------

    def register(
        self,
        name: str,
        theory: OntologyTheory,
        facts: Iterable[tuple[str, Sequence[object]]] = (),
        backend: str | None = None,
        warm_prepared: bool = True,
    ) -> tuple[Tenant, bool]:
        """Create a tenant; returns ``(tenant, artifacts were shared?)``.

        The artifact set is resolved by theory fingerprint: a second
        tenant registering a structurally identical ontology (same rules
        modulo order and renaming) attaches to the existing set — its
        registration never compiles anything, and any rewriting either
        tenant compiles afterwards is immediately warm for both.
        """
        with self._mutation_lock:
            return self._register_locked(name, theory, facts, backend, warm_prepared)

    def _register_locked(
        self,
        name: str,
        theory: OntologyTheory,
        facts: Iterable[tuple[str, Sequence[object]]],
        backend: str | None,
        warm_prepared: bool,
    ) -> tuple[Tenant, bool]:
        if name in self._tenants:
            raise DuplicateTenantError(f"tenant {name!r} is already registered")
        if self.max_tenants is not None and len(self._tenants) >= self.max_tenants:
            raise RegistryFullError(
                f"tenant capacity reached ({self.max_tenants}); "
                "deregister a tenant first"
            )
        artifacts, shared = self._artifacts_for(theory)
        tenant = None
        try:
            tenant = Tenant(
                name,
                artifacts,
                backend=backend or self._default_backend,
                fault_plan=self._fault_plan,
                max_tracked_changes=self._max_tracked_changes,
            )
            tenant.on_own_thread(tenant.add_facts, facts)
            if warm_prepared and artifacts.rewriting_cache:
                tenant.on_own_thread(tenant.warm_prepared_pool, self._warm_limit)
        except BaseException:
            # Leave nothing behind: the half-built tenant's epoch holds a
            # reference on the set, and a set made for it has no tenant.
            if tenant is not None:
                tenant.close()
            if not artifacts.tenant_names:
                del self._artifacts[artifacts.fingerprint]
                artifacts.retire()
            raise
        self._attach(artifacts, name)
        self._tenants[name] = tenant
        return tenant, shared

    def _artifacts_for(self, theory: OntologyTheory) -> tuple[SharedArtifacts, bool]:
        """Get or create the artifact set of *theory*'s fingerprint."""
        fingerprint = resolve_engine_options(theory).fingerprint
        artifacts = self._artifacts.get(fingerprint)
        if artifacts is not None:
            return artifacts, True
        artifacts = SharedArtifacts(
            theory,
            store=self.store,
            checkpoint_directory=(
                self._cache_directory / CHECKPOINT_DIRNAME
                if self._cache_directory is not None
                else None
            ),
            warm_limit=self._warm_limit,
            fault_plan=self._fault_plan,
        )
        self._artifacts[artifacts.fingerprint] = artifacts
        return artifacts, False

    def _attach(self, artifacts: SharedArtifacts, name: str) -> None:
        """Record *name*'s membership in *artifacts* (one reference)."""
        artifacts.tenant_names.add(name)
        artifacts.retain()

    def _detach(self, artifacts: SharedArtifacts, name: str) -> None:
        """Drop *name*'s membership; retire the set when the last is out.

        Retiring drops the set from the fingerprint table immediately —
        a re-registration of the same theory gets a fresh set — but the
        retired set itself is only closed when its in-flight epoch
        references drain.
        """
        artifacts.tenant_names.discard(name)
        if not artifacts.tenant_names:
            if self._artifacts.get(artifacts.fingerprint) is artifacts:
                del self._artifacts[artifacts.fingerprint]
            artifacts.release()
            artifacts.retire()
        else:
            artifacts.release()

    def update_theory(
        self, name: str, theory: OntologyTheory
    ) -> tuple[Tenant, bool, bool]:
        """Swap a live tenant onto *theory* without dropping requests.

        Returns ``(tenant, changed?, artifacts were shared?)``.  A theory
        with the tenant's current fingerprint is a no-op.  Otherwise the
        tenant is epoched onto the (new or existing) artifact set of the
        new fingerprint: in-flight requests finish on the old epoch, new
        requests compile against the new fingerprint, and the old epoch —
        and its artifact set, when this was its last tenant — is released
        once its refcount drains.  Facts and the database epoch counter
        survive the update.
        """
        with self._mutation_lock:
            tenant = self.get(name)
            fingerprint = resolve_engine_options(theory).fingerprint
            if fingerprint == tenant.fingerprint:
                return tenant, False, True
            artifacts, shared = self._artifacts_for(theory)
            old = tenant.artifacts
            self._attach(artifacts, name)
            try:
                fresh = tenant.open_epoch(artifacts)
            except BaseException:
                # The tenant stays on its old set; a set it was the first
                # to join retires with no tenant.
                self._detach(artifacts, name)
                raise
            try:
                tenant.adopt(fresh)
            finally:
                # The tenant is on the new set even when closing its old
                # epoch failed.
                self._detach(old, name)
            return tenant, True, shared

    def deregister(self, name: str) -> None:
        """Remove a tenant, releasing its artifact set when last out.

        The shared artifact set survives as long as any same-fingerprint
        tenant remains; the persistent store survives regardless (that is
        the point of it).
        """
        with self._mutation_lock:
            tenant = self.get(name)
            del self._tenants[name]
            artifacts = tenant.artifacts
            tenant.close()
            self._detach(artifacts, name)

    def interrupt_all(self) -> None:
        """Ask every artifact set to abort its compiles (shutdown path).

        In-flight engine runs stop at their next generation boundary with
        their checkpoints already persisted, so a service stopped under
        load loses at most one generation per compile and resumes on
        restart.
        """
        for artifacts in list(self._artifacts.values()):
            artifacts.interrupt()

    def close(self) -> None:
        """Close every tenant, artifact set and the store."""
        with self._mutation_lock:
            for name in list(self._tenants):
                tenant = self._tenants.pop(name)
                artifacts = tenant.artifacts
                tenant.close()
                self._detach(artifacts, name)
            for artifacts in list(self._artifacts.values()):
                artifacts.close()
            self._artifacts.clear()
