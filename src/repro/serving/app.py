""":class:`ServingApp` — the transport-free serving application.

The app owns the endpoint contracts and nothing else: requests come in as
``(method, path, JSON payload)`` and leave as ``(status, JSON payload)``,
whether they arrived over a real socket (:mod:`repro.serving.http`) or
from an in-process test calling :meth:`ServingApp.request` directly.

Endpoints (full contracts in ``docs/SERVING.md``):

=======================  ====================================================
``POST /register-theory``  create a tenant from a workload name, a textual
                           DL-Lite TBox or JSON-encoded TGDs (+ facts)
``POST /prepare``          compile + plan a query for a tenant (warms it)
``POST /answer``           certain answers of a query over a tenant's data
``POST /data``             insert/remove facts (bumps the tenant's epoch)
``POST /invalidate``       drop a tenant's answer caches — or the tenant
``GET  /stats``            tenants, artifact sets, coalescing, store counters
``GET  /healthz``          liveness probe
=======================  ====================================================

Request lifecycle of ``/answer`` (the hot path):

1. parse the query (textual or tagged-JSON form);
2. **warm probe** — if the shared artifact set already holds the
   rewriting, skip straight to execution (never queued behind compiles);
3. **cold path** — coalesce onto the single-flight compile for the
   query's ``(canonical key, fingerprint)`` digest: one engine run per
   herd, run on the artifact set's dedicated executor thread;
4. answer: a warm hit — query prepared, answers of the current epoch
   cached, tenant idle — is served on the event loop
   (:meth:`Tenant.answer_cached`); anything else executes on the
   tenant's executor, where the plan cache and the epoch-keyed answer
   cache make a warm execute two dictionary probes.

Steps 2–4 are one frame, :meth:`ServingApp._run_pinned`, shared by
every endpoint that compiles and answers: it pins the tenant epoch the
request runs on from the first compile to the end of the tenant work.
The app parses each distinct query text once and encodes each answer
set it serves once (memos bounded in entries and in size by the
``MAX_PARSED_*`` and ``MAX_ENCODED_*`` constants), so a warm
``/answer`` costs a few dictionary probes.

Errors are structured and *classified*:
``{"error": {"code": ..., "message": ...}}`` with a meaningful HTTP
status and a machine-readable code — 400 malformed (``bad-request`` /
``bad-query`` / ...), 404 unknown tenant/endpoint, 405 wrong method,
409 duplicate tenant, 429 admission control, 500 ``compile-failed`` /
``internal``, 503 ``overloaded`` / ``circuit-open`` / ``backend-error``
(retryable, carrying ``retry_after``), 503 ``shutting-down`` (the
request's next executor hop came after :meth:`ServingApp.aclose` closed
the executors), 504 ``timeout`` (the compile's progress is
checkpointed; a retry resumes it).

The resilience layer (:mod:`repro.serving.resilience`, PR 8) threads
through every request: per-request deadlines (``compile_timeout`` /
``answer_timeout``, tightened per request by an ``X-Deadline-Ms``
header) enforced with ``asyncio.timeout`` around the compile wait and
the executor hop and cooperatively inside the engine, cold-path
admission control (:class:`~repro.serving.resilience.CompileGate`),
and a per-digest :class:`~repro.serving.resilience.CircuitBreaker`.
Warm answers never pass through the gate — overload sheds cold traffic
only.
"""

from __future__ import annotations

import asyncio
import functools
import json
import re
import sqlite3
import time
from dataclasses import dataclass

from ..api import ConflictingKeysError
from ..backends import BACKENDS, BackendError
from ..cache.checkpoint import compile_digest
from ..cache.serialization import (
    atom_from_json,
    query_from_json,
    tgd_from_json,
)
from ..dependencies.constraints import NegativeConstraint, first_conflict
from ..dependencies.theory import OntologyTheory
from ..incremental.subscriptions import UnknownSubscriptionError
from ..logic.terms import Constant
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.parser import QuerySyntaxError, parse_query
from .coalescing import SingleFlight
from .resilience import (
    CancelScope,
    CircuitBreaker,
    CircuitOpenError,
    CompileGate,
    CompileInterrupted,
    Deadline,
    OverloadedError,
    ResilienceConfig,
)
from .tenants import (
    DEFAULT_WARM_LIMIT,
    DuplicateTenantError,
    RegistryFullError,
    Tenant,
    TenantEpoch,
    TenantRegistry,
    UnknownTenantError,
)

#: Bound on the distinct query texts a :class:`ServingApp` keeps parsed.
MAX_PARSED_QUERIES = 1024

#: Longest query text kept parsed; a longer one (a request body may
#: hold 16 MiB) is parsed on every request, so the memo holds at most
#: ``MAX_PARSED_QUERIES * MAX_PARSED_QUERY_CHARS`` characters.
MAX_PARSED_QUERY_CHARS = 4096

#: Bounds on what ``/answer`` keeps encoded: answer sets, and answer rows
#: over all of them.  A set of more rows is encoded on every request.
MAX_ENCODED_ANSWER_SETS = 256
MAX_ENCODED_ROWS = 65536

#: ``json.dumps`` builds a new encoder per call when given keyword
#: arguments; these two are built once.  Answer rows are flat lists of
#: scalars, so their sort key needs no ``sort_keys``.
_BODY_ENCODER = json.JSONEncoder(sort_keys=True)
_ROW_ENCODER = json.JSONEncoder()

#: The JSON scalars a fact value may be (``bool`` is an ``int``).
_SCALARS = (str, int, float, type(None))


@dataclass(frozen=True)
class ServingResponse:
    """One endpoint response: HTTP status plus the JSON payload."""

    status: int
    payload: dict

    @property
    def ok(self) -> bool:
        """``True`` for 2xx responses."""
        return 200 <= self.status < 300

    def body(self) -> bytes:
        """The payload as canonical JSON bytes (what the wire carries)."""
        return _BODY_ENCODER.encode(self.payload).encode("utf-8")


class ServingError(Exception):
    """A structured endpoint failure: status + machine-readable code.

    *retry_after* (seconds) marks retryable failures — shed, open
    circuit, backend hiccup; it lands in the error body and the HTTP
    layer mirrors it as a ``Retry-After`` header.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after

    def response(self) -> ServingResponse:
        """The error body every endpoint failure shares."""
        error = {"code": self.code, "message": str(self)}
        if self.retry_after is not None:
            error["retry_after"] = round(self.retry_after, 3)
        return ServingResponse(self.status, {"error": error})


def encode_answers(tuples: frozenset[tuple]) -> list[list]:
    """Deterministic JSON encoding of an answer set.

    One list per answer tuple, holding the constants' raw values; rows
    sorted by their JSON serialisation so equal answer sets always encode
    to identical bytes.  This is the byte-identity channel of the serving
    differential tests: the direct in-process path is encoded with the
    same function and compared as JSON.
    """
    rows = []
    for answer in tuples:
        row = []
        for value in answer:
            if isinstance(value, Constant):
                value = value.value
            if not isinstance(value, (str, int, float, bool)) and value is not None:
                raise ServingError(
                    500,
                    "unserializable-answer",
                    f"answer value {value!r} has no JSON form",
                )
            row.append(value)
        rows.append(row)
    rows.sort(key=_ROW_ENCODER.encode)
    return rows


#: ``/tenants/{name}/<action>``: the tenant name, then the action.
_TENANT_PATH = re.compile(r"/tenants/([^/]+)/([^/]+)")


def _remember(memo: dict, key, value, bound: int) -> None:
    """Store *value* under *key*, first evicting the oldest entries."""
    while len(memo) >= bound:
        del memo[next(iter(memo))]
    memo[key] = value


def _timed_out(what: str, budget: float) -> ServingError:
    """The 504 of a request whose *what* outran its *budget* (seconds)."""
    return ServingError(
        504, "timeout", f"{what} did not finish within its {max(budget, 0.0):.3f}s budget"
    )


class ServingApp:
    """The multi-tenant serving application (see module docstring).

    Parameters mirror ``repro serve``: *cache* is the persistent cache
    directory (rewriting store + compile checkpoints), *max_tenants* the
    admission-control bound, *backend* the default execution backend for
    new tenants.  *warm_limit* bounds per-fingerprint store preloading.
    *fault_plan* (see :class:`~repro.serving.chaos.FaultPlan`) injects
    compile stalls and kills at generation boundaries and backend faults
    on the answer path; the chaos harness and the tests use it.
    """

    def __init__(
        self,
        cache: str | None = None,
        max_tenants: int | None = None,
        backend: str = "memory",
        warm_limit: int | None = DEFAULT_WARM_LIMIT,
        resilience: ResilienceConfig | None = None,
        fault_plan=None,
        change_log: int | None = None,
    ) -> None:
        self.config = resilience or ResilienceConfig()
        self.registry = TenantRegistry(
            cache_directory=cache,
            max_tenants=max_tenants,
            backend=backend,
            warm_limit=warm_limit,
            fault_plan=fault_plan,
            max_tracked_changes=change_log,
        )
        self.flights = SingleFlight()
        self.gate = CompileGate(self.config)
        self.breaker = CircuitBreaker(self.config)
        self._started = time.monotonic()
        self._request_counts: dict[str, int] = {}
        # Event-loop-only memos of the warm /answer path (see the module
        # docstring): parsed queries by exact text, and encoded rows by
        # the *identity* of the answer set, never its value —
        # Constant(1) == Constant(True), yet they encode as 1 and true.
        # Each entry holds its answer set, so the id cannot be reused.
        self._parsed_queries: dict[str, ConjunctiveQuery] = {}
        self._encoded_answers: dict[int, tuple[frozenset, list[list]]] = {}
        self._encoded_row_count = 0
        self._routes = {
            ("POST", "/register-theory"): self._register,
            ("POST", "/prepare"): self._prepare,
            ("POST", "/answer"): self._answer,
            ("POST", "/data"): self._data,
            ("POST", "/invalidate"): self._invalidate,
            ("GET", "/stats"): self._stats,
            ("GET", "/healthz"): self._healthz,
        }
        # Per-tenant routes ``/tenants/{name}/<action>``: action ->
        # (method, handler).  Handlers take (name, payload, headers).
        self._tenant_routes = {
            "theory": ("POST", self._update_theory),
            "subscribe": ("POST", self._subscribe),
            "changes": ("GET", self._changes),
            "unsubscribe": ("POST", self._unsubscribe),
            "prepare-batch": ("POST", self._prepare_batch),
        }
        self._closed = False

    # -- the front door ----------------------------------------------------

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> ServingResponse:
        """Route one request; never raises (failures become error bodies).

        *headers* carries transport metadata the handlers honor —
        currently ``x-deadline-ms`` (lower-cased keys, as the HTTP layer
        normalises them).
        """
        method = method.upper()
        route = path
        handler = self._routes.get((method, path))
        if handler is None:
            match = _TENANT_PATH.fullmatch(path)
            action = match.group(2) if match is not None else None
            if action not in self._tenant_routes:
                if any(route_path == path for _, route_path in self._routes):
                    return ServingError(
                        405, "method-not-allowed", f"{method} is not valid for {path}"
                    ).response()
                return ServingError(
                    404, "unknown-endpoint", f"no endpoint {path}"
                ).response()
            route_method, tenant_handler = self._tenant_routes[action]
            if method != route_method:
                return ServingError(
                    405, "method-not-allowed", f"{method} is not valid for {path}"
                ).response()
            # Counted under the template: tenant names are client input,
            # so counting raw paths would grow without bound.
            route = f"/tenants/{{name}}/{action}"
            handler = functools.partial(tenant_handler, match.group(1))
        self._request_counts[route] = self._request_counts.get(route, 0) + 1
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            return ServingError(
                400, "bad-request", "request body must be a JSON object"
            ).response()
        try:
            return await handler(payload, headers or {})
        except ServingError as error:
            return error.response()
        except UnknownTenantError as error:
            return ServingError(404, "unknown-tenant", str(error)).response()
        except UnknownSubscriptionError as error:
            return ServingError(
                404, "unknown-cursor", f"no subscription {error.args[0]!r}"
            ).response()
        except DuplicateTenantError as error:
            return ServingError(409, "duplicate-tenant", str(error)).response()
        except RegistryFullError as error:
            return ServingError(429, "max-tenants", str(error)).response()
        except QuerySyntaxError as error:
            return ServingError(400, "bad-query", str(error)).response()
        except OverloadedError as error:
            return ServingError(
                503, "overloaded", str(error), retry_after=error.retry_after
            ).response()
        except CircuitOpenError as error:
            return ServingError(
                503, "circuit-open", str(error), retry_after=error.retry_after
            ).response()
        except (BackendError, sqlite3.Error) as error:
            return ServingError(
                503,
                "backend-error",
                f"{type(error).__name__}: {error}",
                retry_after=self.config.shed_retry_after,
            ).response()
        except (asyncio.TimeoutError, CompileInterrupted) as error:
            return ServingError(
                504, "timeout", str(error) or "request budget exhausted"
            ).response()
        except (KeyError, TypeError, ValueError) as error:
            return ServingError(400, "bad-request", str(error)).response()
        except Exception as error:  # truly unclassified failures
            if self._closed and isinstance(error, RuntimeError):
                # The request's next hop found an executor that shutdown
                # had closed.
                return ServingError(
                    503, "shutting-down", "the service is shutting down"
                ).response()
            return ServingError(
                500, "internal", f"{type(error).__name__}: {error}"
            ).response()

    async def aclose(self) -> None:
        """Graceful shutdown: drain the executors, close systems and store.

        In-flight compiles are interrupted *first* — they abort at their
        next generation boundary with their frontier checkpoints already
        on disk — so draining the executors is bounded by one generation,
        not one compile, and the interrupted work resumes after restart.
        """
        if self._closed:
            return
        self._closed = True
        self.registry.interrupt_all()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.registry.close)

    def close(self) -> None:
        """Synchronous shutdown for non-async callers."""
        if not self._closed:
            self._closed = True
            self.registry.interrupt_all()
            self.registry.close()

    # -- payload decoding --------------------------------------------------

    @staticmethod
    def _required(payload: dict, field: str):
        value = payload.get(field)
        if value is None:
            raise ServingError(400, "missing-field", f"field {field!r} is required")
        return value

    @classmethod
    def _required_string(cls, payload: dict, field: str) -> str:
        value = cls._required(payload, field)
        if not isinstance(value, str):
            raise ServingError(400, "bad-request", f"'{field}' must be a string")
        return value

    def _tenant(self, payload: dict) -> Tenant:
        return self.registry.get(self._required_string(payload, "tenant"))

    def _decode_query(self, payload: dict) -> ConjunctiveQuery:
        """A query from its textual form or the tagged-JSON encoding.

        Each distinct text of at most :data:`MAX_PARSED_QUERY_CHARS` is
        parsed once (queries are immutable); a syntax error is raised
        again on every request, never cached.
        """
        raw = payload.get("query")
        if isinstance(raw, str):
            query = self._parsed_queries.get(raw)
            if query is None:
                query = parse_query(raw)
                if len(raw) <= MAX_PARSED_QUERY_CHARS:
                    _remember(self._parsed_queries, raw, query, MAX_PARSED_QUERIES)
            return query
        if isinstance(raw, dict):
            try:
                return query_from_json(raw)
            except (KeyError, TypeError, ValueError) as error:
                raise ServingError(
                    400, "bad-query", f"unreadable JSON query: {error}"
                ) from error
        raise ServingError(
            400,
            "bad-query",
            "'query' must be a string (\"q(A) :- p(A)\") or a tagged-JSON object",
        )

    @classmethod
    def _decode_theory(cls, payload: dict, default_name: str) -> OntologyTheory:
        """A theory from a workload name, a textual TBox or JSON TGDs.

        A theory whose keys conflict with its TGDs is refused here, before
        anything is built for it (:class:`repro.api.ConflictingKeysError`).
        """
        theory = cls._read_theory(payload, default_name)
        conflict = first_conflict(theory.tgds, theory.key_dependencies)
        if conflict is not None:
            raise ServingError(400, "conflicting-keys", str(ConflictingKeysError(*conflict)))
        return theory

    @staticmethod
    def _read_theory(payload: dict, default_name: str) -> OntologyTheory:
        """The theory a registration or theory update names."""
        sources = [key for key in ("workload", "tbox", "tgds") if key in payload]
        if len(sources) != 1:
            raise ServingError(
                400,
                "bad-theory",
                "exactly one of 'workload', 'tbox' or 'tgds' is required",
            )
        if sources[0] != "tgds" and not isinstance(payload[sources[0]], str):
            raise ServingError(400, "bad-theory", f"'{sources[0]}' must be a string")
        if "workload" in payload:
            from ..workloads import get_workload

            try:
                return get_workload(payload["workload"]).theory
            except KeyError as error:
                raise ServingError(
                    404, "unknown-workload", f"no workload {payload['workload']!r}"
                ) from error
        if "tbox" in payload:
            from ..ontology.parser import parse_ontology
            from ..ontology.translation import to_theory

            try:
                return to_theory(
                    parse_ontology(payload["tbox"], name=default_name)
                )
            except ValueError as error:
                raise ServingError(
                    400, "bad-theory", f"unreadable TBox: {error}"
                ) from error
        try:
            tgds = [tgd_from_json(rule) for rule in payload["tgds"]]
            constraints = [
                NegativeConstraint(
                    body=[atom_from_json(atom) for atom in constraint]
                )
                for constraint in payload.get("constraints", [])
            ]
        except (KeyError, TypeError, ValueError) as error:
            raise ServingError(
                400, "bad-theory", f"unreadable JSON rules: {error}"
            ) from error
        return OntologyTheory(
            tgds=tgds, negative_constraints=constraints, name=default_name
        )

    @staticmethod
    def _decode_facts(payload: dict, field: str = "facts") -> list[tuple[str, list]]:
        """``[[relation, [v1, v2, ...]], ...]`` fact lists of JSON scalar values.

        The whole list is checked before anything is applied, so a bad
        fact rejects its batch whole.
        """
        facts = payload.get(field, [])
        if not isinstance(facts, list):
            raise ServingError(400, "bad-facts", f"'{field}' must be a list")
        decoded = []
        for entry in facts:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], list)
            ):
                raise ServingError(
                    400,
                    "bad-facts",
                    f"each fact must be [relation, [values...]], got {entry!r}",
                )
            for value in entry[1]:
                if not isinstance(value, _SCALARS):
                    raise ServingError(
                        400,
                        "bad-facts",
                        "fact values must be strings, numbers, booleans or "
                        f"null, got {value!r} in {entry!r}",
                    )
            decoded.append((entry[0], entry[1]))
        return decoded

    # -- the compile path --------------------------------------------------

    async def _ensure_compiled(
        self,
        tenant: Tenant,
        epoch: TenantEpoch,
        query: ConjunctiveQuery,
        deadline: Deadline,
    ) -> tuple[str, bool]:
        """Make sure *query*'s rewriting is in the shared artifact cache.

        Returns ``(source, coalesced)``.  Warm queries short-circuit on a
        dictionary probe and never queue behind a running compile — nor
        behind the admission gate: overload sheds cold traffic only.
        Cold queries run the resilience gauntlet:

        1. **admission** — the gate bounds the tenant's cold queue and
           (for flight leaders) the global in-flight compiles; full means
           503 + ``Retry-After`` *now*, not a queue slot;
        2. **circuit breaker** — leaders of a digest whose compiles fail
           deterministically are rejected while the circuit is open;
        3. **single flight** — the herd coalesces per compile digest;
        4. **deadline** — the wait is bounded by the compile budget.  On
           timeout the leader cancels the :class:`CancelScope`, the
           engine aborts at its next generation boundary (checkpoint
           already persisted) and every waiter gets a 504 whose retry
           *resumes* the compile instead of restarting it.
        """
        artifacts = epoch.artifacts
        if query in artifacts.rewriting_cache:
            artifacts.served_memory += 1
            return "memory", False
        digest = compile_digest(query, artifacts.fingerprint)
        leader = not self.flights.pending(digest)
        self.gate.admit(tenant.name, leader)
        budget = deadline.phase_budget(self.config.compile_timeout)
        scope = CancelScope(
            deadline=time.monotonic() + budget if budget is not None else None
        )
        loop = asyncio.get_running_loop()

        def thunk():
            return loop.run_in_executor(
                artifacts.executor,
                lambda: artifacts.compile_blocking(query, scope),
            )

        try:
            if leader:
                self.breaker.check(digest)
            # Synchronous join-or-start: no await separates the pending
            # probe that decided `leader` from the flight creation, so
            # the admission accounting above cannot be raced.
            task, _ = self.flights.acquire(digest, thunk)
            async with asyncio.timeout(budget):
                _, source = await asyncio.shield(task)
        except TimeoutError:
            if leader:
                scope.cancel()
                self.breaker.record_interrupt(digest)
            raise ServingError(
                504,
                "timeout",
                f"compile did not finish within its {budget:.3f}s budget; "
                "progress is checkpointed — a retry resumes it",
            ) from None
        except CompileInterrupted as error:
            if leader:
                self.breaker.record_interrupt(digest)
            raise ServingError(504, "timeout", str(error)) from error
        except (ServingError, CircuitOpenError, OverloadedError):
            raise
        except Exception as error:
            if self._closed and isinstance(error, RuntimeError):
                raise  # shutdown closed the compile executor: 503
            if leader:
                self.breaker.record_failure(digest, error)
            raise ServingError(
                500, "compile-failed", f"{type(error).__name__}: {error}"
            ) from error
        else:
            if leader:
                self.breaker.record_success(digest)
            return source, not leader
        finally:
            self.gate.release(tenant.name, leader)

    async def _run_pinned(
        self,
        tenant: Tenant,
        headers: dict,
        queries: list[ConjunctiveQuery],
        what: str,
        work,
        probe=None,
    ) -> tuple[list[tuple[str, bool]], object, float]:
        """The frame of every endpoint that compiles and then answers.

        Pins the tenant's epoch for the whole request, compiles each of
        *queries* against its artifacts through :meth:`_ensure_compiled`,
        then runs ``work(system)`` with the epoch's system on the tenant's
        executor, bounded by ``answer_timeout`` and the request's
        remaining deadline (504 when the budget runs out first, and
        before the hop when it is already spent, so that no work runs
        for a request that has been answered).  Returns each query's
        ``(source, coalesced)``, the work's result and the elapsed
        milliseconds.

        *probe*, when given, is tried first, on the event loop, while
        the answer budget is not spent: ``probe(system)`` returns the
        work's result without blocking, or ``None`` to take the executor.
        """
        started = time.perf_counter()
        deadline = Deadline.from_header(headers)
        epoch = tenant.retain_epoch()
        try:
            compiled = [
                await self._ensure_compiled(tenant, epoch, query, deadline)
                for query in queries
            ]
            budget = deadline.phase_budget(self.config.answer_timeout)
            result = None
            if probe is not None and (budget is None or budget > 0):
                result = probe(epoch.system)
            if result is None:
                if budget is not None and budget <= 0:
                    raise _timed_out(what, budget)
                try:
                    async with asyncio.timeout(budget):
                        result = await asyncio.get_running_loop().run_in_executor(
                            tenant.executor, work, epoch.system
                        )
                except TimeoutError:
                    raise _timed_out(what, budget) from None
        finally:
            tenant.release_epoch(epoch)
        return compiled, result, (time.perf_counter() - started) * 1000.0

    # -- endpoint handlers -------------------------------------------------

    async def _register(self, payload: dict, headers: dict) -> ServingResponse:
        name = self._required(payload, "tenant")
        if not isinstance(name, str) or not name:
            raise ServingError(400, "bad-request", "'tenant' must be a non-empty string")
        theory = self._decode_theory(payload, default_name=name)
        facts = self._decode_facts(payload)
        backend = payload.get("backend")
        if backend not in (None, *BACKENDS):
            raise ServingError(
                400,
                "bad-backend",
                f"unknown backend {backend!r}; known backends: "
                f"{', '.join(sorted(BACKENDS))}",
            )
        loop = asyncio.get_running_loop()
        tenant, shared = await loop.run_in_executor(
            None,
            lambda: self.registry.register(
                name, theory, facts=facts, backend=backend
            ),
        )
        return ServingResponse(
            201,
            {
                "tenant": name,
                "fingerprint": tenant.fingerprint,
                "shared_artifacts": shared,
                "tgds": len(theory.tgds),
                "constraints": len(theory.negative_constraints),
                "facts": len(tenant.system.database),
                "warmed_rewritings": tenant.artifacts.warmed,
                "warmed_prepared": tenant.warmed_prepared,
            },
        )

    async def _update_theory(
        self, name: str, payload: dict, headers: dict
    ) -> ServingResponse:
        """``POST /tenants/{name}/theory`` — epoch a live tenant.

        In-flight requests finish on the old artifact set; requests
        arriving after this returns compile against the new fingerprint.
        Facts and the database epoch counter survive.
        """
        self.registry.get(name)  # 404 before decoding the body
        theory = self._decode_theory(payload, default_name=name)
        loop = asyncio.get_running_loop()
        tenant, changed, shared = await loop.run_in_executor(
            None, lambda: self.registry.update_theory(name, theory)
        )
        return ServingResponse(
            200,
            {
                "tenant": name,
                "fingerprint": tenant.fingerprint,
                "changed": changed,
                "shared_artifacts": shared,
                "theory_updates": tenant.theory_updates,
                "tgds": len(theory.tgds),
                "constraints": len(theory.negative_constraints),
                "facts": len(tenant.system.database),
            },
        )

    async def _prepare(self, payload: dict, headers: dict) -> ServingResponse:
        tenant = self._tenant(payload)
        query = self._decode_query(payload)
        [(source, coalesced)], prepared, elapsed_ms = await self._run_pinned(
            tenant,
            headers,
            [query],
            "prepare",
            lambda system: tenant.prepare_blocking(query, system),
        )
        return ServingResponse(
            200,
            {
                "tenant": tenant.name,
                "source": source,
                "coalesced": coalesced,
                "cqs": len(prepared.rewriting.ucq),
                "elapsed_ms": elapsed_ms,
            },
        )

    async def _prepare_batch(
        self, name: str, payload: dict, headers: dict
    ) -> ServingResponse:
        """``POST /tenants/{name}/prepare-batch`` — bulk plan warming.

        Each query's compile runs through the same single-flight /
        admission-control path as a single ``/prepare`` (a concurrent
        identical batch coalesces per digest); backend planning of the
        whole batch then happens in one hop on the tenant executor via
        ``prepare_many``.
        """
        tenant = self.registry.get(name)
        raw = self._required(payload, "queries")
        if not isinstance(raw, list) or not raw:
            raise ServingError(
                400, "bad-request", "'queries' must be a non-empty list"
            )
        queries = [
            self._decode_query(item if isinstance(item, dict) else {"query": item})
            for item in raw
        ]
        compiled, prepared, elapsed_ms = await self._run_pinned(
            tenant,
            headers,
            queries,
            "prepare-batch",
            lambda system: tenant.prepare_batch_blocking(queries, system),
        )
        results = [
            {"source": source, "coalesced": coalesced, "cqs": len(handle.rewriting.ucq)}
            for (source, coalesced), handle in zip(compiled, prepared)
        ]
        return ServingResponse(
            200,
            {
                "tenant": tenant.name,
                "prepared": len(prepared),
                "results": results,
                "elapsed_ms": elapsed_ms,
            },
        )

    async def _subscribe(
        self, name: str, payload: dict, headers: dict
    ) -> ServingResponse:
        """``POST /tenants/{name}/subscribe`` — open a standing-query cursor.

        Returns the cursor plus the current answer set as the initial
        snapshot; subsequent ``GET /tenants/{name}/changes?cursor=``
        polls return only the delta accumulated since the last delivery.
        """
        tenant = self.registry.get(name)
        query = self._decode_query(payload)
        [(source, coalesced)], opened, elapsed_ms = await self._run_pinned(
            tenant,
            headers,
            [query],
            "subscribe",
            lambda system: tenant.subscribe_blocking(query, system),
        )
        subscription, answers, epoch_counter, mode = opened
        return ServingResponse(
            201,
            {
                "tenant": tenant.name,
                "cursor": subscription.cursor,
                "answers": encode_answers(answers),
                "count": len(answers),
                "epoch": epoch_counter,
                "mode": mode,
                "source": source,
                "coalesced": coalesced,
                "elapsed_ms": elapsed_ms,
            },
        )

    async def _changes(
        self, name: str, payload: dict, headers: dict
    ) -> ServingResponse:
        """``GET /tenants/{name}/changes?cursor=`` — poll a cursor's delta.

        The answer set is delta-maintained on the tenant's executor
        thread (semi-naive inserts, DRed deletes, full-refresh fallback
        when the change log was truncated); the response carries the rows
        added and removed since the cursor's previous delivery, in the
        same deterministic ``encode_answers`` ordering as ``/answer``.
        """
        tenant = self.registry.get(name)
        cursor = self._required_string(payload, "cursor")
        query = tenant.subscriptions.query_for(cursor)
        [(source, coalesced)], poll, elapsed_ms = await self._run_pinned(
            tenant,
            headers,
            [query],
            "poll",
            lambda system: tenant.changes_blocking(cursor, system),
        )
        return ServingResponse(
            200,
            {
                "tenant": tenant.name,
                "cursor": poll.cursor,
                "added": encode_answers(poll.added),
                "removed": encode_answers(poll.removed),
                "count": poll.answers,
                "epoch": poll.epoch,
                "mode": poll.mode,
                "polls": poll.polls,
                "source": source,
                "coalesced": coalesced,
                "elapsed_ms": elapsed_ms,
            },
        )

    async def _unsubscribe(
        self, name: str, payload: dict, headers: dict
    ) -> ServingResponse:
        """``POST /tenants/{name}/unsubscribe`` — drop a cursor."""
        tenant = self.registry.get(name)
        cursor = self._required_string(payload, "cursor")
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            tenant.executor, lambda: tenant.unsubscribe_blocking(cursor)
        )
        return ServingResponse(
            200, {"tenant": tenant.name, "cursor": cursor, "unsubscribed": True}
        )

    async def _answer(self, payload: dict, headers: dict) -> ServingResponse:
        tenant = self._tenant(payload)
        query = self._decode_query(payload)
        bindings = payload.get("bindings")
        if bindings is not None and not isinstance(bindings, dict):
            raise ServingError(400, "bad-bindings", "'bindings' must be an object")

        def answer(system):
            try:
                return tenant.answer_blocking(query, bindings, system)
            except ValueError as error:
                raise ServingError(400, "bad-bindings", str(error)) from error

        [(source, coalesced)], answered, elapsed_ms = await self._run_pinned(
            tenant,
            headers,
            [query],
            "answer",
            answer,
            probe=lambda system: tenant.answer_cached(query, bindings, system),
        )
        tuples, cached, epoch_counter = answered
        return ServingResponse(
            200,
            {
                "tenant": tenant.name,
                "answers": self._encoded_rows(tuples),
                "count": len(tuples),
                "source": source,
                "coalesced": coalesced,
                "answer_cached": cached,
                "epoch": epoch_counter,
                "elapsed_ms": elapsed_ms,
            },
        )

    def _encoded_rows(self, tuples: frozenset[tuple]) -> list[list]:
        """``encode_answers(tuples)``, encoded once per answer set object.

        The memo keeps at most :data:`MAX_ENCODED_ANSWER_SETS` sets and
        :data:`MAX_ENCODED_ROWS` rows, oldest evicted first, so the sets
        it keeps alive after their tenant dropped them stay bounded too.
        Each response gets its own row lists, so no caller can alter
        what the memo serves next.
        """
        memo = self._encoded_answers
        entry = memo.get(id(tuples))
        if entry is None:
            entry = (tuples, encode_answers(tuples))
            if len(tuples) <= MAX_ENCODED_ROWS:
                while memo and (
                    len(memo) >= MAX_ENCODED_ANSWER_SETS
                    or self._encoded_row_count + len(tuples) > MAX_ENCODED_ROWS
                ):
                    evicted, _ = memo.pop(next(iter(memo)))
                    self._encoded_row_count -= len(evicted)
                memo[id(tuples)] = entry
                self._encoded_row_count += len(tuples)
        return [list(row) for row in entry[1]]

    async def _data(self, payload: dict, headers: dict) -> ServingResponse:
        tenant = self._tenant(payload)
        added_facts = self._decode_facts(payload, "add")
        removed_facts = self._decode_facts(payload, "remove")
        if not added_facts and not removed_facts:
            raise ServingError(
                400, "bad-request", "'add' and/or 'remove' fact lists are required"
            )
        loop = asyncio.get_running_loop()

        def mutate() -> tuple[int, int, int, int]:
            added = tenant.add_facts(added_facts)
            removed = tenant.remove_facts(removed_facts)
            database = tenant.system.database
            return added, removed, len(database), database.epoch

        added, removed, facts, epoch = await loop.run_in_executor(
            tenant.executor, mutate
        )
        return ServingResponse(
            200,
            {
                "tenant": tenant.name,
                "added": added,
                "removed": removed,
                "facts": facts,
                "epoch": epoch,
            },
        )

    async def _invalidate(self, payload: dict, headers: dict) -> ServingResponse:
        tenant = self._tenant(payload)
        scope = payload.get("scope", "answers")
        loop = asyncio.get_running_loop()
        if scope == "answers":
            invalidated = await loop.run_in_executor(
                tenant.executor, tenant.invalidate_answers
            )
            return ServingResponse(
                200,
                {"tenant": tenant.name, "scope": scope, "invalidated": invalidated},
            )
        if scope == "tenant":
            await loop.run_in_executor(
                None, lambda: self.registry.deregister(tenant.name)
            )
            return ServingResponse(
                200, {"tenant": tenant.name, "scope": scope, "invalidated": 1}
            )
        raise ServingError(
            400, "bad-scope", f"scope must be 'answers' or 'tenant', got {scope!r}"
        )

    async def _stats(self, payload: dict, headers: dict) -> ServingResponse:
        store = self.registry.store
        store_stats = None
        if store is not None:
            statistics = store.statistics
            store_stats = {
                "entries": len(store),
                "hits": statistics.hits,
                "misses": statistics.misses,
                "stores": statistics.stores,
                "path": str(store.path),
            }
        return ServingResponse(
            200,
            {
                "uptime_seconds": time.monotonic() - self._started,
                "tenants": {
                    tenant.name: tenant.describe()
                    for tenant in self.registry.tenants()
                },
                "artifacts": {
                    artifacts.fingerprint[:12]: artifacts.describe()
                    for artifacts in self.registry.artifact_sets()
                },
                "coalescing": {
                    "leaders": self.flights.leaders,
                    "joined": self.flights.joined,
                    "inflight": len(self.flights),
                },
                "store": store_stats,
                "resilience": {
                    "gate": self.gate.describe(),
                    "breaker": self.breaker.describe(),
                    "timeouts": {
                        "compile": self.config.compile_timeout,
                        "answer": self.config.answer_timeout,
                    },
                },
                "requests": dict(sorted(self._request_counts.items())),
                "max_tenants": self.registry.max_tenants,
            },
        )

    async def _healthz(self, payload: dict, headers: dict) -> ServingResponse:
        return ServingResponse(
            200, {"status": "ok", "tenants": len(self.registry)}
        )
