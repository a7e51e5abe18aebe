"""The serving tier's resilience layer: deadlines, shedding, breakers.

PR 7 gave the serving tier a front door; this module gives it a notion
of **time and overload**.  Everything here leans on the one property the
engine has had since PR 3: rewriting is a *pure, restartable* function
of ``(rules, options, query)``, checkpointable at generation boundaries
(PR 5).  Abandoning, shedding or interrupting a compile therefore never
corrupts anything — the next request simply resumes from the last
completed generation — which is what makes aggressive fail-fast
behaviour safe to deploy:

* :class:`Deadline` / :class:`CancelScope` — per-request time budgets
  (``compile_timeout`` / ``answer_timeout``, overridable per request via
  an ``X-Deadline-Ms`` header).  The event loop enforces them with
  ``asyncio.timeout``; the engine observes them *cooperatively* through
  the generation-boundary callback that
  :meth:`SharedArtifacts.compile_blocking
  <repro.serving.tenants.SharedArtifacts.compile_blocking>` hands the
  rewriting kernel: it checks the scope before each frontier generation
  and raises :class:`CompileInterrupted` — after the kernel has already
  persisted the checkpoint of the last completed generation, so a 504
  leaves a resumable compile behind, not a wasted one.
* :class:`CompileGate` — admission control for the cold path: a global
  in-flight-compile bound plus a bounded per-tenant compile queue.  When
  full, cold requests are shed with 503 + ``Retry-After`` *before* they
  consume an executor slot; warm requests never pass through the gate at
  all, extending PR 7's no-starvation guarantee from "one wedged
  compile" to "an overloaded service".
* :class:`CircuitBreaker` — per compile digest.  A query whose compile
  fails deterministically would otherwise be retried by every client
  forever, each retry burning a full engine run; after
  ``breaker_threshold`` consecutive failures the breaker opens and
  converts the retry storm into instant 503s with exponential backoff
  (seeded jitter, so tests are reproducible).  A half-open probe re-tests
  the compile once per backoff window; success closes the breaker.

:class:`ResilienceConfig` carries the knobs (mirrored by ``repro serve``
flags); :class:`ServingApp` owns one gate and one breaker table and
threads scopes into :meth:`SharedArtifacts.compile_blocking`.  See
``docs/SERVING.md`` (semantics) and ``docs/OPERATIONS.md`` (tuning).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass


class CompileInterrupted(RuntimeError):
    """A compile was cooperatively aborted between frontier generations.

    Raised on the compile executor thread by the generation-boundary
    callback of :meth:`SharedArtifacts.compile_blocking
    <repro.serving.tenants.SharedArtifacts.compile_blocking>` when the
    request's :class:`CancelScope` expires (deadline passed or explicitly
    cancelled) or the artifact set is shutting down.  By construction the
    kernel has already checkpointed the last *completed* generation, so
    the work is resumable, not lost.
    """


@dataclass(frozen=True)
class ResilienceConfig:
    """The serving tier's resilience knobs (see ``docs/OPERATIONS.md``).

    ``None`` timeouts disable the respective deadline.  The defaults are
    deliberately generous — they exist to bound pathology, not to tune
    latency; ``repro serve`` exposes each as a flag and requests can
    tighten (never widen) the budget with an ``X-Deadline-Ms`` header.
    """

    #: Budget for one compile, warm-probe to artifact, in seconds.
    compile_timeout: float | None = 30.0
    #: Budget for one plan execution on the tenant backend, in seconds.
    answer_timeout: float | None = 10.0
    #: Global bound on concurrently *running* compile flights.
    max_inflight_compiles: int = 8
    #: Bound on cold requests queued (leader + joiners) per tenant.
    #: Joiners are cheap (one shielded await each), so the default sits
    #: well above the thundering-herd sizes coalescing is built for.
    queue_depth: int = 256
    #: Consecutive compile failures per digest before the breaker opens.
    breaker_threshold: int = 3
    #: First open interval in seconds; doubles per consecutive trip.
    breaker_base_delay: float = 0.5
    #: Cap on the open interval.
    breaker_max_delay: float = 30.0
    #: Seed of the breaker's jitter stream (reproducible backoff).
    breaker_seed: int = 0
    #: ``Retry-After`` hint (seconds) attached to shed (503) responses.
    shed_retry_after: float = 1.0


class Deadline:
    """A monotonic-clock budget for one request.

    Built once at request entry from the config defaults and the optional
    ``X-Deadline-Ms`` header (the header *caps* the per-phase budgets, it
    never extends them).  ``None`` means unbounded.
    """

    def __init__(self, seconds: float | None) -> None:
        self._expires = (
            time.monotonic() + seconds if seconds is not None else None
        )

    @classmethod
    def from_header(cls, headers: dict | None) -> "Deadline":
        """The request-wide deadline encoded in ``X-Deadline-Ms``, if any.

        Unreadable or non-positive values are ignored (the request simply
        runs under the configured per-phase budgets alone).
        """
        raw = (headers or {}).get("x-deadline-ms")
        if raw is None:
            return cls(None)
        try:
            milliseconds = float(raw)
        except (TypeError, ValueError):
            return cls(None)
        if milliseconds <= 0:
            return cls(None)
        return cls(milliseconds / 1000.0)

    @property
    def expires(self) -> float | None:
        """Monotonic timestamp the budget runs out at (``None`` = never)."""
        return self._expires

    def remaining(self) -> float | None:
        """Seconds left, ``None`` when unbounded (may be <= 0 when spent)."""
        if self._expires is None:
            return None
        return self._expires - time.monotonic()

    def phase_budget(self, phase_timeout: float | None) -> float | None:
        """The effective budget of one phase: min(phase, remaining).

        Returns ``None`` when both the phase timeout and the request
        deadline are unbounded.
        """
        remaining = self.remaining()
        if remaining is None:
            return phase_timeout
        if phase_timeout is None:
            return remaining
        return min(phase_timeout, remaining)


class CancelScope:
    """Cooperative cancellation signal shared between loop and executor.

    The event loop creates one per compile attempt (carrying the
    request's absolute deadline) and cancels it when the compile wait
    times out or the app shuts down; the compile's generation-boundary
    callback, on the executor thread, polls :meth:`expired` before each
    frontier generation.  Thread-safe by construction (an ``Event`` plus
    an immutable deadline).
    """

    def __init__(self, deadline: float | None = None) -> None:
        self._event = threading.Event()
        self._deadline = deadline

    def cancel(self) -> None:
        """Request the compile to stop at its next generation boundary."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self._event.is_set()

    def expired(self) -> bool:
        """Whether the compile must stop (cancelled or past deadline)."""
        if self._event.is_set():
            return True
        return self._deadline is not None and time.monotonic() >= self._deadline


class OverloadedError(Exception):
    """Admission control shed a cold request (mapped to HTTP 503).

    ``retry_after`` is the client hint in seconds; ``scope`` names which
    bound fired (``"global"`` or ``"tenant"``) for the structured body.
    """

    def __init__(self, message: str, retry_after: float, scope: str) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.scope = scope


class CompileGate:
    """Load shedding for the cold path: bounded queues, never blocking.

    Only ever touched from the event loop, so plain counters suffice.  A
    cold request *admits* before joining/leading a flight and *releases*
    when its wait ends (success, failure or timeout alike).  Admission is
    non-blocking by design: a full queue answers 503 immediately — the
    restartable compile pipeline makes retrying cheap for the client,
    while queueing unboundedly would wedge the service for everyone.
    """

    def __init__(self, config: ResilienceConfig) -> None:
        self._config = config
        self._leading = 0
        self._per_tenant: dict[str, int] = {}
        self.shed_global = 0
        self.shed_tenant = 0

    @property
    def inflight(self) -> int:
        """Compile flights currently running (leaders only)."""
        return self._leading

    def queued(self, tenant: str) -> int:
        """Cold requests currently admitted for *tenant*."""
        return self._per_tenant.get(tenant, 0)

    def admit(self, tenant: str, leader: bool) -> None:
        """Admit one cold request or raise :class:`OverloadedError`.

        *leader* marks the request that will start a fresh flight: the
        global in-flight bound counts leaders only (a joiner rides an
        already-counted compile and costs one shielded await), while the
        per-tenant queue bound counts everyone waiting on a compile for
        the tenant.
        """
        config = self._config
        queued = self._per_tenant.get(tenant, 0)
        if queued >= config.queue_depth:
            self.shed_tenant += 1
            raise OverloadedError(
                f"tenant {tenant!r} has {queued} cold requests queued "
                f"(bound {config.queue_depth}); retry shortly",
                retry_after=config.shed_retry_after,
                scope="tenant",
            )
        if leader:
            if self._leading >= config.max_inflight_compiles:
                self.shed_global += 1
                raise OverloadedError(
                    f"{self._leading} compiles in flight "
                    f"(bound {config.max_inflight_compiles}); retry shortly",
                    retry_after=config.shed_retry_after,
                    scope="global",
                )
            self._leading += 1
        self._per_tenant[tenant] = queued + 1

    def release(self, tenant: str, leader: bool) -> None:
        """Return one admitted request's slot(s)."""
        if leader:
            self._leading = max(0, self._leading - 1)
        remaining = self._per_tenant.get(tenant, 0) - 1
        if remaining > 0:
            self._per_tenant[tenant] = remaining
        else:
            self._per_tenant.pop(tenant, None)

    def describe(self) -> dict:
        """The stats-endpoint view of the gate."""
        return {
            "inflight": self._leading,
            "shed_global": self.shed_global,
            "shed_tenant": self.shed_tenant,
            "max_inflight_compiles": self._config.max_inflight_compiles,
            "queue_depth": self._config.queue_depth,
        }


class CircuitOpenError(Exception):
    """The per-digest breaker is open (mapped to HTTP 503)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class _BreakerState:
    """One digest's breaker: consecutive failures, trips, open-until."""

    failures: int = 0
    trips: int = 0
    open_until: float = 0.0
    probing: bool = False
    last_error: str | None = None


class CircuitBreaker:
    """Per compile digest failure memory with exponential backoff.

    Compiles are deterministic (PR 3), so a digest that failed N times in
    a row will keep failing until the theory or the code changes; the
    breaker spares the executor those doomed engine runs and answers
    open-circuit requests in microseconds.  After the backoff window one
    *probe* request is let through (half-open); its outcome closes or
    re-opens the circuit.  Interrupts and sheds are *not* failures — only
    genuine compile errors count.  Only touched from the event loop.
    """

    def __init__(self, config: ResilienceConfig) -> None:
        self._config = config
        self._states: dict[str, _BreakerState] = {}
        self._jitter = random.Random(config.breaker_seed)
        self.open_rejections = 0

    def check(self, digest: str) -> None:
        """Raise :class:`CircuitOpenError` when *digest*'s circuit is open.

        In the half-open window the first caller becomes the probe (the
        call returns normally); concurrent callers keep getting 503 until
        the probe's outcome is recorded.
        """
        state = self._states.get(digest)
        if state is None or state.trips == 0:
            return
        now = time.monotonic()
        if now < state.open_until:
            self.open_rejections += 1
            raise CircuitOpenError(
                f"compile circuit open for this query "
                f"({state.failures} consecutive failures; "
                f"last: {state.last_error})",
                retry_after=max(0.0, state.open_until - now),
            )
        if state.probing:
            self.open_rejections += 1
            raise CircuitOpenError(
                "compile circuit half-open; a probe is in flight",
                retry_after=self._config.breaker_base_delay,
            )
        state.probing = True

    def record_success(self, digest: str) -> None:
        """A compile for *digest* completed: close and forget the circuit."""
        self._states.pop(digest, None)

    def record_interrupt(self, digest: str) -> None:
        """A compile was interrupted (timeout/shutdown): inconclusive.

        Interrupts don't count as failures, but a half-open probe that
        got interrupted must surrender the probe slot or the circuit
        would stay half-open forever.
        """
        state = self._states.get(digest)
        if state is not None:
            state.probing = False

    def record_failure(self, digest: str, error: BaseException) -> None:
        """A compile for *digest* failed; trips the breaker past the threshold."""
        state = self._states.setdefault(digest, _BreakerState())
        state.probing = False
        state.failures += 1
        state.last_error = f"{type(error).__name__}: {error}"
        if state.failures < self._config.breaker_threshold and state.trips == 0:
            return
        state.trips += 1
        delay = min(
            self._config.breaker_base_delay * (2 ** (state.trips - 1)),
            self._config.breaker_max_delay,
        )
        delay *= 1.0 + 0.1 * self._jitter.random()
        state.open_until = time.monotonic() + delay

    def state(self, digest: str) -> str:
        """``closed`` / ``open`` / ``half-open`` for *digest* (diagnostics)."""
        breaker = self._states.get(digest)
        if breaker is None or breaker.trips == 0:
            return "closed"
        if time.monotonic() < breaker.open_until:
            return "open"
        return "half-open"

    def reset(self) -> None:
        """Forget every circuit (tests and chaos-phase boundaries)."""
        self._states.clear()

    def describe(self) -> dict:
        """The stats-endpoint view of the breaker table."""
        open_now = sum(
            1 for digest in self._states if self.state(digest) != "closed"
        )
        return {
            "tracked": len(self._states),
            "open": open_now,
            "rejections": self.open_rejections,
            "threshold": self._config.breaker_threshold,
        }
