"""Per-layer spans recorded around the serving stack's layer boundaries.

The benchmark never edits the program: with ``--trace 1`` it wraps the
functions that sit on each layer boundary (the client's requests, query
parsing, the compile entry point, the rewriting kernel's expand and merge
steps, canonical keys, backend planning and execution, delta
maintenance, answer encoding, HTTP response framing, the ``auto``
scheduling strategy's choice per generation) and records, per
layer, the number of calls and the *self* time — a span's duration minus
the spans nested in it on the same thread.  Spans are kept in memory and
summed; nothing is written until the run ends.

``ServingClient.request`` and ``ServingApp.request`` are coroutines, and
coroutines of different requests interleave on the event loop, so they
are recorded inclusively and kept off the per-thread stacks; the
synchronous layers are subtracted from them afterwards (see
:func:`per_layer_metrics`).  MGU computations, the kernel's innermost
step, are counted but not timed.

Runs with ``--trace 0`` install nothing, so end-to-end figures are
measured on the unmodified program.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: Synchronous layers whose self time is subtracted from the inclusive
#: request time to leave the server's routing and executor hops.
SERVER_LAYERS = (
    "parse",
    "compile",
    "engine",
    "expand",
    "merge",
    "canonical_key",
    "tenant",
    "mutate",
    "backend_prepare",
    "execute",
    "maintain",
    "encode",
)


class Tracer:
    """Call counts and self time per layer, summed while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, seconds: float) -> None:
        with self._lock:
            self.seconds[layer] += seconds
            self.calls[layer] += 1

    def timed(self, layer: str):
        """A wrapper factory: self-time spans around a synchronous function."""

        def wrap(function):
            @functools.wraps(function)
            def traced(*args, **kwargs):
                if not self.active:
                    return function(*args, **kwargs)
                stack = self._stack()
                stack.append(0.0)
                started = time.perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    nested = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    self._record(layer, elapsed - nested)

            return traced

        return wrap

    def timed_async(self, layer: str):
        """A wrapper factory: inclusive spans around a coroutine function."""

        def wrap(function):
            @functools.wraps(function)
            async def traced(*args, **kwargs):
                if not self.active:
                    return await function(*args, **kwargs)
                started = time.perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    self._record(layer, time.perf_counter() - started)

            return traced

        return wrap

    def counted(self, layer: str):
        """A wrapper factory that only counts calls (for the tightest loops)."""

        def wrap(function):
            @functools.wraps(function)
            def traced(*args, **kwargs):
                if self.active:
                    with self._lock:
                        self.calls[layer] += 1
                return function(*args, **kwargs)

            return traced

        return wrap

    def patch(self, owner, name: str, wrapper) -> None:
        """Replace ``owner.name`` by ``wrapper(original)`` until :meth:`restore`."""
        original = getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        """Wrap every layer boundary of the serving stack."""
        from repro.backends.memory import InMemoryBackend, InMemoryPlan
        from repro.backends.sqlite import SQLiteBackend, SQLitePlan
        from repro.core import rewriter
        from repro.incremental.maintain import MaintainedAnswerSet
        from repro.logic import unification
        from repro.queries import conjunctive_query
        from repro.scheduling import (
            AutoStrategy,
            ChunkedProcessStrategy,
            ThreadedStrategy,
        )
        from repro.serving import app, http
        from repro.serving.tenants import SharedArtifacts, Tenant

        timed = self.timed
        self.patch(http.ServingClient, "request", self.timed_async("client"))
        self.patch(app.ServingApp, "request", self.timed_async("request"))
        self.patch(app, "parse_query", timed("parse"))
        self.patch(app, "encode_answers", timed("encode"))
        self.patch(http, "_encode_response", timed("framing"))
        self.patch(SharedArtifacts, "compile_blocking", timed("compile"))
        self.patch(rewriter.TGDRewriter, "rewrite", timed("engine"))
        self.patch(rewriter.TGDRewriter, "expand", timed("expand"))
        self.patch(rewriter, "merge_expansion", timed("merge"))
        self.patch(conjunctive_query, "_canonical_fingerprint", timed("canonical_key"))
        for method in (
            "prepare_blocking",
            "answer_blocking",
            "subscribe_blocking",
            "changes_blocking",
        ):
            self.patch(Tenant, method, timed("tenant"))
        self.patch(Tenant, "add_facts", timed("mutate"))
        self.patch(Tenant, "remove_facts", timed("mutate"))
        for backend in (InMemoryBackend, SQLiteBackend):
            self.patch(backend, "prepare", timed("backend_prepare"))
        for plan in (InMemoryPlan, SQLitePlan):
            self.patch(plan, "execute", timed("execute"))
            self.patch(plan, "execute_disjunct", timed("execute"))
        self.patch(MaintainedAnswerSet, "refresh", timed("maintain"))
        self.patch(unification, "flat_mgu", self.counted("mgu"))
        self.patch(AutoStrategy, "expand_generation", self.counted("generation"))
        for strategy in (ThreadedStrategy, ChunkedProcessStrategy):
            self.patch(strategy, "expand_generation", self.counted("parallel"))


def per_layer_metrics(tracer: Tracer, operations: int) -> dict[str, float]:
    """Per-operation layer figures from a traced run.

    Times are microseconds of self time per operation; ``server_other_us``
    is the inclusive request time minus every synchronous server layer
    (routing, handing work to and back from the tenant's executor) and
    ``transport_us`` the client-observed request time minus the inclusive
    request time and the server's response framing (request parsing on
    the server, the client's framing and parsing, the socket).
    """
    per_op = 1e6 / operations
    seconds = tracer.seconds
    calls = tracer.calls
    server_layers = sum(seconds[layer] for layer in SERVER_LAYERS)
    metrics = {
        f"{layer}_us": seconds[layer] * per_op
        for layer in SERVER_LAYERS + ("framing",)
    }
    metrics["server_other_us"] = (seconds["request"] - server_layers) * per_op
    metrics["transport_us"] = (
        seconds["client"] - seconds["request"] - seconds["framing"]
    ) * per_op
    for layer, name in (
        ("engine", "engine_runs"),
        ("expand", "expansions"),
        ("canonical_key", "canonical_keys"),
        ("mgu", "mgu_calls"),
        ("execute", "executions"),
    ):
        metrics[f"{name}_per_op"] = calls[layer] / operations
    metrics["parallel_generation_pct"] = 100.0 * (
        calls["parallel"] / max(1, calls["generation"])
    )
    return metrics
