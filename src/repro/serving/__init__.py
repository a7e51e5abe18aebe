"""The multi-tenant ontology-serving front end.

This package is the network layer of the ROADMAP's north star: a
long-running asyncio HTTP/JSON service over the library-grade serving API
(:class:`repro.api.OBDASystem`), built entirely on the standard library.

* :mod:`repro.serving.tenants` — the tenant registry.  Tenants are keyed
  by name, compiled artifacts by **theory fingerprint**
  (:mod:`repro.cache.fingerprint`): two tenants registering structurally
  identical ontologies transparently share one compiled artifact set and
  one persistent :class:`~repro.cache.store.RewritingStore`, while each
  keeps its own database, epoch counter and answer caches.
* :mod:`repro.serving.coalescing` — single-flight request coalescing: a
  thundering herd on one cold query compiles it exactly once.
* :mod:`repro.serving.app` — :class:`ServingApp`, the transport-free
  application handle (endpoint routing, JSON contracts, admission
  control); tests and the load benchmark drive it directly.
* :mod:`repro.serving.http` — the asyncio socket layer:
  :class:`ServingServer` speaks just enough HTTP/1.1 (keep-alive,
  Content-Length bodies) to put :class:`ServingApp` on a port, and
  :class:`ServingClient` is the matching minimal client used by the load
  generator, with jittered-backoff retries for transient failures.
* :mod:`repro.serving.resilience` — deadlines and cooperative compile
  cancellation, cold-path load shedding, per-digest circuit breakers
  (:class:`ResilienceConfig` carries the knobs).
* :mod:`repro.serving.chaos` — the seeded fault-injection harness behind
  ``repro chaos``: deterministic fault plans (stalls, kills, backend and
  write failures) driven against the full serving stack, with invariant
  checks for deadlines, warm-path latency and recovery byte-identity.

See ``docs/SERVING.md`` for the endpoint contracts and semantics and
``docs/OPERATIONS.md`` for the operational runbook.
"""

from .app import ServingApp, ServingError, ServingResponse
from .chaos import ChaosHarness, ChaosKill, ChaosReport, FaultPlan
from .coalescing import SingleFlight
from .http import ServingClient, ServingServer
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
from .tenants import SharedArtifacts, Tenant, TenantEpoch, TenantRegistry

__all__ = [
    "CancelScope",
    "ChaosHarness",
    "ChaosKill",
    "ChaosReport",
    "CircuitBreaker",
    "CircuitOpenError",
    "CompileGate",
    "CompileInterrupted",
    "Deadline",
    "FaultPlan",
    "OverloadedError",
    "ResilienceConfig",
    "ServingApp",
    "ServingClient",
    "ServingError",
    "ServingResponse",
    "ServingServer",
    "SharedArtifacts",
    "SingleFlight",
    "Tenant",
    "TenantEpoch",
    "TenantRegistry",
]
