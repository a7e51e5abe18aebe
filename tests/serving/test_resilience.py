"""The resilience layer: deadlines, load shedding, circuit breakers.

Unit tests for the primitives in :mod:`repro.serving.resilience` plus
the integration contracts of PR 8's tentpole: a compile that exceeds its
budget returns 504 *with a valid frontier checkpoint on disk*, and the
retry resumes it (provably fewer generations than a cold compile);
overload sheds cold traffic with 503 + ``Retry-After`` while warm
requests sail through; deterministic compile failures trip a per-digest
breaker that probes half-open and closes on recovery.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.serving import ServingApp
from repro.serving.resilience import (
    CancelScope,
    CircuitBreaker,
    CircuitOpenError,
    CompileGate,
    Deadline,
    OverloadedError,
    ResilienceConfig,
)
from repro.serving.tenants import CHECKPOINT_DIRNAME

from .conftest import (
    OnGeneration,
    held_generations,
    register,
    serve,
    slow_generations,
)

import pytest

QUERY = {"tenant": "acme", "query": "q(A) :- Person(A)"}
#: A query whose compile needs 3 generations (taughtBy, then Course, then
#: attends); the Person query's Student/Grad hierarchy is one union-CQ,
#: so it needs only 2.
DEEP_QUERY = {"tenant": "acme", "query": "q(A) :- taughtBy(A, B)"}


class Flaky:
    """Fails the first N engine runs, then behaves."""

    def __init__(self, failures: int) -> None:
        self._failures = failures
        self._failed_runs = 0

    def __call__(self, generation: int) -> None:
        if self._failed_runs < self._failures:
            self._failed_runs += 1
            raise RuntimeError("flaky compile backend")


class TestDeadline:
    def test_unbounded_without_header(self):
        deadline = Deadline.from_header({})
        assert deadline.remaining() is None
        assert deadline.phase_budget(None) is None
        assert deadline.phase_budget(5.0) == 5.0

    def test_header_caps_the_phase_budget(self):
        deadline = Deadline.from_header({"x-deadline-ms": "50"})
        budget = deadline.phase_budget(30.0)
        assert budget is not None and budget <= 0.05
        # The header never widens a tighter phase budget.
        assert deadline.phase_budget(0.001) <= 0.001

    def test_unreadable_and_nonpositive_headers_are_ignored(self):
        for raw in ("nope", "-20", "0", None):
            deadline = Deadline.from_header({"x-deadline-ms": raw})
            assert deadline.remaining() is None

    def test_remaining_counts_down(self):
        deadline = Deadline(10.0)
        remaining = deadline.remaining()
        assert remaining is not None and 9.0 < remaining <= 10.0


class TestCancelScope:
    def test_cancel_expires_the_scope(self):
        scope = CancelScope()
        assert not scope.expired()
        scope.cancel()
        assert scope.cancelled and scope.expired()

    def test_past_deadline_expires_the_scope(self):
        scope = CancelScope(deadline=time.monotonic() - 0.001)
        assert scope.expired() and not scope.cancelled
        future = CancelScope(deadline=time.monotonic() + 60.0)
        assert not future.expired()


class TestCompileGate:
    def test_global_bound_counts_leaders_only(self):
        gate = CompileGate(ResilienceConfig(max_inflight_compiles=1))
        gate.admit("a", leader=True)
        gate.admit("a", leader=False)  # joiners ride the counted flight
        with pytest.raises(OverloadedError) as caught:
            gate.admit("b", leader=True)
        assert caught.value.scope == "global"
        assert caught.value.retry_after > 0
        assert gate.shed_global == 1
        gate.release("a", leader=True)
        gate.admit("b", leader=True)  # slot freed

    def test_per_tenant_queue_bound(self):
        gate = CompileGate(ResilienceConfig(queue_depth=2))
        gate.admit("a", leader=True)
        gate.admit("a", leader=False)
        with pytest.raises(OverloadedError) as caught:
            gate.admit("a", leader=False)
        assert caught.value.scope == "tenant"
        assert gate.shed_tenant == 1
        # Another tenant's queue is independent.
        gate.admit("b", leader=True)

    def test_release_is_balanced(self):
        gate = CompileGate(ResilienceConfig())
        gate.admit("a", leader=True)
        gate.release("a", leader=True)
        assert gate.inflight == 0
        assert gate.queued("a") == 0


class TestCircuitBreaker:
    def _tripped(self, config: ResilienceConfig) -> tuple[CircuitBreaker, str]:
        breaker = CircuitBreaker(config)
        for _ in range(config.breaker_threshold):
            breaker.check("digest")
            breaker.record_failure("digest", RuntimeError("boom"))
        return breaker, "digest"

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, digest = self._tripped(ResilienceConfig(breaker_threshold=2))
        assert breaker.state(digest) == "open"
        with pytest.raises(CircuitOpenError) as caught:
            breaker.check(digest)
        assert caught.value.retry_after > 0
        assert breaker.open_rejections == 1

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(ResilienceConfig(breaker_threshold=2))
        breaker.record_failure("digest", RuntimeError("boom"))
        breaker.record_success("digest")
        breaker.record_failure("digest", RuntimeError("boom"))
        assert breaker.state("digest") == "closed"

    def test_half_open_admits_one_probe(self):
        config = ResilienceConfig(breaker_threshold=1, breaker_base_delay=0.01)
        breaker, digest = self._tripped(config)
        deadline = time.monotonic() + 2.0
        while breaker.state(digest) == "open" and time.monotonic() < deadline:
            time.sleep(0.005)
        assert breaker.state(digest) == "half-open"
        breaker.check(digest)  # the probe passes...
        with pytest.raises(CircuitOpenError):
            breaker.check(digest)  # ...concurrent callers do not
        breaker.record_success(digest)
        assert breaker.state(digest) == "closed"

    def test_interrupted_probe_surrenders_the_slot(self):
        config = ResilienceConfig(breaker_threshold=1, breaker_base_delay=0.01)
        breaker, digest = self._tripped(config)
        deadline = time.monotonic() + 2.0
        while breaker.state(digest) == "open" and time.monotonic() < deadline:
            time.sleep(0.005)
        breaker.check(digest)
        breaker.record_interrupt(digest)  # timeout: inconclusive
        breaker.check(digest)  # next caller may probe again

    def test_backoff_grows_per_trip_up_to_the_cap(self):
        config = ResilienceConfig(
            breaker_threshold=1, breaker_base_delay=1000.0, breaker_max_delay=1500.0
        )
        breaker = CircuitBreaker(config)
        breaker.record_failure("digest", RuntimeError("boom"))
        first = breaker._states["digest"].open_until - time.monotonic()
        breaker.record_failure("digest", RuntimeError("boom"))
        second = breaker._states["digest"].open_until - time.monotonic()
        assert first >= 1000.0
        # Doubling is capped at breaker_max_delay (+10% jitter).
        assert second <= 1500.0 * 1.1 + 1.0

    def test_jitter_is_seeded(self):
        config = ResilienceConfig(breaker_threshold=1, breaker_seed=7)
        one = CircuitBreaker(config)
        two = CircuitBreaker(config)
        one.record_failure("digest", RuntimeError("boom"))
        two.record_failure("digest", RuntimeError("boom"))
        gap = abs(
            (one._states["digest"].open_until - time.monotonic())
            - (two._states["digest"].open_until - time.monotonic())
        )
        assert gap < 0.05


class TestCompileTimeout:
    def _checkpoints(self, tmp_path):
        directory = tmp_path / CHECKPOINT_DIRNAME
        return sorted(directory.glob("*.json")) if directory.exists() else []

    def test_timed_out_compile_returns_504_and_resumes(self, tmp_path):
        """The PR 8 acceptance path: 504 → checkpoint → cheaper retry."""

        async def body():
            # The deep query needs 3 generations; at 0.15s each, the
            # 0.25s budget lets exactly one finish (and checkpoint)
            # before the deadline fires.
            slow = ServingApp(
                cache=str(tmp_path),
                fault_plan=slow_generations(0.15),
                resilience=ResilienceConfig(compile_timeout=0.25),
            )
            try:
                await register(slow, "acme")
                response = await slow.request("POST", "/answer", DEEP_QUERY)
                assert response.status == 504, response.payload
                assert response.payload["error"]["code"] == "timeout"
                assert "resume" in response.payload["error"]["message"]
            finally:
                await slow.aclose()
            assert self._checkpoints(tmp_path), "504 must leave a checkpoint"

            # A fresh compile of the same query costs this many generations...
            fresh_generations = []
            fresh = ServingApp(fault_plan=OnGeneration(fresh_generations.append))
            try:
                await register(fresh, "acme")
                reference = await fresh.request("POST", "/answer", DEEP_QUERY)
                assert reference.ok
            finally:
                await fresh.aclose()

            # ...and the retry over the same cache resumes from the
            # checkpoint: same answers, strictly fewer generations.
            resumed_generations = []
            resumed = ServingApp(
                cache=str(tmp_path),
                warm_limit=0,
                fault_plan=OnGeneration(resumed_generations.append),
            )
            try:
                await register(resumed, "acme")
                retry = await resumed.request("POST", "/answer", DEEP_QUERY)
                assert retry.ok, retry.payload
                assert retry.payload["answers"] == reference.payload["answers"]
                assert 0 < len(resumed_generations) < len(fresh_generations)
            finally:
                await resumed.aclose()

        serve(body)

    def test_deadline_header_tightens_the_budget(self):
        async def body():
            app = ServingApp(fault_plan=slow_generations(0.2))
            try:
                await register(app, "acme")
                response = await app.request(
                    "POST", "/answer", QUERY, headers={"x-deadline-ms": "80"}
                )
                assert response.status == 504
                assert response.payload["error"]["code"] == "timeout"
            finally:
                await app.aclose()

        serve(body)

    def test_answer_timeout_is_independent_of_compile(self):
        async def body():
            app = ServingApp(resilience=ResilienceConfig(answer_timeout=30.0))
            try:
                await register(app, "acme")
                response = await app.request("POST", "/answer", QUERY)
                assert response.ok
            finally:
                await app.aclose()

        serve(body)

    @pytest.mark.parametrize(
        "endpoint", ("answer", "prepare", "prepare-batch", "subscribe", "changes")
    )
    def test_deadline_bounds_the_tenant_executor_hop(self, endpoint):
        async def body():
            app = ServingApp()
            release = threading.Event()
            busy = None
            try:
                await register(app, "acme")
                # Compile warm and open a cursor before wedging the executor.
                subscribed = await app.request(
                    "POST", "/tenants/acme/subscribe", {"query": QUERY["query"]}
                )
                assert subscribed.status == 201, subscribed.payload
                method, path, payload = {
                    "answer": ("POST", "/answer", QUERY),
                    "prepare": ("POST", "/prepare", QUERY),
                    "prepare-batch": (
                        "POST",
                        "/tenants/acme/prepare-batch",
                        {"queries": [QUERY["query"]]},
                    ),
                    "subscribe": (
                        "POST",
                        "/tenants/acme/subscribe",
                        {"query": QUERY["query"]},
                    ),
                    "changes": (
                        "GET",
                        "/tenants/acme/changes",
                        {"cursor": subscribed.payload["cursor"]},
                    ),
                }[endpoint]
                busy = asyncio.get_running_loop().run_in_executor(
                    app.registry.get("acme").executor,
                    lambda: release.wait(timeout=5.0),
                )
                started = time.monotonic()
                response = await app.request(
                    method, path, payload, headers={"x-deadline-ms": "100"}
                )
                elapsed = time.monotonic() - started
                assert response.status == 504, response.payload
                assert response.payload["error"]["code"] == "timeout"
                assert elapsed < 2.0
            finally:
                release.set()
                if busy is not None:
                    await busy
                await app.aclose()

        serve(body)


class TestLoadShedding:
    def test_global_bound_sheds_new_leaders_but_not_warm_requests(self):
        async def body():
            started, release = threading.Event(), threading.Event()
            app = ServingApp(
                fault_plan=held_generations(started, release),
                resilience=ResilienceConfig(
                    max_inflight_compiles=1, shed_retry_after=0.25
                ),
            )
            try:
                # Two tenants with different theories = two artifact sets,
                # so their compiles occupy distinct flights.
                await register(app, "acme")
                await register(app, "other", tbox="Employee [= Person")

                # Wedge acme's compile open: it holds the one global slot.
                wedged = asyncio.ensure_future(
                    app.request("POST", "/answer", QUERY)
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, lambda: started.wait(timeout=10.0)
                )

                # A cold leader on the other tenant is shed immediately...
                shed = await app.request(
                    "POST", "/answer", {"tenant": "other", "query": "q(A) :- Person(A)"}
                )
                assert shed.status == 503, shed.payload
                assert shed.payload["error"]["code"] == "overloaded"
                assert shed.payload["error"]["retry_after"] > 0

                release.set()
                wedge_response = await wedged
                assert wedge_response.ok

                # ...and succeeds once the slot frees up.
                retried = await app.request(
                    "POST", "/answer", {"tenant": "other", "query": "q(A) :- Person(A)"}
                )
                assert retried.ok
                stats = await app.request("GET", "/stats")
                assert stats.payload["resilience"]["gate"]["shed_global"] == 1
            finally:
                release.set()
                await app.aclose()

        serve(body)

    def test_tenant_queue_bound_sheds_excess_joiners(self):
        async def body():
            started, release = threading.Event(), threading.Event()
            app = ServingApp(
                fault_plan=held_generations(started, release),
                resilience=ResilienceConfig(queue_depth=2),
            )
            try:
                await register(app, "acme")
                leader = asyncio.ensure_future(
                    app.request("POST", "/answer", QUERY)
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, lambda: started.wait(timeout=10.0)
                )
                followers = [
                    asyncio.ensure_future(app.request("POST", "/answer", QUERY))
                    for _ in range(3)
                ]
                await asyncio.sleep(0.05)
                # Queue depth 2 = leader + one joiner; the other two shed.
                done = [f for f in followers if f.done()]
                assert len(done) == 2
                for future in done:
                    assert future.result().status == 503
                    assert future.result().payload["error"]["code"] == "overloaded"

                release.set()
                responses = [await leader] + [await f for f in followers]
                assert sum(1 for r in responses if r.ok) == 2
            finally:
                release.set()
                await app.aclose()

        serve(body)

    def test_warm_requests_never_touch_the_gate(self):
        async def body():
            app = ServingApp(
                resilience=ResilienceConfig(max_inflight_compiles=1, queue_depth=1)
            )
            try:
                await register(app, "acme")
                first = await app.request("POST", "/answer", QUERY)
                assert first.ok
                # Saturate nothing: warm answers bypass admission entirely.
                for _ in range(5):
                    warm = await app.request("POST", "/answer", QUERY)
                    assert warm.ok and warm.payload["source"] == "memory"
                stats = await app.request("GET", "/stats")
                gate = stats.payload["resilience"]["gate"]
                assert gate["shed_global"] == 0 and gate["shed_tenant"] == 0
            finally:
                await app.aclose()

        serve(body)


class TestBreakerIntegration:
    def test_deterministic_failures_trip_probe_and_recover(self):
        async def body():
            app = ServingApp(
                fault_plan=OnGeneration(Flaky(failures=2)),
                resilience=ResilienceConfig(
                    breaker_threshold=2,
                    breaker_base_delay=0.05,
                    breaker_max_delay=0.2,
                ),
            )
            try:
                await register(app, "acme")
                for _ in range(2):
                    failed = await app.request("POST", "/answer", QUERY)
                    assert failed.status == 500
                    assert failed.payload["error"]["code"] == "compile-failed"

                # The circuit is open now: rejected without an engine run.
                rejected = await app.request("POST", "/answer", QUERY)
                assert rejected.status == 503, rejected.payload
                assert rejected.payload["error"]["code"] == "circuit-open"
                assert rejected.payload["error"]["retry_after"] >= 0

                # After the backoff window a half-open probe runs for real;
                # the flaky hook has recovered, so it closes the circuit.
                await asyncio.sleep(0.12)
                recovered = await app.request("POST", "/answer", QUERY)
                assert recovered.ok, recovered.payload

                warm = await app.request("POST", "/answer", QUERY)
                assert warm.payload["source"] == "memory"
                stats = await app.request("GET", "/stats")
                breaker = stats.payload["resilience"]["breaker"]
                assert breaker["rejections"] >= 1
                assert breaker["open"] == 0
            finally:
                await app.aclose()

        serve(body)

    def test_stats_exposes_the_resilience_section(self, app):
        async def body():
            stats = await app.request("GET", "/stats")
            section = stats.payload["resilience"]
            assert section["timeouts"]["compile"] == 30.0
            assert section["timeouts"]["answer"] == 10.0
            assert section["gate"]["max_inflight_compiles"] == 8
            assert section["breaker"]["threshold"] == 3

        serve(body)
