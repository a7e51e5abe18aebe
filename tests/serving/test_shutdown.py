"""Shutdown under load: bounded drains, checkpoints, no orphan threads.

``ServingApp.aclose`` must interrupt in-flight compiles *first* (they
abort at the next generation boundary, checkpoints already on disk), so
draining the executors is bounded by one generation rather than one
compile; warm traffic in flight completes; and after close no compile or
tenant executor thread survives (``threading.enumerate()`` is clean).
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.serving import ServingApp
from repro.serving.tenants import CHECKPOINT_DIRNAME, SharedArtifacts, Tenant

from .conftest import register, serve, slow_generations

QUERY = {"tenant": "acme", "query": "q(A) :- Person(A)"}
#: A query whose compile needs 3 generations (taughtBy, then Course, then
#: attends); the Person query's Student/Grad hierarchy is one union-CQ,
#: so it needs only 2.
DEEP_QUERY = {"tenant": "acme", "query": "q(A) :- taughtBy(A, B)"}


def _executor_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("compile-", "tenant-"))
    ]


class TestShutdownUnderLoad:
    def test_close_interrupts_cold_compile_and_keeps_its_checkpoint(
        self, tmp_path
    ):
        async def body():
            app = ServingApp(cache=str(tmp_path), fault_plan=slow_generations(0.1))
            await register(app, "acme")
            inflight = asyncio.ensure_future(app.request("POST", "/answer", DEEP_QUERY))
            # Let at least one generation finish (and checkpoint).
            await asyncio.sleep(0.18)
            await app.aclose()
            response = await inflight
            assert response.status == 504, response.payload
            assert response.payload["error"]["code"] == "timeout"
            checkpoints = list((tmp_path / CHECKPOINT_DIRNAME).glob("*.json"))
            assert checkpoints, "interrupted compile must leave its checkpoint"

        serve(body)

    def test_a_compile_that_ends_as_close_begins_is_refused_as_shutting_down(
        self, tmp_path, monkeypatch
    ):
        # The compile finishes, then waits until shutdown has closed the
        # tenant's executor: the request's answer hop finds it closed.
        compiled, closed = threading.Event(), threading.Event()
        compile_blocking, close = SharedArtifacts.compile_blocking, Tenant.close

        def compile_then_wait(self, query, scope=None):
            result = compile_blocking(self, query, scope)
            compiled.set()
            assert closed.wait(timeout=30.0), "the tenant was never closed"
            return result

        def close_then_signal(self):
            close(self)
            closed.set()

        monkeypatch.setattr(SharedArtifacts, "compile_blocking", compile_then_wait)
        monkeypatch.setattr(Tenant, "close", close_then_signal)

        async def body():
            app = ServingApp(cache=str(tmp_path))
            await register(app, "acme")
            inflight = asyncio.ensure_future(app.request("POST", "/answer", QUERY))
            async with asyncio.timeout(30.0):
                while not compiled.is_set():
                    await asyncio.sleep(0.001)
            await app.aclose()
            response = await inflight
            assert response.status == 503, response.payload
            assert response.payload["error"]["code"] == "shutting-down"

        serve(body)

    def test_a_compile_that_starts_after_close_is_refused_as_shutting_down(
        self, tmp_path, monkeypatch
    ):
        # A batch's second compile starts only once shutdown is over: its
        # hop finds the compile executor closed, which is no compile
        # failure.
        ensure_compiled = ServingApp._ensure_compiled
        calls, closed = [], asyncio.Event()

        async def gated(self, *args):
            calls.append(args)
            if len(calls) == 2:
                await closed.wait()
            return await ensure_compiled(self, *args)

        monkeypatch.setattr(ServingApp, "_ensure_compiled", gated)

        async def body():
            app = ServingApp(cache=str(tmp_path))
            await register(app, "acme")
            batch = {"queries": [QUERY["query"], DEEP_QUERY["query"]]}
            inflight = asyncio.ensure_future(
                app.request("POST", "/tenants/acme/prepare-batch", batch)
            )
            async with asyncio.timeout(30.0):
                while len(calls) < 2:
                    await asyncio.sleep(0.001)
            await app.aclose()
            closed.set()
            response = await inflight
            assert response.status == 503, response.payload
            assert response.payload["error"]["code"] == "shutting-down"
            assert app.breaker.describe()["tracked"] == 0, "no failure was recorded"

        serve(body)

    def test_drain_is_bounded_by_one_generation_not_one_compile(self, tmp_path):
        async def body():
            generation = 0.2
            app = ServingApp(
                cache=str(tmp_path), fault_plan=slow_generations(generation)
            )
            await register(app, "acme")
            inflight = asyncio.ensure_future(app.request("POST", "/answer", DEEP_QUERY))
            await asyncio.sleep(0.05)
            started = time.monotonic()
            await app.aclose()
            drained = time.monotonic() - started
            # 3 generations x 0.2s each would be a ~0.6s compile; the
            # interrupt fires at the next boundary, so the drain costs at
            # most ~one generation (plus scheduling slack).
            assert drained < 2 * generation + 0.3, drained
            await inflight

        serve(body)

    def test_warm_requests_in_flight_complete_through_shutdown(self, app):
        async def body():
            await register(app, "acme")
            warm = await app.request("POST", "/answer", QUERY)
            assert warm.ok
            inflight = [
                asyncio.ensure_future(app.request("POST", "/answer", QUERY))
                for _ in range(8)
            ]
            responses = await asyncio.gather(*inflight)
            await app.aclose()
            assert all(r.ok for r in responses)
            assert all(r.payload["source"] == "memory" for r in responses)

        serve(body)

    def test_no_executor_threads_survive_close(self, tmp_path):
        async def body():
            app = ServingApp(cache=str(tmp_path))
            await register(app, "acme")
            await register(app, "other", tbox="Employee [= Person")
            assert (await app.request("POST", "/answer", QUERY)).ok
            assert _executor_threads(), "sanity: executors exist while open"
            await app.aclose()

        serve(body)
        assert _executor_threads() == []

    def test_close_is_idempotent(self, tmp_path):
        async def body():
            app = ServingApp(cache=str(tmp_path))
            await register(app, "acme")
            await app.aclose()
            await app.aclose()
            app.close()

        serve(body)
        assert _executor_threads() == []
