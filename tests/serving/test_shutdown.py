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
from repro.serving.tenants import CHECKPOINT_DIRNAME

from .conftest import register, serve, slow_generations

QUERY = {"tenant": "acme", "query": "q(A) :- Person(A)"}


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
            inflight = asyncio.ensure_future(app.request("POST", "/answer", QUERY))
            # Let at least one generation finish (and checkpoint).
            await asyncio.sleep(0.18)
            await app.aclose()
            response = await inflight
            assert response.status == 504, response.payload
            assert response.payload["error"]["code"] == "timeout"
            checkpoints = list((tmp_path / CHECKPOINT_DIRNAME).glob("*.json"))
            assert checkpoints, "interrupted compile must leave its checkpoint"

        serve(body)

    def test_drain_is_bounded_by_one_generation_not_one_compile(self, tmp_path):
        async def body():
            generation = 0.2
            app = ServingApp(
                cache=str(tmp_path), fault_plan=slow_generations(generation)
            )
            await register(app, "acme")
            inflight = asyncio.ensure_future(app.request("POST", "/answer", QUERY))
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
