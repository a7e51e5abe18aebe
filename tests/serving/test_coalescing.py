"""Request coalescing: one compile per herd, warm answers never starved."""

import asyncio
import threading

import pytest

from repro.serving import ServingApp, SingleFlight

from .conftest import held_generations, register, serve


class TestSingleFlightUnit:
    def test_concurrent_calls_coalesce_onto_one_execution(self):
        async def body():
            flights = SingleFlight()
            calls = 0

            async def thunk():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.01)
                return "result"

            results = await asyncio.gather(
                *(flights.run("key", thunk) for _ in range(25))
            )
            assert calls == 1
            assert set(results) == {"result"}
            assert flights.leaders == 1
            assert flights.joined == 24
            assert len(flights) == 0

        serve(body)

    def test_distinct_keys_fly_separately(self):
        async def body():
            flights = SingleFlight()

            async def thunk(value):
                await asyncio.sleep(0.01)
                return value

            results = await asyncio.gather(
                flights.run("a", lambda: thunk(1)),
                flights.run("b", lambda: thunk(2)),
                flights.run("a", lambda: thunk(3)),
            )
            assert results == [1, 2, 1]
            assert flights.leaders == 2
            assert flights.joined == 1

        serve(body)

    def test_leader_failure_reaches_every_joiner(self):
        async def body():
            flights = SingleFlight()

            async def boom():
                await asyncio.sleep(0.01)
                raise RuntimeError("compile failed")

            results = await asyncio.gather(
                *(flights.run("key", boom) for _ in range(5)),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)
            # A failed flight is forgotten: the next call starts fresh.
            assert len(flights) == 0
            assert flights.pending("key") is False

        serve(body)

    def test_completed_flight_starts_fresh_next_time(self):
        async def body():
            flights = SingleFlight()

            async def thunk():
                return "x"

            await flights.run("key", thunk)
            await flights.run("key", thunk)
            assert flights.leaders == 2
            assert flights.joined == 0

        serve(body)


class TestServingCoalescing:
    @pytest.mark.parametrize("herd", [10, 50])
    def test_cold_herd_compiles_exactly_once(self, app, herd):
        async def body():
            await register(app, "acme")
            query = {"tenant": "acme", "query": "q(A) :- Person(A)"}
            responses = await asyncio.gather(
                *(app.request("POST", "/answer", query) for _ in range(herd))
            )
            artifacts = app.registry.get("acme").artifacts
            assert artifacts.compiles == 1, (
                f"{herd} concurrent cold requests ran {artifacts.compiles} "
                "engine compiles; the herd must coalesce onto one"
            )
            answers = {tuple(map(tuple, r.payload["answers"])) for r in responses}
            assert len(answers) == 1
            assert all(r.status == 200 for r in responses)
            # Every request either led the one flight, joined it, or was
            # served from the cache the flight had already filled.
            assert app.flights.leaders == 1
            served_warm = sum(
                r.payload["source"] == "memory" for r in responses
            )
            assert app.flights.joined + served_warm == herd - 1

        serve(body)

    @pytest.mark.parametrize("herd", [10, 50])
    def test_held_compile_coalesces_the_whole_herd(self, herd):
        """With the compile provably in flight, every follower joins it.

        The ungated herd test can't pin the ``joined`` counter — on a
        busy box the leader's compile may finish before the followers
        probe, serving them from the cache instead of the flight.  Here
        the compile is gated on an event, so all ``herd - 1`` followers
        MUST coalesce; the counters become deterministic.
        """
        started = threading.Event()
        release = threading.Event()

        async def body():
            app = ServingApp(fault_plan=held_generations(started, release))
            try:
                await register(app, "acme")
                query = {"tenant": "acme", "query": "q(A) :- Person(A)"}
                requests = [
                    asyncio.ensure_future(app.request("POST", "/answer", query))
                    for _ in range(herd)
                ]
                await asyncio.get_running_loop().run_in_executor(
                    None, lambda: started.wait(timeout=30)
                )
                # The compile is wedged; let every request reach the flight.
                await asyncio.sleep(0)
                assert not any(request.done() for request in requests)
                release.set()
                responses = await asyncio.gather(*requests)
                artifacts = app.registry.get("acme").artifacts
                assert artifacts.compiles == 1
                assert app.flights.leaders == 1
                assert app.flights.joined == herd - 1
                assert sum(r.payload["coalesced"] for r in responses) == herd - 1
                assert all(r.status == 200 for r in responses)
            finally:
                release.set()
                await app.aclose()

        serve(body)

    def test_herds_on_distinct_queries_compile_once_each(self, app):
        async def body():
            await register(app, "acme")
            queries = [
                "q(A) :- Person(A)",
                "q(A) :- Student(A)",
                "q(A, B) :- attends(A, B)",
            ]
            await asyncio.gather(
                *(
                    app.request(
                        "POST", "/answer", {"tenant": "acme", "query": query}
                    )
                    for query in queries
                    for _ in range(10)
                )
            )
            artifacts = app.registry.get("acme").artifacts
            assert artifacts.compiles == len(queries)

        serve(body)

    def test_same_query_coalesces_across_sharing_tenants(self, app):
        async def body():
            await register(app, "acme")
            await register(app, "beta", facts=[["Student", ["zoe"]]])
            # Same fingerprint + same canonical query -> one flight, even
            # though the requests name different tenants.
            responses = await asyncio.gather(
                *(
                    app.request(
                        "POST",
                        "/answer",
                        {"tenant": tenant, "query": "q(A) :- Person(A)"},
                    )
                    for tenant in ("acme", "beta")
                    for _ in range(10)
                )
            )
            artifacts = app.registry.get("acme").artifacts
            assert artifacts.compiles == 1
            assert all(r.status == 200 for r in responses)
            # ... while the answers stayed per-tenant.
            beta_answers = {
                tuple(map(tuple, r.payload["answers"]))
                for r in responses
                if r.payload["tenant"] == "beta"
            }
            assert beta_answers == {(("zoe",),)}

        serve(body)


class TestNoStarvation:
    def test_slow_compile_does_not_block_warm_answers(self):
        """Warm answers on other queries flow while a compile is stuck."""
        started = threading.Event()
        release = threading.Event()

        async def body():
            app = ServingApp(fault_plan=held_generations(started, release))
            try:
                await register(app, "acme")
                warm_query = {"tenant": "acme", "query": "q(A) :- Person(A)"}
                # Warm up one query while the gate is open.
                release.set()
                await app.request("POST", "/answer", warm_query)
                release.clear()
                started.clear()

                # Wedge a cold compile mid-generation.
                cold = asyncio.ensure_future(
                    app.request(
                        "POST",
                        "/answer",
                        {"tenant": "acme", "query": "q(A, B) :- attends(A, B)"},
                    )
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, lambda: started.wait(timeout=30)
                )

                # The compile is provably stuck; warm answers must land.
                warm_responses = await asyncio.gather(
                    *(app.request("POST", "/answer", warm_query) for _ in range(10))
                )
                assert all(r.status == 200 for r in warm_responses)
                assert all(
                    r.payload["source"] == "memory" for r in warm_responses
                )
                assert not cold.done(), (
                    "the gated compile finished early; the warm requests "
                    "were not served concurrently with it"
                )

                release.set()
                cold_response = await cold
                assert cold_response.status == 200
            finally:
                release.set()
                await app.aclose()

        serve(body)
