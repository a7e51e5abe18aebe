"""Graceful shutdown and restart-warm recovery.

A service restarted over the same ``--cache`` directory must come back
warm: previously compiled rewritings are preloaded from the persistent
:class:`~repro.cache.store.RewritingStore` (or served from it on first
touch), and a compile killed mid-flight resumes from its frontier
checkpoint instead of restarting from scratch — the serving-tier version
of the kill-and-resume contract in ``tests/cache/test_checkpoint.py``.
"""

import pytest

from repro.serving import ServingApp
from repro.serving.tenants import CHECKPOINT_DIRNAME

from .conftest import OnGeneration, register, serve

QUERY = {"tenant": "acme", "query": "q(A) :- Person(A)"}


class SimulatedKill(Exception):
    """Stands in for SIGKILL: aborts the compile between generations."""


def kill_after(generations: int):
    """A generation hook that kills the compile once N generations are done."""

    def kill(generation: int) -> None:
        if generation >= generations:
            raise SimulatedKill()

    return kill


class TestRestartWarm:
    def test_restart_preloads_rewritings_from_the_store(self, tmp_path):
        async def body():
            first = ServingApp(cache=str(tmp_path))
            await register(first, "acme")
            cold = await first.request("POST", "/answer", QUERY)
            assert cold.payload["source"] == "engine"
            reference = cold.payload["answers"]
            await first.aclose()

            second = ServingApp(cache=str(tmp_path))
            try:
                payload = await register(second, "acme")
                assert payload["warmed_rewritings"] >= 1
                assert payload["warmed_prepared"] >= 1
                warm = await second.request("POST", "/answer", QUERY)
                assert warm.payload["source"] == "memory"
                assert warm.payload["answers"] == reference
                assert second.registry.get("acme").artifacts.compiles == 0
            finally:
                await second.aclose()

        serve(body)

    def test_store_serves_first_touch_when_preloading_is_off(self, tmp_path):
        async def body():
            first = ServingApp(cache=str(tmp_path))
            await register(first, "acme")
            await first.request("POST", "/answer", QUERY)
            await first.aclose()

            second = ServingApp(cache=str(tmp_path), warm_limit=0)
            try:
                payload = await register(second, "acme")
                assert payload["warmed_rewritings"] == 0
                served = await second.request("POST", "/answer", QUERY)
                assert served.payload["source"] == "store"
                assert second.registry.get("acme").artifacts.compiles == 0
            finally:
                await second.aclose()

        serve(body)

    def test_stats_count_store_hits_under_their_own_fingerprint(self, tmp_path):
        async def body():
            first = ServingApp(cache=str(tmp_path))
            await register(first, "acme")
            await first.request("POST", "/answer", QUERY)
            await first.aclose()

            second = ServingApp(cache=str(tmp_path), warm_limit=0)
            try:
                await register(second, "acme")
                other = await second.request(
                    "POST",
                    "/register-theory",
                    {"tenant": "other", "tbox": "Employee [= Person"},
                )
                assert other.status == 201
                served = await second.request("POST", "/answer", QUERY)
                assert served.payload["source"] == "store"
                stats = (await second.request("GET", "/stats")).payload
                blocks = {
                    block["tenants"][0]: block
                    for block in stats["artifacts"].values()
                }
                assert blocks["acme"]["served_store"] == 1
                assert blocks["other"]["served_store"] == 0
                # The store's totals are server-wide: only the top-level
                # block reports them.
                for block in blocks.values():
                    assert "persistent" not in block and "cache" not in block
                assert stats["store"]["hits"] == 1
            finally:
                await second.aclose()

        serve(body)

    def test_unrelated_fingerprints_do_not_cross_warm(self, tmp_path):
        async def body():
            first = ServingApp(cache=str(tmp_path))
            await register(first, "acme")
            await first.request("POST", "/answer", QUERY)
            await first.aclose()

            second = ServingApp(cache=str(tmp_path))
            try:
                response = await second.request(
                    "POST",
                    "/register-theory",
                    {"tenant": "other", "tbox": "Employee [= Person"},
                )
                assert response.status == 201
                # Different theory -> different fingerprint -> nothing of
                # acme's store slice is preloaded.
                assert response.payload["warmed_rewritings"] == 0
            finally:
                await second.aclose()

        serve(body)


class TestKillAndResume:
    def _checkpoints(self, tmp_path):
        directory = tmp_path / CHECKPOINT_DIRNAME
        return sorted(directory.glob("*.json")) if directory.exists() else []

    def test_killed_compile_leaves_a_checkpoint_and_returns_500(self, tmp_path):
        async def body():
            app = ServingApp(
                cache=str(tmp_path), fault_plan=OnGeneration(kill_after(1))
            )
            try:
                await register(app, "acme")
                response = await app.request("POST", "/answer", QUERY)
                assert response.status == 500
                assert response.payload["error"]["code"] == "compile-failed"
                assert "SimulatedKill" in response.payload["error"]["message"]
            finally:
                await app.aclose()
            assert len(self._checkpoints(tmp_path)) == 1

        serve(body)

    def test_restarted_service_resumes_the_killed_compile(self, tmp_path):
        async def body():
            # Run 1: die after one frontier generation, mid-compile.
            crashed = ServingApp(
                cache=str(tmp_path), fault_plan=OnGeneration(kill_after(1))
            )
            await register(crashed, "acme")
            assert (await crashed.request("POST", "/answer", QUERY)).status == 500
            await crashed.aclose()
            assert len(self._checkpoints(tmp_path)) == 1

            # Reference: generations of an uninterrupted compile.
            fresh_generations = []
            fresh = ServingApp(fault_plan=OnGeneration(fresh_generations.append))
            await register(fresh, "acme")
            reference = await fresh.request("POST", "/answer", QUERY)
            assert reference.status == 200
            await fresh.aclose()

            # Run 2: same cache directory, no kill.  The compile must
            # resume past the checkpointed generation, produce the same
            # answers, and consume the checkpoint file.
            resumed_generations = []
            recovered = ServingApp(
                cache=str(tmp_path),
                fault_plan=OnGeneration(resumed_generations.append),
            )
            try:
                await register(recovered, "acme")
                response = await recovered.request("POST", "/answer", QUERY)
                assert response.status == 200
                assert response.payload["answers"] == reference.payload["answers"]
                assert resumed_generations[0] == 1
                assert len(resumed_generations) < len(fresh_generations)
                assert self._checkpoints(tmp_path) == []
            finally:
                await recovered.aclose()

        serve(body)

    def test_completed_compiles_leave_no_checkpoints_behind(self, tmp_path):
        async def body():
            app = ServingApp(cache=str(tmp_path))
            try:
                await register(app, "acme")
                assert (await app.request("POST", "/answer", QUERY)).status == 200
            finally:
                await app.aclose()
            assert self._checkpoints(tmp_path) == []

        serve(body)

    def test_service_stays_up_after_a_failed_compile(self, tmp_path):
        """One tenant's compile crash is that request's 500, not an outage."""

        async def body():
            killed = []

            def kill_once(generation: int) -> None:
                # acme's compile dies after one generation; beta's, the
                # next run, compiles undisturbed.
                if generation >= 1 and not killed:
                    killed.append(generation)
                    raise SimulatedKill()

            app = ServingApp(cache=str(tmp_path), fault_plan=OnGeneration(kill_once))
            try:
                await register(app, "acme")
                assert (await app.request("POST", "/answer", QUERY)).status == 500
                # The service keeps serving: health, stats, registrations.
                assert (await app.request("GET", "/healthz")).status == 200
                response = await app.request(
                    "POST",
                    "/register-theory",
                    {"tenant": "beta", "tbox": "Employee [= Person"},
                )
                assert response.status == 201
                answer = await app.request(
                    "POST",
                    "/answer",
                    {"tenant": "beta", "query": "q(A) :- Person(A)"},
                )
                assert answer.status == 200
            finally:
                await app.aclose()

        serve(body)
