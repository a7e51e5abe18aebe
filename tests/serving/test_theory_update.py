"""Graceful live theory updates: ``POST /tenants/{name}/theory``.

PR 8's zero-downtime contract: swapping a tenant's ontology epochs the
shared artifact set — in-flight requests finish on the artifacts they
started with, new requests compile against the new fingerprint, the
facts and the database epoch counter survive, and the old artifact set
is refcount-drained and closed once its last pinned epoch is released.
The acceptance bar is a swap under concurrent load with **zero 500s**.
"""

from __future__ import annotations

import asyncio

from repro.serving import ServingApp
from repro.serving.tenants import Tenant

from .conftest import FACTS, TBOX, register, serve

QUERY = {"tenant": "acme", "query": "q(A) :- Person(A)"}

#: A strictly smaller ontology: only named Students remain Persons, so
#: the Person answers shrink from {alice, bob, dana} to {alice}.
SHRUNK_TBOX = "Student [= Person"


class TestTheoryUpdate:
    def test_update_swaps_answers_and_keeps_facts(self, app):
        async def body():
            await register(app, "acme")
            before = await app.request("POST", "/answer", QUERY)
            assert sorted(v for [v] in before.payload["answers"]) == [
                "alice",
                "bob",
                "dana",
            ]
            old_fingerprint = app.registry.get("acme").fingerprint

            updated = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
            )
            assert updated.status == 200, updated.payload
            assert updated.payload["changed"] is True
            assert updated.payload["fingerprint"] != old_fingerprint
            assert updated.payload["facts"] == len(FACTS)
            assert updated.payload["theory_updates"] == 1

            after = await app.request("POST", "/answer", QUERY)
            assert after.ok, after.payload
            assert after.payload["answers"] == [["alice"]]

        serve(body)

    def test_noop_update_is_reported_unchanged(self, app):
        async def body():
            await register(app, "acme")
            first = app.registry.get("acme").artifacts
            updated = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": TBOX}
            )
            assert updated.status == 200
            assert updated.payload["changed"] is False
            assert app.registry.get("acme").artifacts is first

        serve(body)

    def test_unknown_tenant_is_404(self, app):
        async def body():
            response = await app.request(
                "POST", "/tenants/ghost/theory", {"tbox": TBOX}
            )
            assert response.status == 404
            assert response.payload["error"]["code"] == "unknown-tenant"

        serve(body)

    def test_wrong_method_is_405(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request("GET", "/tenants/acme/theory")
            assert response.status == 405
            assert response.payload["error"]["code"] == "method-not-allowed"

        serve(body)

    def test_bad_theory_is_400_and_leaves_the_tenant_untouched(self, app):
        async def body():
            await register(app, "acme")
            before = app.registry.get("acme").fingerprint
            response = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": "not ( valid"}
            )
            assert response.status == 400
            assert app.registry.get("acme").fingerprint == before
            still = await app.request("POST", "/answer", QUERY)
            assert still.ok

        serve(body)


    def test_a_tbox_that_is_not_a_string_is_400_and_builds_nothing(self, app):
        async def body():
            await register(app, "acme")
            before = app.registry.get("acme").artifacts
            response = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": ["x"]}
            )
            assert response.status == 400
            assert response.payload["error"]["code"] == "bad-theory"
            assert app.registry.get("acme").artifacts is before
            assert app.registry.artifact_sets() == (before,)

        serve(body)


class TestEpochLifecycle:
    def test_old_artifacts_close_once_drained(self, app):
        async def body():
            await register(app, "acme")
            warm = await app.request("POST", "/answer", QUERY)
            assert warm.ok
            old = app.registry.get("acme").artifacts

            updated = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
            )
            assert updated.ok
            # Nothing pinned the old epoch, so the swap drained it.
            assert old._closed
            assert app.registry.get("acme").artifacts is not old

        serve(body)

    def test_pinned_epoch_keeps_old_artifacts_alive(self, app):
        async def body():
            await register(app, "acme")
            tenant = app.registry.get("acme")
            pinned = tenant.retain_epoch()
            old = pinned.artifacts

            updated = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
            )
            assert updated.ok
            # The in-flight request still owns the old artifact set...
            assert not old._closed
            assert tenant.artifacts is not old
            # ...and releasing the pin drains and closes it.
            tenant.release_epoch(pinned)
            assert old._closed

        serve(body)

    def test_shared_set_survives_while_a_sibling_tenant_uses_it(self, app):
        async def body():
            await register(app, "acme")
            second = await register(app, "beta")
            assert second["shared_artifacts"] is True
            shared = app.registry.get("acme").artifacts
            assert app.registry.get("beta").artifacts is shared

            updated = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
            )
            assert updated.ok
            # beta still holds a membership: the old set must stay open.
            assert not shared._closed
            beta = await app.request(
                "POST", "/answer", {"tenant": "beta", "query": "q(A) :- Person(A)"}
            )
            assert beta.ok
            assert sorted(v for [v] in beta.payload["answers"]) == [
                "alice",
                "bob",
                "dana",
            ]

        serve(body)


class TestUpdateUnderLoad:
    def test_swap_under_concurrent_traffic_yields_zero_500s(self, app):
        """The PR 8 acceptance bar for live updates."""

        async def body():
            await register(app, "acme")
            warm = await app.request("POST", "/answer", QUERY)
            assert warm.ok

            async def traffic():
                responses = []
                for _ in range(60):
                    responses.append(await app.request("POST", "/answer", QUERY))
                    await asyncio.sleep(0.001)
                return responses

            load = asyncio.ensure_future(traffic())
            await asyncio.sleep(0.01)
            flip = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
            )
            assert flip.ok, flip.payload
            await asyncio.sleep(0.01)
            flop = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": TBOX}
            )
            assert flop.ok, flop.payload

            responses = await load
            assert all(r.status < 500 for r in responses), [
                r.payload for r in responses if r.status >= 500
            ]
            assert all(r.ok for r in responses)
            # Every response is one of the two theories' answer sets —
            # never a torn mixture.
            legal = ([["alice"]], [["alice"], ["bob"], ["dana"]])
            for response in responses:
                assert response.payload["answers"] in legal

        serve(body)


class TestFailedSwap:
    """A theory update whose new epoch cannot open leaks no artifact reference."""

    @staticmethod
    def _failing_epoch(monkeypatch):
        def refuse(self, artifacts, database):
            raise RuntimeError("injected: the new epoch cannot open")

        monkeypatch.setattr(Tenant, "_open_epoch", refuse)

    @staticmethod
    async def _tenants_by_fingerprint(app) -> dict:
        stats = await app.request("GET", "/stats")
        return {
            entry["fingerprint"]: entry["tenants"]
            for entry in stats.payload["artifacts"].values()
        }

    def test_onto_a_new_fingerprint(self, app, monkeypatch):
        async def body():
            await register(app, "acme")
            old = app.registry.get("acme").artifacts
            with monkeypatch.context() as patch:
                self._failing_epoch(patch)
                failed = await app.request(
                    "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
                )
            assert failed.status == 500, failed.payload
            assert await self._tenants_by_fingerprint(app) == {
                old.fingerprint: ["acme"]
            }
            # The set made for the swap was retired with no tenant.
            assert app.registry.artifact_sets() == (old,)
            still = await app.request("POST", "/answer", QUERY)
            assert sorted(v for [v] in still.payload["answers"]) == [
                "alice",
                "bob",
                "dana",
            ]
            retried = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
            )
            assert retried.status == 200, retried.payload
            after = await app.request("POST", "/answer", QUERY)
            assert after.payload["answers"] == [["alice"]]

        serve(body)

    def test_onto_a_set_shared_with_another_tenant(self, app, monkeypatch):
        async def body():
            await register(app, "acme")
            sibling = await app.request(
                "POST",
                "/register-theory",
                {"tenant": "globex", "tbox": SHRUNK_TBOX, "facts": FACTS},
            )
            assert sibling.status == 201, sibling.payload
            old = app.registry.get("acme").artifacts
            shared = app.registry.get("globex").artifacts
            refs = shared._refs
            with monkeypatch.context() as patch:
                self._failing_epoch(patch)
                failed = await app.request(
                    "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
                )
            assert failed.status == 500, failed.payload
            assert await self._tenants_by_fingerprint(app) == {
                old.fingerprint: ["acme"],
                shared.fingerprint: ["globex"],
            }
            # The shared set keeps only the other tenant's references.
            assert shared._refs == refs and not shared._closed
            still = await app.request("POST", "/answer", QUERY)
            assert len(still.payload["answers"]) == 3
            retried = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
            )
            assert retried.status == 200 and retried.payload["shared_artifacts"]
            assert await self._tenants_by_fingerprint(app) == {
                shared.fingerprint: ["acme", "globex"]
            }

        serve(body)

    def test_closing_the_old_epoch_fails_after_the_swap(self, app, monkeypatch):
        async def body():
            await register(app, "acme")
            tenant = app.registry.get("acme")
            old = tenant.artifacts

            def refuse():
                raise OSError("injected: the old system cannot close")

            monkeypatch.setattr(tenant.system, "close", refuse)
            failed = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": SHRUNK_TBOX}
            )
            assert failed.status == 500, failed.payload
            # The swap happened: the tenant is on the new set only, and
            # the old set, which no tenant holds, is closed.
            new = tenant.artifacts
            assert new is not old
            assert await self._tenants_by_fingerprint(app) == {
                new.fingerprint: ["acme"]
            }
            assert old._closed and old._refs == 0
            after = await app.request("POST", "/answer", QUERY)
            assert after.payload["answers"] == [["alice"]]
            # Deregistering releases the new set once, and closes it.
            assert new._refs == 2
            gone = await app.request(
                "POST", "/invalidate", {"tenant": "acme", "scope": "tenant"}
            )
            assert gone.ok, gone.payload
            assert new._closed and new._refs == 0
            assert app.registry.artifact_sets() == ()

        serve(body)


#: A role specialising a functional role: the key conflicts with the rule.
CONFLICTING_TBOX = "worksFor [= employedBy\nfunct employedBy"


class TestConflictingKeys:
    def test_registration_is_refused_and_leaves_nothing(self, app):
        async def body():
            response = await app.request(
                "POST",
                "/register-theory",
                {"tenant": "acme", "tbox": CONFLICTING_TBOX},
            )
            assert response.status == 400, response.payload
            error = response.payload["error"]
            assert error["code"] == "conflicting-keys"
            assert "key(employedBy)" in error["message"]
            assert "worksFor(X, Y) -> employedBy(X, Y)" in error["message"]
            stats = await app.request("GET", "/stats")
            assert stats.payload["artifacts"] == {}
            assert "acme" not in stats.payload["tenants"]

        serve(body)

    def test_a_theory_update_is_refused_and_keeps_the_tenant(self, app):
        async def body():
            await register(app, "acme")
            before = app.registry.get("acme").artifacts
            response = await app.request(
                "POST", "/tenants/acme/theory", {"tbox": CONFLICTING_TBOX}
            )
            assert response.status == 400, response.payload
            assert response.payload["error"]["code"] == "conflicting-keys"
            assert app.registry.artifact_sets() == (before,)
            assert app.registry.get("acme").artifacts is before
            still = await app.request("POST", "/answer", QUERY)
            assert still.ok

        serve(body)
