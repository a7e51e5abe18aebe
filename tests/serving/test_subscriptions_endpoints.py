"""Standing-query endpoints: subscribe, poll, unsubscribe, prepare-batch.

In-process contract tests drive :class:`ServingApp` directly; the final
class goes over a real socket (query-string cursor included) through
:class:`ServingServer`/:class:`ServingClient`.
"""

import pytest

from repro.serving import ServingApp, ServingClient, ServingServer

from .conftest import register, serve

PERSON_QUERY = "q(A) :- Person(A)"


async def subscribe(app, tenant, query=PERSON_QUERY):
    response = await app.request(
        "POST", f"/tenants/{tenant}/subscribe", {"query": query}
    )
    assert response.status == 201, response.payload
    return response.payload


async def poll(app, tenant, cursor):
    response = await app.request(
        "GET", f"/tenants/{tenant}/changes", {"cursor": cursor}
    )
    assert response.status == 200, response.payload
    return response.payload


class TestSubscribe:
    def test_subscribe_returns_cursor_and_snapshot(self, app):
        async def body():
            await register(app, "acme")
            payload = await subscribe(app, "acme")
            assert payload["cursor"].startswith("sub-")
            assert payload["mode"] == "full"
            # The initial snapshot is the full current answer set, in the
            # same deterministic encoding /answer uses.
            answer = await app.request(
                "POST", "/answer", {"tenant": "acme", "query": PERSON_QUERY}
            )
            assert payload["answers"] == answer.payload["answers"]
            assert payload["count"] == answer.payload["count"]

        serve(body)

    def test_quiet_poll_is_an_empty_noop_delta(self, app):
        async def body():
            await register(app, "acme")
            cursor = (await subscribe(app, "acme"))["cursor"]
            delta = await poll(app, "acme", cursor)
            assert delta["added"] == [] and delta["removed"] == []
            assert delta["mode"] == "noop"
            assert delta["polls"] == 1

        serve(body)

    def test_unknown_tenant_is_404(self, app):
        async def body():
            response = await app.request(
                "POST", "/tenants/ghost/subscribe", {"query": PERSON_QUERY}
            )
            assert response.status == 404

        serve(body)

    def test_wrong_method_is_405(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request("GET", "/tenants/acme/subscribe", None)
            assert response.status == 405
            response = await app.request(
                "POST", "/tenants/acme/changes", {"cursor": "sub-000001"}
            )
            assert response.status == 405

        serve(body)


class TestChanges:
    def test_mutations_surface_as_answer_deltas(self, app):
        async def body():
            await register(app, "acme")
            cursor = (await subscribe(app, "acme"))["cursor"]
            response = await app.request(
                "POST",
                "/data",
                {
                    "tenant": "acme",
                    "add": [["Grad", ["zoe"]]],
                    "remove": [["Student", ["alice"]]],
                },
            )
            assert response.status == 200, response.payload
            delta = await poll(app, "acme", cursor)
            assert delta["added"] == [["zoe"]]
            assert delta["removed"] == [["alice"]]
            assert delta["mode"] == "incremental"
            # The cursor has caught up: /answer agrees with snapshot+delta.
            answer = await app.request(
                "POST", "/answer", {"tenant": "acme", "query": PERSON_QUERY}
            )
            assert delta["count"] == answer.payload["count"]
            quiet = await poll(app, "acme", cursor)
            assert quiet["added"] == [] and quiet["removed"] == []

        serve(body)

    def test_unknown_cursor_is_404(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request(
                "GET", "/tenants/acme/changes", {"cursor": "sub-999999"}
            )
            assert response.status == 404
            assert response.payload["error"]["code"] == "unknown-cursor"

        serve(body)

    def test_cursor_is_required_and_must_be_a_string(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request("GET", "/tenants/acme/changes", {})
            assert response.status == 400
            response = await app.request(
                "GET", "/tenants/acme/changes", {"cursor": 7}
            )
            assert response.status == 400

        serve(body)

    def test_subscription_survives_a_theory_update(self, app):
        async def body():
            await register(app, "acme")
            cursor = (await subscribe(app, "acme"))["cursor"]
            # Dropping the Grad [= Student axiom removes dana from the
            # Person closure; the next poll full-refreshes against the
            # new rewriting and reports exactly that.
            response = await app.request(
                "POST",
                "/tenants/acme/theory",
                {"tbox": "Student [= Person\nexists attends [= Student"},
            )
            assert response.status == 200, response.payload
            delta = await poll(app, "acme", cursor)
            assert delta["mode"] == "full"
            assert delta["removed"] == [["dana"]]
            assert delta["added"] == []

        serve(body)

    def test_unsubscribe_drops_the_cursor(self, app):
        async def body():
            await register(app, "acme")
            cursor = (await subscribe(app, "acme"))["cursor"]
            response = await app.request(
                "POST", "/tenants/acme/unsubscribe", {"cursor": cursor}
            )
            assert response.status == 200
            assert response.payload["unsubscribed"] is True
            response = await app.request(
                "GET", "/tenants/acme/changes", {"cursor": cursor}
            )
            assert response.status == 404
            response = await app.request(
                "POST", "/tenants/acme/unsubscribe", {"cursor": cursor}
            )
            assert response.status == 404

        serve(body)

    @pytest.mark.parametrize("endpoint", ["changes", "unsubscribe"])
    def test_a_cursor_that_is_not_a_string_is_400(self, app, endpoint):
        async def body():
            await register(app, "acme")
            cursor = (await subscribe(app, "acme"))["cursor"]
            method = "GET" if endpoint == "changes" else "POST"
            response = await app.request(
                method, f"/tenants/acme/{endpoint}", {"cursor": [cursor]}
            )
            assert response.status == 400
            assert response.payload["error"] == {
                "code": "bad-request",
                "message": "'cursor' must be a string",
            }
            # The subscription is still there.
            response = await app.request(
                "GET", "/tenants/acme/changes", {"cursor": cursor}
            )
            assert response.status == 200

        serve(body)

    def test_stats_expose_the_subscription_pool(self, app):
        async def body():
            await register(app, "acme")
            cursor = (await subscribe(app, "acme"))["cursor"]
            await poll(app, "acme", cursor)
            stats = await app.request("GET", "/stats", None)
            block = stats.payload["tenants"]["acme"]["subscriptions"]
            assert block == {"active": 1, "created": 1, "polls": 1}

        serve(body)


class TestPrepareBatch:
    def test_batch_prepares_every_query(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request(
                "POST",
                "/tenants/acme/prepare-batch",
                {"queries": [PERSON_QUERY, {"query": "q(A) :- Course(A)"}]},
            )
            assert response.status == 200, response.payload
            assert response.payload["prepared"] == 2
            assert len(response.payload["results"]) == 2
            for entry in response.payload["results"]:
                assert entry["cqs"] >= 1
            # A repeated batch is served entirely from the caches.
            again = await app.request(
                "POST",
                "/tenants/acme/prepare-batch",
                {"queries": [PERSON_QUERY, "q(A) :- Course(A)"]},
            )
            assert again.status == 200
            assert all(
                entry["source"] != "computed"
                for entry in again.payload["results"]
            ), again.payload

        serve(body)

    def test_queries_must_be_a_non_empty_list(self, app):
        async def body():
            await register(app, "acme")
            for bad in ({}, {"queries": []}, {"queries": "q(A) :- Person(A)"}):
                response = await app.request(
                    "POST", "/tenants/acme/prepare-batch", bad
                )
                assert response.status == 400, response.payload

        serve(body)


class TestOverTheSocket:
    def test_subscribe_mutate_poll_over_a_real_connection(self):
        async def body():
            app = ServingApp()
            server = ServingServer(app)
            await server.start()
            client = ServingClient("127.0.0.1", server.port)
            try:
                await register(app, "acme")
                opened = await client.request(
                    "POST",
                    "/tenants/acme/subscribe",
                    {"query": PERSON_QUERY},
                )
                assert opened.status == 201, opened.payload
                cursor = opened.payload["cursor"]
                mutated = await client.request(
                    "POST",
                    "/data",
                    {"tenant": "acme", "add": [["Student", ["frank"]]]},
                )
                assert mutated.status == 200
                # The cursor rides the query string — no request body.
                delta = await client.request(
                    "GET", f"/tenants/acme/changes?cursor={cursor}"
                )
                assert delta.status == 200, delta.payload
                assert delta.payload["added"] == [["frank"]]
                assert delta.payload["removed"] == []
                assert delta.payload["mode"] == "incremental"
                closed = await client.request(
                    "POST", "/tenants/acme/unsubscribe", {"cursor": cursor}
                )
                assert closed.status == 200
            finally:
                await client.aclose()
                await server.stop()

        serve(body)
