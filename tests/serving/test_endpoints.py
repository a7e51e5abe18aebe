"""Endpoint contracts: statuses, payload shapes and structured errors."""

import json

import pytest

from repro.cache.serialization import tgd_to_json
from repro.serving import ServingApp
from repro.serving.tenants import Tenant
from repro.workloads import get_workload

from .conftest import FACTS, TBOX, register, serve


class TestRegisterTheory:
    def test_tbox_registration(self, app):
        async def body():
            payload = await register(app, "acme")
            assert payload["tenant"] == "acme"
            assert len(payload["fingerprint"]) == 64
            assert payload["shared_artifacts"] is False
            assert payload["tgds"] >= 4
            assert payload["facts"] == len(FACTS)

        serve(body)

    def test_workload_registration(self, app):
        async def body():
            response = await app.request(
                "POST", "/register-theory", {"tenant": "acme", "workload": "S"}
            )
            assert response.status == 201
            assert response.payload["tgds"] == len(get_workload("S").theory.tgds)

        serve(body)

    def test_json_tgd_registration(self, app):
        async def body():
            rules = [tgd_to_json(rule) for rule in get_workload("P5").theory.tgds]
            response = await app.request(
                "POST", "/register-theory", {"tenant": "acme", "tgds": rules}
            )
            assert response.status == 201
            assert response.payload["tgds"] == len(rules)

        serve(body)

    def test_duplicate_tenant_is_409(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request(
                "POST", "/register-theory", {"tenant": "acme", "tbox": TBOX}
            )
            assert response.status == 409
            assert response.payload["error"]["code"] == "duplicate-tenant"

        serve(body)

    def test_admission_control_is_429(self):
        async def body():
            app = ServingApp(max_tenants=1)
            try:
                await register(app, "acme")
                response = await app.request(
                    "POST", "/register-theory", {"tenant": "beta", "tbox": TBOX}
                )
                assert response.status == 429
                assert response.payload["error"]["code"] == "max-tenants"
            finally:
                await app.aclose()

        serve(body)

    def test_unknown_workload_is_404(self, app):
        async def body():
            response = await app.request(
                "POST",
                "/register-theory",
                {"tenant": "acme", "workload": "no-such-workload"},
            )
            assert response.status == 404
            assert response.payload["error"]["code"] == "unknown-workload"

        serve(body)

    @pytest.mark.parametrize(
        "payload, code",
        [
            ({"tbox": TBOX}, "missing-field"),
            ({"tenant": "acme"}, "bad-theory"),
            ({"tenant": "acme", "tbox": TBOX, "workload": "S"}, "bad-theory"),
            ({"tenant": "acme", "tbox": "this is not an axiom"}, "bad-theory"),
            ({"tenant": "acme", "tbox": TBOX, "facts": [["oops"]]}, "bad-facts"),
            (
                {"tenant": "acme", "tbox": TBOX, "facts": [["Student", [["a"]]]]},
                "bad-facts",
            ),
            ({"tenant": "", "tbox": TBOX}, "bad-request"),
            ({"tenant": "acme", "tbox": TBOX, "backend": "bogus"}, "bad-backend"),
        ],
    )
    def test_malformed_registrations_are_400(self, app, payload, code):
        async def body():
            response = await app.request("POST", "/register-theory", payload)
            assert response.status == 400
            assert response.payload["error"]["code"] == code
            # Nothing was built: no tenant, no artifact set.
            assert len(app.registry) == 0
            assert app.registry.artifact_sets() == ()

        serve(body)

    def test_unknown_backend_names_the_known_ones(self, app):
        async def body():
            response = await app.request(
                "POST",
                "/register-theory",
                {"tenant": "acme", "tbox": TBOX, "backend": "bogus"},
            )
            message = response.payload["error"]["message"]
            assert "'bogus'" in message
            assert "memory" in message and "sqlite" in message

        serve(body)

    def test_failed_registration_of_a_new_theory_leaves_no_artifacts(
        self, app, monkeypatch
    ):
        def failing(tenant, facts):
            raise RuntimeError("facts could not be loaded")

        async def body():
            monkeypatch.setattr(Tenant, "add_facts", failing)
            response = await app.request(
                "POST", "/register-theory", {"tenant": "acme", "tbox": TBOX}
            )
            assert response.status == 500
            stats = await app.request("GET", "/stats")
            assert stats.payload["tenants"] == {}
            assert stats.payload["artifacts"] == {}

        serve(body)

    def test_failed_registration_on_a_shared_set_releases_its_reference(
        self, app, monkeypatch
    ):
        def failing(tenant, facts):
            raise RuntimeError("facts could not be loaded")

        async def body():
            await register(app, "acme")
            (artifacts,) = app.registry.artifact_sets()
            refs = artifacts._refs  # membership + the tenant's epoch
            with monkeypatch.context() as patch:
                patch.setattr(Tenant, "add_facts", failing)
                response = await app.request(
                    "POST", "/register-theory", {"tenant": "beta", "tbox": TBOX}
                )
            assert response.status == 500
            assert "beta" not in app.registry
            assert artifacts._refs == refs
            assert artifacts.tenant_names == {"acme"}
            # The last real tenant leaving closes the set.
            await app.request(
                "POST", "/invalidate", {"tenant": "acme", "scope": "tenant"}
            )
            assert artifacts._closed

        serve(body)


class TestAnswer:
    def test_reasoning_answer_over_http_contract(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request(
                "POST", "/answer", {"tenant": "acme", "query": "q(A) :- Person(A)"}
            )
            assert response.status == 200
            # alice directly, dana via Grad [= Student, bob via attendance.
            assert response.payload["answers"] == [["alice"], ["bob"], ["dana"]]
            assert response.payload["count"] == 3
            assert response.payload["source"] == "engine"
            assert response.payload["coalesced"] is False
            assert response.payload["answer_cached"] is False

        serve(body)

    def test_warm_repeat_is_cached(self, app):
        async def body():
            await register(app, "acme")
            query = {"tenant": "acme", "query": "q(A) :- Student(A)"}
            first = await app.request("POST", "/answer", query)
            second = await app.request("POST", "/answer", query)
            assert second.payload["source"] == "memory"
            assert second.payload["answer_cached"] is True
            assert second.payload["answers"] == first.payload["answers"]

        serve(body)

    def test_epoch_is_the_one_the_answers_belong_to(self, app):
        # A write queued on the tenant's executor right behind the
        # execution must not leak into the response's epoch.
        async def body():
            await register(app, "acme")
            tenant = app.registry.get("acme")
            answered_at = tenant.system.database.epoch
            original = tenant.answer_blocking

            def answer_then_write(*args):
                answered = original(*args)
                tenant.add_facts([("Student", ["frank"])])
                return answered

            tenant.answer_blocking = answer_then_write
            response = await app.request(
                "POST", "/answer", {"tenant": "acme", "query": "q(A) :- Student(A)"}
            )
            assert response.status == 200
            assert ["frank"] not in response.payload["answers"]
            assert tenant.system.database.epoch > answered_at
            assert response.payload["epoch"] == answered_at

        serve(body)

    def test_unknown_tenant_is_404(self, app):
        async def body():
            response = await app.request(
                "POST", "/answer", {"tenant": "ghost", "query": "q(A) :- Person(A)"}
            )
            assert response.status == 404
            assert response.payload["error"]["code"] == "unknown-tenant"

        serve(body)

    @pytest.mark.parametrize(
        "query", ["q(A) :- ", 42, None, {"not": "a query"}]
    )
    def test_bad_queries_are_400(self, app, query):
        async def body():
            await register(app, "acme")
            response = await app.request(
                "POST", "/answer", {"tenant": "acme", "query": query}
            )
            assert response.status == 400
            assert response.payload["error"]["code"] == "bad-query"

        serve(body)

    def test_bad_bindings_are_400(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request(
                "POST",
                "/answer",
                {
                    "tenant": "acme",
                    "query": "q(A) :- Person(A)",
                    "bindings": "not-an-object",
                },
            )
            assert response.status == 400
            assert response.payload["error"]["code"] == "bad-bindings"

        serve(body)

    def test_answers_encoding_is_deterministic(self, app):
        async def body():
            await register(app, "acme")
            query = {"tenant": "acme", "query": "q(A) :- Person(A)"}
            first = await app.request("POST", "/answer", query)
            second = await app.request("POST", "/answer", query)
            assert json.dumps(first.payload["answers"]) == json.dumps(
                second.payload["answers"]
            )

        serve(body)


class TestDataAndInvalidation:
    def test_adding_facts_bumps_epoch_and_invalidates_answers(self, app):
        async def body():
            await register(app, "acme")
            query = {"tenant": "acme", "query": "q(A) :- Student(A)"}
            first = await app.request("POST", "/answer", query)
            mutation = await app.request(
                "POST",
                "/data",
                {"tenant": "acme", "add": [["Student", ["frank"]]]},
            )
            assert mutation.status == 200
            assert mutation.payload["added"] == 1
            assert mutation.payload["epoch"] > first.payload["epoch"]
            fresh = await app.request("POST", "/answer", query)
            assert fresh.payload["answer_cached"] is False
            assert ["frank"] in fresh.payload["answers"]
            warm = await app.request("POST", "/answer", query)
            assert warm.payload["answer_cached"] is True

        serve(body)

    def test_removing_facts_shrinks_answers(self, app):
        async def body():
            await register(app, "acme")
            query = {"tenant": "acme", "query": "q(A) :- Person(A)"}
            before = await app.request("POST", "/answer", query)
            assert ["alice"] in before.payload["answers"]
            await app.request(
                "POST",
                "/data",
                {"tenant": "acme", "remove": [["Student", ["alice"]]]},
            )
            after = await app.request("POST", "/answer", query)
            assert ["alice"] not in after.payload["answers"]

        serve(body)

    def test_rejected_batch_changes_nothing(self, app):
        async def body():
            await register(app, "acme")
            database = app.registry.get("acme").system.database
            facts, epoch = len(database), database.epoch
            response = await app.request(
                "POST",
                "/data",
                {
                    "tenant": "acme",
                    "add": [["stock", ["s1", "acme", 3]], ["stock", [[1], "x", 3]]],
                },
            )
            assert response.status == 400
            assert response.payload["error"]["code"] == "bad-facts"
            assert (len(database), database.epoch) == (facts, epoch)

        serve(body)

    def test_empty_mutation_is_400(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request("POST", "/data", {"tenant": "acme"})
            assert response.status == 400

        serve(body)

    def test_invalidate_answers_scope(self, app):
        async def body():
            await register(app, "acme")
            query = {"tenant": "acme", "query": "q(A) :- Student(A)"}
            await app.request("POST", "/answer", query)
            response = await app.request(
                "POST", "/invalidate", {"tenant": "acme", "scope": "answers"}
            )
            assert response.status == 200
            assert response.payload["invalidated"] >= 1
            fresh = await app.request("POST", "/answer", query)
            assert fresh.payload["answer_cached"] is False

        serve(body)

    def test_invalidate_tenant_scope_deregisters(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request(
                "POST", "/invalidate", {"tenant": "acme", "scope": "tenant"}
            )
            assert response.status == 200
            gone = await app.request(
                "POST", "/answer", {"tenant": "acme", "query": "q(A) :- Person(A)"}
            )
            assert gone.status == 404

        serve(body)

    def test_bad_scope_is_400(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request(
                "POST", "/invalidate", {"tenant": "acme", "scope": "everything"}
            )
            assert response.status == 400
            assert response.payload["error"]["code"] == "bad-scope"

        serve(body)


class TestRoutingAndStats:
    def test_unknown_endpoint_is_404(self, app):
        async def body():
            response = await app.request("GET", "/no-such-endpoint")
            assert response.status == 404
            assert response.payload["error"]["code"] == "unknown-endpoint"

        serve(body)

    def test_wrong_method_is_405(self, app):
        async def body():
            response = await app.request("GET", "/answer")
            assert response.status == 405
            assert response.payload["error"]["code"] == "method-not-allowed"

        serve(body)

    def test_non_object_body_is_400(self, app):
        async def body():
            response = await app.request("POST", "/answer", ["not", "an", "object"])
            assert response.status == 400

        serve(body)

    def test_healthz(self, app):
        async def body():
            response = await app.request("GET", "/healthz")
            assert response.status == 200
            assert response.payload["status"] == "ok"

        serve(body)

    def test_stats_shape(self, app):
        async def body():
            await register(app, "acme")
            await app.request(
                "POST", "/answer", {"tenant": "acme", "query": "q(A) :- Person(A)"}
            )
            response = await app.request("GET", "/stats")
            assert response.status == 200
            payload = response.payload
            assert "acme" in payload["tenants"]
            tenant = payload["tenants"]["acme"]
            assert tenant["answers_served"] == 1
            assert tenant["facts"] == len(FACTS)
            assert len(payload["artifacts"]) == 1
            (artifact,) = payload["artifacts"].values()
            assert artifact["tenants"] == ["acme"]
            assert artifact["compiles"] == 1
            assert payload["coalescing"]["leaders"] == 1
            assert payload["store"] is None  # memory-only app
            assert payload["requests"]["/answer"] == 1

        serve(body)

    def test_tenant_routes_are_counted_under_their_template(self, app):
        async def body():
            for index in range(1000):
                response = await app.request(
                    "GET", f"/tenants/ghost{index}/changes", {"cursor": "c"}
                )
                assert response.status == 404
            requests = (await app.request("GET", "/stats")).payload["requests"]
            # One key for the 1,000 unknown tenants (plus the /stats call).
            assert requests == {"/stats": 1, "/tenants/{name}/changes": 1000}

        serve(body)

    def test_responses_serialize_to_bytes(self, app):
        async def body():
            await register(app, "acme")
            response = await app.request("GET", "/stats")
            decoded = json.loads(response.body())
            assert decoded["tenants"]["acme"]["backend"] == "memory"

        serve(body)
