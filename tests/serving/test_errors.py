"""Classified error contracts: every failure is a machine-readable code.

PR 8 requires clients to be able to tell a permanently broken query
(``compile-failed``), a transient backend hiccup (``backend-error``), a
budget problem (``timeout``) and a genuine bug (``internal``) apart
without string matching.  Each classified code is provoked for real here,
and the retryable ones are checked for a ``retry_after`` hint in the
body, which the HTTP layer mirrors as a ``Retry-After`` header.
"""

from __future__ import annotations

import sqlite3

from repro.serving import FaultPlan, ServingApp
from repro.serving.app import ServingError, ServingResponse
from repro.serving.http import _encode_response
from repro.serving.resilience import ResilienceConfig

from .conftest import OnGeneration, register, serve

QUERY = {"tenant": "acme", "query": "q(A) :- Person(A)"}


def broken(generation: int) -> None:
    """Deterministically fails every engine run."""
    raise RuntimeError("deterministic compile breakage")


class TestClassifiedCodes:
    def test_compile_failure_is_500_compile_failed(self):
        async def body():
            app = ServingApp(fault_plan=OnGeneration(broken))
            try:
                await register(app, "acme")
                response = await app.request("POST", "/answer", QUERY)
                assert response.status == 500
                assert response.payload["error"]["code"] == "compile-failed"
                assert "RuntimeError" in response.payload["error"]["message"]
            finally:
                await app.aclose()

        serve(body)

    def test_backend_fault_is_503_backend_error_with_retry_hint(self):
        async def body():
            plan = FaultPlan(seed=0, backend_faults=1)
            app = ServingApp(fault_plan=plan)
            try:
                await register(app, "acme")
                plan.arm()
                failed = await app.request("POST", "/answer", QUERY)
                assert failed.status == 503, failed.payload
                assert failed.payload["error"]["code"] == "backend-error"
                assert "OperationalError" in failed.payload["error"]["message"]
                assert failed.payload["error"]["retry_after"] > 0
                # The fault budget is spent: the retry succeeds.
                retried = await app.request("POST", "/answer", QUERY)
                assert retried.ok
            finally:
                plan.disarm()
                await app.aclose()

        serve(body)

    def test_unclassified_exception_is_500_internal(self, app):
        async def body():
            await register(app, "acme")
            tenant = app.registry.get("acme")

            def explode(*args, **kwargs):
                raise ArithmeticError("unexpected bug")

            tenant.answer_blocking = explode
            response = await app.request("POST", "/answer", QUERY)
            assert response.status == 500
            assert response.payload["error"]["code"] == "internal"
            assert "ArithmeticError" in response.payload["error"]["message"]

        serve(body)

    def test_sqlite_errors_from_handlers_map_to_backend_error(self, app):
        async def body():
            await register(app, "acme")
            tenant = app.registry.get("acme")

            def explode(*args, **kwargs):
                raise sqlite3.OperationalError("database is locked")

            tenant.answer_blocking = explode
            response = await app.request("POST", "/answer", QUERY)
            assert response.status == 503
            assert response.payload["error"]["code"] == "backend-error"

        serve(body)

    def test_timeout_code_on_answer_budget(self, app):
        async def body():
            await register(app, "acme")
            # Warm the compile first so only the answer phase runs under
            # the (absurd) header deadline; the compile is a dict probe.
            warm = await app.request("POST", "/answer", QUERY)
            assert warm.ok
            # Drop the cached answers: a warm hit is served on the event
            # loop and never reaches the stalled executor work below.
            dropped = await app.request(
                "POST", "/invalidate", {"tenant": "acme", "scope": "answers"}
            )
            assert dropped.ok
            tenant = app.registry.get("acme")

            def stall(*args, **kwargs):
                import time

                time.sleep(0.5)
                raise AssertionError("unreachable")

            tenant.answer_blocking = stall
            response = await app.request(
                "POST", "/answer", QUERY, headers={"x-deadline-ms": "50"}
            )
            assert response.status == 504
            assert response.payload["error"]["code"] == "timeout"

        serve(body)


class TestRetryAfterEncoding:
    def test_retryable_body_mirrors_a_retry_after_header(self):
        error = ServingError(503, "overloaded", "busy", retry_after=1.25)
        raw = _encode_response(error.response(), keep_alive=True)
        head = raw.split(b"\r\n\r\n", 1)[0].decode("ascii")
        assert "Retry-After: 1.250" in head
        assert "503 Service Unavailable" in head

    def test_non_retryable_errors_have_no_retry_after_header(self):
        error = ServingError(404, "unknown-tenant", "no such tenant")
        raw = _encode_response(error.response(), keep_alive=True)
        assert b"Retry-After" not in raw

    def test_retry_after_lands_in_the_error_body(self):
        response = ServingError(
            503, "circuit-open", "open", retry_after=0.5
        ).response()
        assert response.payload["error"]["retry_after"] == 0.5
        plain = ServingError(400, "bad-request", "nope").response()
        assert "retry_after" not in plain.payload["error"]

    def test_504_has_a_reason_phrase(self):
        raw = _encode_response(
            ServingResponse(504, {"error": {"code": "timeout", "message": "m"}}),
            keep_alive=False,
        )
        assert raw.startswith(b"HTTP/1.1 504 Gateway Timeout")
