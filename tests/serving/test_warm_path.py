"""The warm ``/answer`` path: parse once, encode once, no executor hop on a hit.

A repeated query text is parsed once per app, an answer set is encoded
once per app, and an answer-cache hit is served on the event loop by
``Tenant.answer_cached`` instead of ``Tenant.answer_blocking`` on the
tenant's executor.  Each test that needs to tell the two apart replaces
``answer_blocking`` on the tenant: a stub that raises proves the request
never reached the executor, a recording wrapper that it did.
"""

from __future__ import annotations

import asyncio
import json
import sqlite3
import sys
import threading

from repro.backends import BACKENDS, SQLiteBackend
from repro.logic.terms import Constant
from repro.serving import FaultPlan, ServingApp
from repro.serving import app as app_module
from repro.serving.app import ServingResponse, encode_answers

from .conftest import register, serve

QUERY = {"tenant": "acme", "query": "q(A) :- Person(A)"}


def executor_forbidden(tenant) -> None:
    """Make any answer that reaches the tenant's executor a 500."""

    def explode(*args, **kwargs):
        raise AssertionError("the warm hit reached Tenant.answer_blocking")

    tenant.answer_blocking = explode


def record_executor_calls(tenant) -> list:
    """Count ``answer_blocking`` calls; the answers are unchanged."""
    calls = []
    original = tenant.answer_blocking

    def recording(*args):
        calls.append(args[0])
        return original(*args)

    tenant.answer_blocking = recording
    return calls


class TestHitPath:
    def test_warm_hit_never_calls_answer_blocking(self, app):
        async def body():
            await register(app, "acme")
            cold = await app.request("POST", "/answer", QUERY)
            assert cold.ok and cold.payload["answer_cached"] is False
            tenant = app.registry.get("acme")
            executor_forbidden(tenant)
            warm = await app.request("POST", "/answer", QUERY)
            assert warm.status == 200, warm.payload
            assert warm.payload["answer_cached"] is True
            assert warm.payload["source"] == "memory"
            assert warm.payload["answers"] == cold.payload["answers"]
            assert warm.payload["epoch"] == cold.payload["epoch"]
            assert tenant.answered_on_loop == 1

        serve(body)

    def test_an_epoch_bump_takes_the_executor(self, app):
        async def body():
            await register(app, "acme")
            await app.request("POST", "/answer", QUERY)
            added = await app.request(
                "POST", "/data", {"tenant": "acme", "add": [["Student", ["zoe"]]]}
            )
            assert added.ok
            tenant = app.registry.get("acme")
            calls = record_executor_calls(tenant)
            response = await app.request("POST", "/answer", QUERY)
            assert response.ok
            assert len(calls) == 1
            assert response.payload["answer_cached"] is False
            assert ["zoe"] in response.payload["answers"]
            assert response.payload["epoch"] == added.payload["epoch"]
            assert tenant.answered_on_loop == 0

        serve(body)

    def test_a_held_tenant_lock_takes_the_executor(self, app):
        async def body():
            await register(app, "acme")
            await app.request("POST", "/answer", QUERY)
            tenant = app.registry.get("acme")
            calls = record_executor_calls(tenant)
            held, release = threading.Event(), threading.Event()

            def hold():
                with tenant._lock:
                    held.set()
                    release.wait(5.0)

            holder = threading.Thread(target=hold)
            holder.start()
            try:
                assert held.wait(5.0)
                request = asyncio.ensure_future(app.request("POST", "/answer", QUERY))
                # The executor path waits on the lock; the loop does not.
                await asyncio.sleep(0.05)
                assert not request.done()
            finally:
                release.set()
                holder.join(5.0)
            assert not holder.is_alive()
            response = await asyncio.wait_for(request, 5.0)
            assert response.ok
            assert len(calls) == 1
            assert response.payload["answer_cached"] is True
            assert tenant.answered_on_loop == 0

        serve(body)

    def test_an_attached_sqlite_tenant_takes_the_executor(
        self, app, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "external.sqlite")
        monkeypatch.setitem(
            BACKENDS,
            "sqlite-file",
            lambda: SQLiteBackend(path, attach=True, create_missing=True),
        )

        async def body():
            await register(app, "acme", backend="sqlite-file", facts=[])
            query = {"tenant": "acme", "query": "q(A) :- Student(A)"}
            first = await app.request("POST", "/answer", query)
            assert first.ok and first.payload["answers"] == []
            tenant = app.registry.get("acme")
            calls = record_executor_calls(tenant)
            repeat = await app.request("POST", "/answer", query)
            assert repeat.ok and repeat.payload["answer_cached"] is True
            # A commit by another connection is seen: data_version moved.
            with sqlite3.connect(path) as external:
                external.execute('INSERT INTO "Student" VALUES (?)', ("zoe",))
            changed = await app.request("POST", "/answer", query)
            assert changed.ok and changed.payload["answers"] == [["zoe"]]
            assert changed.payload["answer_cached"] is False
            assert len(calls) == 2
            assert tenant.answered_on_loop == 0

        serve(body)

    def test_a_spent_deadline_times_out_before_the_executor(self, app):
        async def body():
            await register(app, "acme")
            await app.request("POST", "/answer", QUERY)
            tenant = app.registry.get("acme")
            response = await app.request(
                "POST", "/answer", QUERY, headers={"x-deadline-ms": "0.000001"}
            )
            assert response.status == 504, response.payload
            assert response.payload["error"]["code"] == "timeout"
            assert "answer did not finish" in response.payload["error"]["message"]
            assert tenant.answered_on_loop == 0

        serve(body)

    def test_a_spent_deadline_runs_no_answer_work(self, app):
        # After /invalidate the warm query misses the answer cache, so
        # only the executor could answer it; with the budget already
        # spent, the 504 must come before the hop, not instead of
        # waiting for work that then runs for nobody.
        async def body():
            await register(app, "acme")
            await app.request("POST", "/answer", QUERY)
            invalidated = await app.request("POST", "/invalidate", {"tenant": "acme"})
            assert invalidated.ok, invalidated.payload
            tenant = app.registry.get("acme")
            served = tenant.answers_served
            response = await app.request(
                "POST", "/answer", QUERY, headers={"x-deadline-ms": "0.000001"}
            )
            assert response.status == 504, response.payload
            assert response.payload["error"]["code"] == "timeout"
            await asyncio.sleep(0.2)
            assert tenant.answers_served == served

        serve(body)

    def test_a_backend_fault_on_a_hit_is_503(self):
        async def body():
            plan = FaultPlan(seed=0, backend_faults=1)
            app = ServingApp(fault_plan=plan)
            try:
                await register(app, "acme")
                await app.request("POST", "/answer", QUERY)
                tenant = app.registry.get("acme")
                executor_forbidden(tenant)
                served = tenant.answers_served
                plan.arm()
                failed = await app.request("POST", "/answer", QUERY)
                assert failed.status == 503, failed.payload
                assert failed.payload["error"]["code"] == "backend-error"
                assert failed.payload["error"]["retry_after"] > 0
                assert plan.injected["backend"] == 1
                assert tenant.answers_served == served
                retried = await app.request("POST", "/answer", QUERY)
                assert retried.ok and retried.payload["answer_cached"] is True
                assert tenant.answered_on_loop == 1
            finally:
                plan.disarm()
                await app.aclose()

        serve(body)

    def test_bad_bindings_on_a_warm_query_are_400(self, app):
        async def body():
            await register(app, "acme")
            query = {"tenant": "acme", "query": "q(A) :- attends(A, cs101)"}
            warm = await app.request("POST", "/answer", query)
            assert warm.ok and warm.payload["answers"] == [["bob"]]
            tenant = app.registry.get("acme")
            calls = record_executor_calls(tenant)
            rebound = await app.request(
                "POST", "/answer", {**query, "bindings": {"cs101": "cs101"}}
            )
            assert rebound.ok and rebound.payload["answer_cached"] is True
            assert calls == [] and tenant.answered_on_loop == 1
            # Bad bindings are reported by the executor path, as before.
            response = await app.request(
                "POST", "/answer", {**query, "bindings": {"nope": "x"}}
            )
            assert response.status == 400
            assert response.payload["error"]["code"] == "bad-bindings"
            assert len(calls) == 1 and tenant.answered_on_loop == 1

        serve(body)

    def test_the_fault_hook_runs_before_the_bindings_check(self):
        # One order on both paths: an armed backend fault wins over bad
        # bindings, even when the query's answers are cached.
        async def body():
            plan = FaultPlan(seed=0, backend_faults=1)
            app = ServingApp(fault_plan=plan)
            try:
                await register(app, "acme")
                assert (await app.request("POST", "/answer", QUERY)).ok
                plan.arm()
                response = await app.request(
                    "POST", "/answer", {**QUERY, "bindings": {"nope": "x"}}
                )
                assert response.status == 503, response.payload
                assert plan.injected["backend"] == 1
                response = await app.request(
                    "POST", "/answer", {**QUERY, "bindings": {"nope": "x"}}
                )
                assert response.status == 400, response.payload
            finally:
                plan.disarm()
                await app.aclose()

        serve(body)

    def test_stats_counters_move_as_on_the_executor_path(self, app):
        def counters(stats: dict) -> dict:
            tenant = stats["tenants"]["acme"]
            (artifacts,) = stats["artifacts"].values()
            return {
                "epoch": tenant["epoch"],
                "answers_served": tenant["answers_served"],
                "prepared": tenant["prepared"],
                "compiles": artifacts["compiles"],
                "served_memory": artifacts["served_memory"],
                "served_store": artifacts["served_store"],
                "coalescing": stats["coalescing"],
                "answer_requests": stats["requests"]["/answer"],
            }

        def moved(before: dict, after: dict) -> dict:
            return {
                name: (
                    moved(before[name], after[name])
                    if isinstance(after[name], dict)
                    else after[name] - before[name]
                )
                for name in after
            }

        async def body():
            await register(app, "acme")
            await app.request("POST", "/answer", QUERY)
            tenant = app.registry.get("acme")
            prepared = tenant.system.prepared_handle(
                app._decode_query({"query": QUERY["query"]})
            )
            before = (await app.request("GET", "/stats")).payload
            cache_before = prepared.execution_cache_info()
            warm = await app.request("POST", "/answer", QUERY)
            assert warm.payload["answer_cached"] is True
            after = (await app.request("GET", "/stats")).payload
            cache_after = prepared.execution_cache_info()
            assert moved(counters(before), counters(after)) == {
                "epoch": 0,
                "answers_served": 1,
                "prepared": {"size": 0, "hits": 1, "misses": 0},
                "compiles": 0,
                "served_memory": 1,
                "served_store": 0,
                "coalescing": {"leaders": 0, "joined": 0, "inflight": 0},
                "answer_requests": 1,
            }
            assert cache_after.hits - cache_before.hits == 1
            assert cache_after.misses == cache_before.misses
            assert (
                after["tenants"]["acme"]["answered_on_loop"]
                - before["tenants"]["acme"]["answered_on_loop"]
                == 1
            )

        serve(body)

    def test_concurrent_hits_and_misses_lose_no_count(self, app):
        # Hits update a tenant's counters on the event loop while misses
        # (fresh bindings) update them on the tenant's executor thread;
        # three tenants put four threads on the cores.  With a tiny
        # switch interval, an update made outside the tenant lock would
        # get lost.
        tenants = ["t0", "t1", "t2"]
        texts = ["q(A) :- Person(A)", "q(A) :- Student(A)", "q(A) :- Grad(A)"]
        bound = "q(A) :- attends(A, cs101)"

        def answer(name, text, bindings=None):
            payload = {"tenant": name, "query": text}
            if bindings is not None:
                payload["bindings"] = bindings
            return app.request("POST", "/answer", payload)

        async def body():
            for name in tenants:
                await register(app, name)
                for text in texts + [bound]:
                    assert (await answer(name, text)).ok
            requests = []
            for index in range(600):
                name = tenants[index % len(tenants)]
                if index % 4 == 0:
                    requests.append(answer(name, bound, {"cs101": f"c{index}"}))
                else:
                    requests.append(answer(name, texts[index % len(texts)]))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                responses = await asyncio.wait_for(asyncio.gather(*requests), 60.0)
            finally:
                sys.setswitchinterval(interval)
            assert all(response.ok for response in responses)
            for name in tenants:
                tenant = app.registry.get(name)
                served = len(texts) + 1 + sum(
                    response.payload["tenant"] == name for response in responses
                )
                assert tenant.answers_served == served
                assert 0 < tenant.answered_on_loop < served
                prepared = tenant.system.prepared_cache_info()
                assert prepared.hits + prepared.misses == (
                    served + tenant.warmed_prepared
                )
                executed = 0
                for text in texts + [bound]:
                    handle = tenant.system.prepared_handle(
                        app._decode_query({"query": text})
                    )
                    info = handle.execution_cache_info()
                    executed += info.hits + info.misses
                assert executed == served

        serve(body)


class TestMemos:
    def test_a_query_text_is_parsed_once(self, app, monkeypatch):
        parsed = []
        original = app_module.parse_query

        def counting(text):
            parsed.append(text)
            return original(text)

        monkeypatch.setattr(app_module, "parse_query", counting)

        async def body():
            await register(app, "acme")
            for _ in range(3):
                assert (await app.request("POST", "/answer", QUERY)).ok
            assert parsed == [QUERY["query"]]
            for _ in range(2):
                bad = await app.request(
                    "POST", "/answer", {"tenant": "acme", "query": "q(A) :- "}
                )
                assert bad.payload["error"]["code"] == "bad-query"
            # Syntax errors are raised again, never cached.
            assert parsed == [QUERY["query"]] + ["q(A) :- "] * 2

        serve(body)

    def test_equal_valued_answer_sets_encode_by_their_own_values(self, app):
        # Constant(1) == Constant(True) == Constant(1.0), and so are sets
        # of them; each tenant must still get its own value back.
        values = {"ints": 1, "bools": True, "floats": 1.0}
        expected = {"ints": "[[1]]", "bools": "[[true]]", "floats": "[[1.0]]"}

        async def body():
            for name, value in values.items():
                await register(app, name, facts=[["Student", [value]]])
            for _ in range(2):
                for name in values:
                    response = await app.request(
                        "POST", "/answer", {"tenant": name, "query": "q(A) :- Student(A)"}
                    )
                    assert response.ok
                    assert json.dumps(response.payload["answers"]) == expected[name]
                    assert b'"answers": ' + expected[name].encode() in response.body()

        serve(body)

    def test_responses_do_not_share_rows_with_the_memo(self, app):
        async def body():
            await register(app, "acme")
            first = await app.request("POST", "/answer", QUERY)
            first.payload["answers"][0].append("tampered")
            first.payload["answers"].clear()
            second = await app.request("POST", "/answer", QUERY)
            assert second.payload["answer_cached"] is True
            assert second.payload["answers"] == [["alice"], ["bob"], ["dana"]]

        serve(body)

    def test_both_memos_stay_at_their_bounds(self, app, monkeypatch):
        monkeypatch.setattr(app_module, "MAX_PARSED_QUERIES", 3)
        monkeypatch.setattr(app_module, "MAX_ENCODED_ANSWER_SETS", 2)
        texts = [
            "q(A) :- Person(A)",
            "q(A) :- Student(A)",
            "q(A) :- Grad(A)",
            "q(A) :- Course(A)",
            "q(A) :- Professor(A)",
        ]

        async def body():
            await register(app, "acme")
            for text in texts:
                response = await app.request(
                    "POST", "/answer", {"tenant": "acme", "query": text}
                )
                assert response.ok
            # The oldest entries were evicted first.
            assert list(app._parsed_queries) == texts[-3:]
            assert len(app._encoded_answers) == 2

        serve(body)

    def test_a_long_query_text_is_parsed_every_time(self, app, monkeypatch):
        # Whitespace pads a text to any length without changing its query;
        # keeping such texts would let a client pin large request bodies.
        parsed = []
        original = app_module.parse_query

        def counting(text):
            parsed.append(len(text))
            return original(text)

        monkeypatch.setattr(app_module, "parse_query", counting)
        padded = "q(A) :- " + " " * app_module.MAX_PARSED_QUERY_CHARS + "Person(A)"

        async def body():
            await register(app, "acme")
            for _ in range(2):
                response = await app.request(
                    "POST", "/answer", {"tenant": "acme", "query": padded}
                )
                assert response.ok
                assert response.payload["answers"] == [["alice"], ["bob"], ["dana"]]
            assert parsed == [len(padded)] * 2
            assert padded not in app._parsed_queries

        serve(body)

    def test_encoded_rows_stay_at_their_bound(self, app, monkeypatch):
        monkeypatch.setattr(app_module, "MAX_ENCODED_ROWS", 4)
        rows = {
            "q(A) :- Person(A)": 3,
            "q(A) :- Grad(A)": 1,
            "q(A) :- Course(A)": 1,
            "q(A) :- Student(A)": 3,
        }

        def held() -> list[int]:
            return [len(tuples) for tuples, _ in app._encoded_answers.values()]

        async def body():
            await register(app, "acme")
            for text, count in rows.items():
                response = await app.request(
                    "POST", "/answer", {"tenant": "acme", "query": text}
                )
                assert response.ok and response.payload["count"] == count
            # Person (3 rows) went first for Course; Grad went for Student.
            assert held() == [1, 3]
            assert app._encoded_row_count == 4
            monkeypatch.setattr(app_module, "MAX_ENCODED_ROWS", 2)
            response = await app.request("POST", "/answer", QUERY)
            assert response.payload["answers"] == [["alice"], ["bob"], ["dana"]]
            # A set larger than the whole bound is served but not kept.
            assert held() == [1, 3]

        serve(body)


class TestEncoders:
    def test_rows_sort_as_with_a_sort_keys_dumps_per_row(self):
        rows = [
            ["b", 2],
            [1.5, None],
            [True, "a"],
            [False, 0.25],
            ["é", -1],
            [None, None],
            ["a", "b"],
            [10, "x"],
        ]
        tuples = frozenset(tuple(Constant(v) for v in row) for row in rows)
        assert len(tuples) == len(rows)
        old_order = sorted(rows, key=lambda row: json.dumps(row, sort_keys=True))
        assert encode_answers(tuples) == old_order
        assert json.dumps(encode_answers(tuples)) == json.dumps(old_order)

    def test_bodies_are_the_bytes_of_a_sort_keys_dumps(self):
        payload = {
            "b": [1, {"z": None, "a": [True, 1.5, "é"]}],
            "a": "text",
            "c": {"y": 2, "x": -0.0, "w": [[1], [True], [1.0]]},
        }
        expected = json.dumps(payload, sort_keys=True).encode("utf-8")
        assert ServingResponse(200, payload).body() == expected
