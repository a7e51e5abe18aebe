"""The HTTP/1.1 transport: framing, keep-alive, malformed input, shutdown."""

import asyncio
import json

from repro.serving import ServingApp, ServingClient, ServingServer, http
from repro.serving.http import MAX_BODY_BYTES

from .conftest import register, serve


async def _started_server():
    app = ServingApp()
    server = ServingServer(app)
    await server.start()
    return app, server


async def _raw_exchange(port: int, raw: bytes) -> tuple[int, dict]:
    """Send raw bytes, read one response; returns (status, payload)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split(b" ")[1])
    headers = {}
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return status, json.loads(body) if body else {}


class TestTransport:
    def test_keep_alive_serves_many_requests_on_one_connection(self):
        async def body():
            app, server = await _started_server()
            client = ServingClient("127.0.0.1", server.port)
            try:
                await register(app, "acme")
                for _ in range(5):
                    response = await client.request("GET", "/healthz")
                    assert response.status == 200
                answer = await client.request(
                    "POST",
                    "/answer",
                    {"tenant": "acme", "query": "q(A) :- Person(A)"},
                )
                assert answer.status == 200
                # All six requests flowed over one accepted connection.
                assert server.requests_served == 6
                assert len(server._connections) == 1
            finally:
                await client.aclose()
                await server.stop()

        serve(body)

    def test_connection_close_header_is_honoured(self):
        async def body():
            app, server = await _started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                payload = await reader.read()  # EOF: server closed it
                assert b"200" in payload.split(b"\r\n", 1)[0]
                writer.close()
            finally:
                await server.stop()

        serve(body)

    def test_http_1_0_defaults_to_close(self):
        async def body():
            app, server = await _started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /healthz HTTP/1.0\r\n\r\n")
                await writer.drain()
                payload = await reader.read()
                assert b"Connection: close" in payload
                writer.close()
            finally:
                await server.stop()

        serve(body)

    def test_idle_keep_alive_connection_is_closed_after_the_timeout(
        self, monkeypatch
    ):
        monkeypatch.setattr(http, "KEEPALIVE_TIMEOUT", 0.05)

        async def body():
            app, server = await _started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                await writer.drain()
                # The server keeps the connection open after answering,
                # then closes it once it sat idle for KEEPALIVE_TIMEOUT.
                payload = await asyncio.wait_for(reader.read(), timeout=5.0)
                assert b"Connection: keep-alive" in payload
                assert b'"status": "ok"' in payload
                writer.close()
            finally:
                await server.stop()

        serve(body)


class TestMalformedInput:
    def test_unparseable_json_body_is_400(self):
        async def body():
            app, server = await _started_server()
            try:
                broken = b"{not json"
                status, payload = await _raw_exchange(
                    server.port,
                    b"POST /answer HTTP/1.1\r\n"
                    b"Content-Length: " + str(len(broken)).encode() + b"\r\n"
                    b"\r\n" + broken,
                )
                assert status == 400
                assert payload["error"]["code"] == "bad-json"
            finally:
                await server.stop()

        serve(body)

    def test_oversized_body_is_413_without_reading_it(self):
        async def body():
            app, server = await _started_server()
            try:
                status, payload = await _raw_exchange(
                    server.port,
                    b"POST /answer HTTP/1.1\r\n"
                    b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode() + b"\r\n"
                    b"\r\n",
                )
                assert status == 413
                assert payload["error"]["code"] == "payload-too-large"
            finally:
                await server.stop()

        serve(body)

    def test_non_numeric_content_length_is_400(self):
        async def body():
            app, server = await _started_server()
            try:
                status, payload = await _raw_exchange(
                    server.port,
                    b"POST /answer HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
                )
                assert status == 400
                assert payload["error"]["code"] == "bad-content-length"
            finally:
                await server.stop()

        serve(body)

    def test_error_bodies_are_structured_over_the_wire(self):
        async def body():
            app, server = await _started_server()
            client = ServingClient("127.0.0.1", server.port)
            try:
                response = await client.request(
                    "POST", "/answer", {"tenant": "ghost", "query": "q(A) :- p(A)"}
                )
                assert response.status == 404
                assert set(response.payload["error"]) == {"code", "message"}
            finally:
                await client.aclose()
                await server.stop()

        serve(body)


class TestShutdown:
    def test_stop_refuses_new_connections_and_closes_the_app(self):
        async def body():
            app, server = await _started_server()
            await register(app, "acme")
            port = server.port
            await server.stop()
            with __import__("pytest").raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            # The registry was closed with the server.
            assert len(app.registry) == 0 or app._closed

        serve(body)

    def test_stop_with_idle_keepalive_connection_does_not_hang(self):
        async def body():
            app, server = await _started_server()
            client = ServingClient("127.0.0.1", server.port)
            response = await client.request("GET", "/healthz")
            assert response.status == 200
            # The connection is idle inside the keep-alive loop; stop()
            # must cancel it within the drain timeout, not wait 30s.
            await asyncio.wait_for(server.stop(drain_timeout=0.2), timeout=10)
            await client.aclose()

        serve(body)

    def test_ephemeral_ports_isolate_parallel_servers(self):
        async def body():
            _, first = await _started_server()
            _, second = await _started_server()
            try:
                assert first.port != second.port
            finally:
                await first.stop()
                await second.stop()

        serve(body)
