"""The asyncio socket layer: just enough HTTP/1.1 for the serving app.

:class:`ServingServer` puts a :class:`~repro.serving.app.ServingApp` on a
TCP port with nothing beyond the standard library: request-line + header
parsing, ``Content-Length`` bodies, keep-alive connections, JSON in and
JSON out.  It is deliberately minimal — no chunked encoding, no TLS, no
pipelining — because the serving contracts live in :class:`ServingApp`
and this layer only carries them; anything fancier belongs behind a real
reverse proxy.

:class:`ServingClient` is the matching minimal client (one keep-alive
connection, blocking-per-request semantics) used by the load benchmark
and the socket-level tests.  It retries connection failures and 503s
with jittered exponential backoff (honoring ``Retry-After``) under a
per-request retry budget, so transient resets and load shedding don't
fail a benchmark run.

Graceful shutdown: :meth:`ServingServer.stop` closes the listening
socket, waits briefly for in-flight connection handlers, cancels any
stragglers, then closes the app (draining the tenant/compile executors
and the persistent store).
"""

from __future__ import annotations

import asyncio
import json
import random
from urllib.parse import parse_qsl

from .app import ServingApp, ServingResponse

#: Hard bound on request bodies (16 MiB) — admission control against a
#: client streaming an unbounded ontology at the parser.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: How long an idle keep-alive connection may sit between requests.
KEEPALIVE_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _encode_response(response: ServingResponse, keep_alive: bool) -> bytes:
    body = response.body()
    reason = _REASONS.get(response.status, "Unknown")
    # Retryable structured errors carry their retry hint in the body;
    # mirror it as the standard header so plain HTTP clients see it too.
    retry_after = ""
    error = response.payload.get("error")
    if isinstance(error, dict) and "retry_after" in error:
        retry_after = f"Retry-After: {max(0.0, float(error['retry_after'])):.3f}\r\n"
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{retry_after}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


class ServingServer:
    """Serve a :class:`ServingApp` over HTTP/1.1 on a TCP port.

    ``port=0`` binds an ephemeral port (tests); the bound port is
    available as :attr:`port` after :meth:`start`.  The server owns the
    app for shutdown purposes: :meth:`stop` closes both.
    """

    def __init__(self, app: ServingApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self.requests_served = 0

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, drain, close the app."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            done, pending = await asyncio.wait(
                self._connections, timeout=drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self.app.aclose()

    async def serve_forever(self) -> None:
        """Block until cancelled (the ``repro serve`` main loop)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    async with asyncio.timeout(KEEPALIVE_TIMEOUT):
                        request = await self._read_request(reader)
                except TimeoutError:
                    break
                if request is None:
                    break
                method, path, payload, request_headers, keep_alive, parse_error = request
                if parse_error is not None:
                    response = ServingResponse(
                        parse_error[0],
                        {"error": {"code": parse_error[1], "message": parse_error[2]}},
                    )
                    keep_alive = False
                else:
                    response = await self.app.request(
                        method, path, payload, headers=request_headers
                    )
                self.requests_served += 1
                writer.write(_encode_response(response, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean EOF.

        Returns ``(method, path, payload, headers, keep_alive,
        parse_error)`` where *headers* maps lower-cased names to values
        (the app honors ``x-deadline-ms``) and *parse_error* is ``None``
        or ``(status, code, message)`` for malformed input the app never
        sees.
        """
        try:
            request_line = await reader.readline()
        except (ValueError, ConnectionError):
            return None
        if not request_line:
            return None
        try:
            method, target, version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            return "GET", "/", None, {}, False, (400, "bad-request-line", "unreadable request line")
        path, _, query_string = target.partition("?")
        # Query parameters (``GET /tenants/x/changes?cursor=sub-1``) merge
        # into the payload below; an explicit JSON body wins on conflicts.
        params = (
            dict(parse_qsl(query_string, keep_blank_values=True))
            if query_string
            else None
        )

        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            if b":" in line:
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()

        keep_alive = version.upper() != "HTTP/1.0"
        if headers.get("connection", "").lower() == "close":
            keep_alive = False

        payload = None
        length_header = headers.get("content-length")
        if length_header is not None:
            try:
                length = int(length_header)
            except ValueError:
                return method, path, None, headers, False, (
                    400, "bad-content-length", "Content-Length is not an integer"
                )
            if length > MAX_BODY_BYTES:
                return method, path, None, headers, False, (
                    413, "payload-too-large",
                    f"request body exceeds {MAX_BODY_BYTES} bytes",
                )
            if length:
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    return None
                try:
                    payload = json.loads(body)
                except json.JSONDecodeError as error:
                    return method, path, None, headers, keep_alive, (
                        400, "bad-json", f"request body is not JSON: {error}"
                    )
        if params:
            if payload is None:
                payload = params
            elif isinstance(payload, dict):
                payload = {**params, **payload}
        return method, path, payload, headers, keep_alive, None


class ServingClient:
    """A minimal keep-alive HTTP/1.1 client for the serving endpoints.

    One TCP connection, one request in flight at a time.  Used by the
    load benchmark (many client instances = many concurrent connections)
    and the socket-level tests; not a general HTTP client.

    Transient failures are retried under a budget of *retries* extra
    attempts: connection errors reconnect and retry, 503 responses (load
    shed, open circuit, backend hiccup — all marked retryable by the
    server) are retried after the server's ``Retry-After`` hint capped at
    *max_backoff*, or a jittered exponential backoff when the hint is
    absent.  The jitter stream is seeded per client, so a seeded harness
    (chaos, benchmarks) replays identical schedules.  ``retries=0``
    restores the PR 7 fail-fast behaviour.
    """

    def __init__(
        self,
        host: str,
        port: int,
        retries: int = 3,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        seed: int = 0,
    ):
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.retried = 0
        self._jitter = random.Random(seed)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure_connected(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    def _delay(self, attempt: int, retry_after: float | None) -> float:
        """Backoff before retry *attempt*: server hint or jittered exp."""
        if retry_after is not None:
            return min(max(retry_after, 0.0), self.max_backoff)
        delay = min(self.backoff * (2**attempt), self.max_backoff)
        return delay * (0.5 + 0.5 * self._jitter.random())

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> ServingResponse:
        """Send one request; returns the decoded :class:`ServingResponse`.

        *headers* adds extra request headers (e.g. ``X-Deadline-Ms``).
        Connection errors and 503s are retried per the client's budget;
        other statuses — including 5xx that are not marked retryable —
        are returned as-is.
        """
        attempt = 0
        while True:
            try:
                response = await self._attempt(method, path, payload, headers)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await self.aclose()
                if attempt >= self.retries:
                    raise
                retry_after = None
            else:
                if response.status != 503 or attempt >= self.retries:
                    return response
                error = response.payload.get("error", {})
                retry_after = (
                    error.get("retry_after") if isinstance(error, dict) else None
                )
            self.retried += 1
            await asyncio.sleep(self._delay(attempt, retry_after))
            attempt += 1

    async def _attempt(
        self,
        method: str,
        path: str,
        payload: dict | None,
        extra_headers: dict | None,
    ) -> ServingResponse:
        await self._ensure_connected()
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
        )
        head = (
            f"{method.upper()} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"\r\n"
        )
        self._writer.write(head.encode("ascii") + body)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("ascii").strip().split(" ", 2)
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b"{}"
        if headers.get("connection", "").lower() == "close":
            await self.aclose()
        return ServingResponse(status, json.loads(raw))

    async def aclose(self) -> None:
        """Close the connection (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None
