"""Shared fixtures of the serving-tier tests.

The suite drives the real :class:`~repro.serving.app.ServingApp` —
in-process for contract/concurrency tests (no sockets, fully
deterministic) and behind a real :class:`~repro.serving.http.ServingServer`
port for the transport tests.  There is no pytest-asyncio in the
dependency set (the library is stdlib-only); async test bodies run under
a plain ``asyncio.run`` via the ``serve`` helper.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.serving import FaultPlan, ServingApp

#: A small university-shaped DL-Lite TBox (textual syntax): enough
#: hierarchy for multi-CQ rewritings, cheap enough to compile in
#: milliseconds.  Grad [= Student [= Person, attendance both ways.
TBOX = """
Student [= Person
Grad [= Student
exists attends [= Student
exists attends- [= Course
Course [= exists taughtBy
"""

#: Facts matching TBOX: two students (one by attendance), one course.
FACTS = [
    ["Student", ["alice"]],
    ["Grad", ["dana"]],
    ["attends", ["bob", "cs101"]],
    ["Professor", ["eve"]],
]


class OnGeneration(FaultPlan):
    """A fault plan whose one fault is *hook*, run at every generation boundary.

    A serving compile calls ``hook(generation)`` before the engine drains
    each frontier generation, after its deadline and shutdown checks,
    with the number of generations already drained: a hook that sleeps
    makes a slow compile, one that waits holds it, one that raises fails
    or kills it.
    """

    def __init__(self, hook) -> None:
        super().__init__()
        self._hook = hook

    def generation_fault(self, digest: str):
        return self._hook


def slow_generations(delay: float) -> OnGeneration:
    """Sleep *delay* seconds before each frontier generation."""
    return OnGeneration(lambda generation: time.sleep(delay))


def held_generations(started, release) -> OnGeneration:
    """Set *started*, then hold each generation until *release* is set."""

    def hold(generation: int) -> None:
        started.set()
        assert release.wait(timeout=30.0), "the held compile was never released"

    return OnGeneration(hold)


def serve(coroutine_function, *args, **kwargs):
    """Run one async test body to completion on a fresh event loop."""
    return asyncio.run(coroutine_function(*args, **kwargs))


async def register(app: ServingApp, name: str, **extra):
    """Register a TBOX tenant; returns the 201 payload."""
    payload = {"tenant": name, "tbox": TBOX, "facts": FACTS}
    payload.update(extra)
    response = await app.request("POST", "/register-theory", payload)
    assert response.status == 201, response.payload
    return response.payload


@pytest.fixture()
def app():
    """A memory-only ServingApp, closed after the test."""
    application = ServingApp()
    yield application
    application.close()
