"""The CI smoke gates, one script: ``python benchmarks/smoke.py GATE``.

Each gate runs every one of its checks, prints one line per check and
exits 1 if any failed.  A few seconds each, so ``make strategy-smoke
serve-smoke subscribe-smoke perf-smoke`` gate every CI run.

``strategy``
    Workload S (TGD-rewrite*) compiled under the sequential and the
    threaded(4) strategy must give identical rewritings.  Threads share
    one engine, so any order-dependence in the frontier kernel's merge
    shows up here.  The exhaustive matrix is
    ``tests/integration/test_strategy_determinism.py``.
``serve``
    A workload-S tenant behind a real socket.  :data:`QUERY` answered
    over HTTP is byte-identical to ``OBDASystem.prepare(...).execute()``
    in process, and its rewriting has more than one CQ; a herd of
    :data:`HERD` concurrent cold requests for :data:`HERD_QUERY` compiles
    once and gets one answer set; the warm repeat of :data:`QUERY` is
    served from memory and the answer cache.
``subscribe``
    The standing-query lifecycle over a socket: subscribe to
    :data:`QUERY` (cursor plus snapshot); ``POST /data``, then poll the
    delta with the cursor on the query string; snapshot plus delta is
    byte-identical to a fresh ``/answer``; a repeat poll is empty; after
    unsubscribing, a poll is a 404.
``perf``
    1. ``strategy="auto"`` compiles the paper's running example and the
       Figure 1 queries to the sequential rewritings.
    2. The flat canonical-key kernel gives the reference kernel's keys and
       is at least :data:`SPEEDUP_FLOOR` times as fast (best of
       :data:`REPEATS`).
    3. P5 under TGD-rewrite* gives the same rewritings with memoisation on
       and off, and the memoised engine runs at most
       :data:`COVERAGE_SEARCH_CEILING` coverage chain searches.
    4. :data:`CHANGE_LOG_MUTATIONS` seeded single-fact mutations of S on
       SQLite are patched in by both change-log consumers: exactly
       :data:`CHANGE_LOG_COUNTS` full/incremental snapshot loads and
       maintainer refreshes, with ``poll()`` answers equal to
       ``execute()`` answers after every step.
    5. :data:`DELTA_RULES_ROUNDS` seeded churn rounds on the Vicodi ABox,
       each polling q1-q4, plan exactly :data:`DELTA_RULES_PLANS` delta
       rules, at most one per rule, and the maintained answers equal
       re-evaluation at the end.

    Checks 3-5 count work, so they are exact on any host; check 2 is the
    only timing.  ``benchmarks/bench_hotpaths.py`` (``make bench-json``)
    is the exhaustive form of checks 1 and 2.

The script is import-safe for test collectors.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
import traceback
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.api import OBDASystem  # noqa: E402
from repro.core.rewriter import TGDRewriter  # noqa: E402
from repro.database.evaluator import evaluate_ucq  # noqa: E402
from repro.database.instance import database_from_tuples  # noqa: E402
from repro.logic.atoms import Atom  # noqa: E402
from repro.logic.canonical import (  # noqa: E402
    canonical_fingerprint,
    canonical_fingerprint_reference,
)
from repro.queries.parser import parse_query  # noqa: E402
from repro.scheduling import AutoStrategy, ThreadedStrategy  # noqa: E402
from repro.serving import ServingApp, ServingClient, ServingServer  # noqa: E402
from repro.serving.app import encode_answers  # noqa: E402
from repro.workloads import get_workload  # noqa: E402
from repro.workloads.stock_exchange_example import (  # noqa: E402
    figure1_queries,
    running_query,
    theory,
)

WORKLOAD = "S"
TENANT = "smoke"
#: The serve and subscribe tenant's facts.  None of them is stored under
#: ``FinantialInstrument``: S's TBox derives all three of :data:`QUERY`'s
#: answers (``Stock``, ``Bond`` and the range of ``hasStock`` are
#: financial instruments).
FACTS = [
    ["Stock", ["acme_stock"]],
    ["Bond", ["acme_bond"]],
    ["hasStock", ["ann", "xcorp_stock"]],
]
#: Rewrites to 11 CQs on S; serve's byte-identity and warm-repeat query
#: and subscribe's standing query.
QUERY = "q(A) :- FinantialInstrument(A)"
#: Rewrites to 7 CQs on S, so the herd waits on a real compile.
HERD_QUERY = "q(A) :- Person(A)"
HERD = 50

REPEATS = 5
SPEEDUP_FLOOR = 1.0
#: Coverage chain searches of a memoised TGD-rewrite* compile of P5: one
#: per distinct pair shape the reachability table lets through (22 when
#: pinned; the unmemoised engine runs 1118).
COVERAGE_SEARCH_CEILING = 22
#: Check 4's seeded mutation script on workload S, and the pinned
#: (full, incremental) counts of both change-log consumers: one initial
#: full load/refresh, then one incremental patch per mutation.
CHANGE_LOG_MUTATIONS = 20
CHANGE_LOG_SEED = 7
CHANGE_LOG_COUNTS = (1, CHANGE_LOG_MUTATIONS)
#: Check 5's seeded churn script on Vicodi, and the pinned number of
#: delta-rule plans it makes (planning each pinned body per changed fact
#: instead takes 1,928 plans).
DELTA_RULES_QUERIES = ("q1", "q2", "q3", "q4")
DELTA_RULES_ROUNDS = 20
DELTA_RULES_SEED = 15
DELTA_RULES_PLANS = 774


# -- the shared pieces ---------------------------------------------------


class Checks:
    """The check recorder: one printed line per check, exit 1 if any failed."""

    def __init__(self) -> None:
        self.outcomes: list[bool] = []

    def __call__(self, ok: bool, line: str, detail: str = "") -> None:
        """Record one check; *detail* goes to stderr if it failed."""
        print(f"{line} — {'ok' if ok else 'FAILED'}", flush=True)
        self.outcomes.append(bool(ok))
        if detail and not ok:
            print(detail, file=sys.stderr)

    def run(self, *steps) -> int:
        """Run every step, even after a failed or crashed one; 1 if any failed.

        A step is a function that records its checks through this object.
        """
        for step in steps:
            try:
                step(self)
            except Exception:
                traceback.print_exc()
                self(False, f"{step.__name__} crashed")
        failed = self.outcomes.count(False)
        print(
            f"# {len(self.outcomes) - failed} of {len(self.outcomes)} checks passed",
            file=sys.stderr if failed else sys.stdout,
        )
        return 1 if failed else 0


def named(workload) -> list:
    """A Table 1 workload's queries as ``(name, query)`` pairs."""
    return [(name, workload.query(name)) for name in workload.query_names]


def example_queries() -> list:
    """The paper's running example and its Figure 1 queries, named."""
    return [("running", running_query())] + [
        (f"figure1-q{i}", query) for i, query in enumerate(figure1_queries())
    ]


def compare(check, label: str, queries, engines: dict) -> None:
    """The rewriting-identity check of two engines, one line per query.

    *engines* maps a display name to each engine, the reference first.
    Identical means the same size, the same canonical keys and the same
    members in the same order.
    """
    (base_name, base), (other_name, other) = engines.items()
    for name, query in queries:
        expected, actual = base.rewrite(query), other.rewrite(query)
        identical = (
            len(actual.ucq) == len(expected.ucq)
            and [m.canonical_key for m in actual.ucq]
            == [m.canonical_key for m in expected.ucq]
            and actual.ucq.queries == expected.ucq.queries
        )
        check(
            identical,
            f"{label}/{name}: {base_name} {len(expected.ucq)} CQs, "
            f"{other_name} {len(actual.ucq)} CQs",
        )


def fact_sampler(database, rng: random.Random):
    """Random facts over *database*'s current predicates and constants."""
    predicates = sorted(database.predicates(), key=lambda p: (p.name, p.arity))
    constants = sorted(database.constants(), key=lambda c: repr(c.value))

    def random_fact() -> Atom:
        predicate = rng.choice(predicates)
        return Atom(
            predicate, tuple(rng.choice(constants) for _ in range(predicate.arity))
        )

    return random_fact


def answer(endpoint, query: str):
    """``POST /answer`` of *query* for the tenant, in process or over HTTP."""
    return endpoint.request("POST", "/answer", {"tenant": TENANT, "query": query})


async def expect(request, status: int) -> dict:
    """The payload of *request*'s response; raises unless it has *status*."""
    response = await request
    if response.status != status:
        raise RuntimeError(
            f"expected {status}, got {response.status}: {response.payload}"
        )
    return response.payload


def on_tenant(steps):
    """A gate step that runs ``steps(check, app, client)`` on a live tenant.

    Boots a :class:`ServingApp` behind a :class:`ServingServer` on an
    ephemeral port, opens a :class:`ServingClient`, registers
    :data:`TENANT` on :data:`WORKLOAD` with :data:`FACTS`, and tears it
    all down afterwards.
    """

    async def serving(check) -> None:
        app = ServingApp()
        server = ServingServer(app)
        await server.start()
        client = ServingClient("127.0.0.1", server.port)
        try:
            registration = {"tenant": TENANT, "workload": WORKLOAD, "facts": FACTS}
            await expect(client.request("POST", "/register-theory", registration), 201)
            await steps(check, app, client)
        finally:
            await client.aclose()
            await server.stop()

    def step(check) -> None:
        asyncio.run(serving(check))

    step.__name__ = steps.__name__
    return step


# -- the gates -----------------------------------------------------------


def strategy_identity(check) -> None:
    """S q1-q5 under TGD-rewrite*, sequential against threaded(4)."""
    workload = get_workload(WORKLOAD)
    rules = workload.theory.tgds
    with ThreadedStrategy(threads=4) as threaded:
        engines = {
            "sequential": TGDRewriter(rules, use_elimination=True),
            "threaded": TGDRewriter(rules, use_elimination=True, strategy=threaded),
        }
        compare(check, WORKLOAD, named(workload), engines)


async def serve_checks(check, app, client) -> None:
    """Byte identity through the TBox, a coalesced cold herd, a warm repeat."""
    response = await answer(client, QUERY)
    served = json.dumps(response.payload["answers"], sort_keys=True)
    workload = get_workload(WORKLOAD)
    with OBDASystem(workload.theory, database=database_from_tuples(FACTS)) as system:
        prepared = system.prepare(parse_query(QUERY))
        direct = json.dumps(encode_answers(prepared.execute().tuples), sort_keys=True)
        size = len(prepared.rewriting.ucq)
    check(
        served == direct and size > 1,
        f"{WORKLOAD}/{QUERY}: {response.payload['count']} answers over HTTP "
        f"from {size} CQs, byte-identical to in-process",
        f"  served: {served}\n  direct: {direct}",
    )

    artifacts = app.registry.get(TENANT).artifacts
    compiles_before = artifacts.compiles
    herd = await asyncio.gather(*(answer(app, HERD_QUERY) for _ in range(HERD)))
    compiles = artifacts.compiles - compiles_before
    answer_sets = {json.dumps(r.payload["answers"], sort_keys=True) for r in herd}
    check(
        compiles == 1 and len(answer_sets) == 1,
        f"coalescing: {HERD} concurrent cold requests for {HERD_QUERY} -> "
        f"{compiles} engine compile(s), {len(answer_sets)} distinct answer set(s)",
    )

    payload = (await answer(client, QUERY)).payload
    check(
        payload["source"] == "memory" and payload["answer_cached"],
        f"warm repeat: source={payload['source']}, "
        f"answer_cached={payload['answer_cached']}",
    )


async def subscribe_checks(check, app, client) -> None:
    """Subscribe, mutate, poll, compose, poll again, unsubscribe."""
    subscription = await expect(
        client.request("POST", f"/tenants/{TENANT}/subscribe", {"query": QUERY}), 201
    )
    cursor, snapshot = subscription["cursor"], subscription["answers"]
    check(
        bool(cursor) and len(snapshot) == subscription["count"],
        f"subscribed {cursor} to {WORKLOAD}/{QUERY}: "
        f"{subscription['count']} answers in the snapshot",
    )

    changes = f"/tenants/{TENANT}/changes?cursor={cursor}"
    mutation = {
        "tenant": TENANT,
        "add": [["Stock", ["initech"]]],
        "remove": [["Bond", ["acme_bond"]]],
    }
    await expect(client.request("POST", "/data", mutation), 200)
    delta = await expect(client.request("GET", changes), 200)
    added, removed = delta["added"], delta["removed"]
    check(
        added == [["initech"]] and removed == [["acme_bond"]],
        f"poll after mutation: +{added} -{removed} (mode {delta['mode']})",
    )

    composed = sorted(
        [row for row in snapshot + added if row not in removed],
        key=lambda row: json.dumps(row, sort_keys=True),
    )
    direct = (await answer(client, QUERY)).payload["answers"]
    check(
        json.dumps(composed) == json.dumps(direct),
        f"delta-composed answers byte-identical to /answer ({len(direct)} rows)",
        f"  composed: {composed}\n  answered: {direct}",
    )

    response = await client.request("GET", changes)
    check(
        response.status == 200
        and response.payload["added"] == []
        and response.payload["removed"] == [],
        "repeat poll is an empty noop",
    )

    response = await client.request(
        "POST", f"/tenants/{TENANT}/unsubscribe", {"cursor": cursor}
    )
    stale = await client.request("GET", changes)
    check(
        response.status == 200 and stale.status == 404,
        "unsubscribed; stale poll is 404",
    )


def auto_identity(check) -> None:
    """Perf check 1: auto against sequential on the running example."""
    rules = theory().tgds
    with AutoStrategy() as auto:
        engines = {
            "sequential": TGDRewriter(rules),
            "auto": TGDRewriter(rules, strategy=auto),
        }
        compare(check, "stock-exchange", example_queries(), engines)


def best_of(function) -> float:
    """The fastest of :data:`REPEATS` timed calls, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def flat_kernel_floor(check) -> None:
    """Perf check 2: flat canonical keys equal the reference's, no slower."""
    engine = TGDRewriter(theory().tgds)
    corpus = [
        member for _, query in example_queries() for member in engine.rewrite(query).ucq
    ]
    same = [canonical_fingerprint(q) for q in corpus] == [
        canonical_fingerprint_reference(q) for q in corpus
    ]
    reference = best_of(lambda: [canonical_fingerprint_reference(q) for q in corpus])
    flat = best_of(lambda: [canonical_fingerprint(q) for q in corpus])
    speedup = reference / flat if flat > 0 else float("inf")
    check(
        same and speedup >= SPEEDUP_FLOOR,
        f"canonical keys: {len(corpus)} CQs, flat keys "
        f"{'equal' if same else 'DIFFER FROM'} the reference's; reference "
        f"{reference:.4f}s -> flat {flat:.4f}s (speedup {speedup:.2f}x, "
        f"floor {SPEEDUP_FLOOR}x)",
    )


def coverage_memo_ceiling(check) -> None:
    """Perf check 3: memo on and off agree on P5, within the search ceiling."""
    workload = get_workload("P5")
    rules = workload.theory.tgds
    memoised = TGDRewriter(rules, use_elimination=True)
    plain = TGDRewriter(rules, use_elimination=True, use_memoisation=False)
    compare(check, "P5", named(workload), {"memo on": memoised, "memo off": plain})
    searches = memoised.eliminator.checker.chain_searches
    check(
        searches <= COVERAGE_SEARCH_CEILING,
        f"coverage chain searches on P5: memo on {searches}, off "
        f"{plain.eliminator.checker.chain_searches} "
        f"(ceiling {COVERAGE_SEARCH_CEILING})",
    )


def change_log_counts(check) -> None:
    """Perf check 4: single-fact mutations are patched in, never rebuilt."""
    workload = get_workload("S")
    with OBDASystem(
        workload.theory, database=workload.abox(), backend="sqlite"
    ) as system:
        database = system.database
        prepared = system.prepare(workload.query("q2"))
        rng = random.Random(CHANGE_LOG_SEED)
        random_fact = fact_sampler(database, rng)
        agreed = prepared.execute().tuples == frozenset(prepared.poll().added)
        for _ in range(CHANGE_LOG_MUTATIONS):
            changed = False
            while not changed:  # retry until the fact set really changes
                facts = sorted(database.facts, key=repr)
                if facts and rng.random() < 0.4:
                    changed = database.remove(rng.choice(facts))
                else:
                    changed = database.add(random_fact())
            answers = prepared.execute().tuples
            prepared.poll()
            agreed = agreed and answers == prepared.maintained_answers
        backend = system.backend_for("sqlite")
        counters = prepared.maintainer().counters
        loads = (backend.full_loads, backend.incremental_loads)
        refreshes = (counters.full_refreshes, counters.incremental_refreshes)
    check(
        agreed and loads == CHANGE_LOG_COUNTS and refreshes == CHANGE_LOG_COUNTS,
        f"change-log reader on S (sqlite, {CHANGE_LOG_MUTATIONS} mutations): "
        f"full/incremental loads {loads[0]}/{loads[1]}, refreshes "
        f"{refreshes[0]}/{refreshes[1]} (pinned {CHANGE_LOG_COUNTS[0]}/"
        f"{CHANGE_LOG_COUNTS[1]}); poll() and execute() "
        f"{'agree' if agreed else 'DIVERGE'}",
    )


def delta_rule_plans(check) -> None:
    """Perf check 5: churn polls reuse their delta-rule plans."""
    workload = get_workload("V")
    with OBDASystem(workload.theory, database=workload.abox()) as system:
        database = system.database
        prepared = [
            system.prepare(workload.query(name)) for name in DELTA_RULES_QUERIES
        ]
        rules = sum(
            len(query.body) + 1
            for handle in prepared
            for query in handle.rewriting.ucq
        )
        for handle in prepared:
            handle.poll()
        rng = random.Random(DELTA_RULES_SEED)
        random_fact = fact_sampler(database, rng)
        for _ in range(DELTA_RULES_ROUNDS):
            for _ in range(4):
                database.remove(rng.choice(sorted(database.facts, key=repr)))
            for _ in range(4):
                database.add(random_fact())
            for handle in prepared:
                handle.poll()
        plans = sum(handle.maintainer().counters.delta_plans for handle in prepared)
        agreed = all(
            handle.maintained_answers
            == evaluate_ucq(handle.rewriting.ucq, database)
            for handle in prepared
        )
    check(
        agreed and plans <= rules and plans == DELTA_RULES_PLANS,
        f"delta rules on V q1-q4 ({DELTA_RULES_ROUNDS} rounds of 4+4 "
        f"mutations): {plans} plans of {rules} rules (pinned "
        f"{DELTA_RULES_PLANS}); maintained answers "
        f"{'equal' if agreed else 'DIFFER FROM'} re-evaluation",
    )


GATES = {
    "strategy": (strategy_identity,),
    "serve": (on_tenant(serve_checks),),
    "subscribe": (on_tenant(subscribe_checks),),
    "perf": (
        auto_identity,
        flat_kernel_floor,
        coverage_memo_ceiling,
        change_log_counts,
        delta_rule_plans,
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one CI smoke gate.")
    parser.add_argument("gate", choices=GATES)
    return Checks().run(*GATES[parser.parse_args(argv).gate])


if __name__ == "__main__":
    raise SystemExit(main())
