"""The CI smoke gates, one script: ``python benchmarks/smoke.py GATE``.

Each gate runs every one of its checks, prints one line per check and
exits 1 if any failed.  A few seconds each, so ``make strategy-smoke
serve-smoke subscribe-smoke perf-smoke`` gate every CI run.

``strategy``
    Workload S (TGD-rewrite*) compiled sequentially and through a
    threaded(4) strategy passed to each run must give identical
    rewritings.  Threads share one engine, so any order-dependence in
    the frontier kernel's merge shows up here.  The exhaustive matrix is
    ``tests/integration/test_strategy_determinism.py``.
``serve``
    A workload-S tenant behind a real socket.  :data:`QUERY` answered
    over HTTP is byte-identical to ``OBDASystem.prepare(...).execute()``
    in process, and its rewriting has more than one CQ; a herd of
    :data:`HERD` concurrent cold requests for :data:`HERD_QUERY` compiles
    once and gets one answer set; the warm repeat of :data:`QUERY` is
    served from memory and the answer cache, on the event loop (the
    tenant's ``answered_on_loop`` count in ``/stats`` moves by one).
``subscribe``
    The standing-query lifecycle over a socket: subscribe to
    :data:`QUERY` (cursor plus snapshot); ``POST /data``, then poll the
    delta with the cursor on the query string; snapshot plus delta is
    byte-identical to a fresh ``/answer``; a repeat poll is empty; after
    unsubscribing, a poll is a 404.
``perf``
    1. The running example and the Figure 1 queries, each rewritten
       through an ``auto`` strategy (``rewrite(query, strategy=auto)``),
       give the sequential rewritings.
    2. The flat canonical-key kernel gives the reference kernel's keys and
       executes no more bytecode than the reference doing so
       (:func:`executed_bytecode`).
    3. P5 under TGD-rewrite*, on the per-CQ reference kernel
       (:func:`per_cq_kernel`), gives the same rewritings with
       memoisation on and off; the memoised engine runs at most
       :data:`COVERAGE_SEARCH_CEILING` coverage chain searches and exactly
       :data:`ELIMINATION_RUNS` elimination runs, the unmemoised one
       eliminates every candidate that is not a dead end plus every input
       query, and both drop exactly :data:`DEAD_END_DROPS` dead ends.
    4. :data:`CHANGE_LOG_MUTATIONS` seeded single-fact mutations of S on
       SQLite are patched in by both change-log consumers: exactly
       :data:`CHANGE_LOG_COUNTS` full/incremental snapshot loads and
       maintainer refreshes, with ``poll()`` answers equal to
       ``execute()`` answers after every step.
    5. :data:`DELTA_RULES_ROUNDS` seeded churn rounds on the Vicodi ABox,
       each polling q1-q4, plan exactly :data:`DELTA_RULES_PLANS` delta
       rules, at most one per rule (a join has one rule per body position
       and one rederive rule), and the maintained answers equal
       re-evaluation at the end.
    6. The 25 Table 1 rewritings factor into exactly
       :data:`FACTORED_JOINS` joins over predicate unions, and on a seeded
       ABox per ontology each rewriting's ``execute()``, and each of its
       joins alone, equals the union of ``execute_disjunct()`` (one
       disjunct at a time) over the disjuncts it stands for.
    7. :data:`CONSISTENCY_MUTATIONS` seeded single-fact mutations of U's
       ABox, each followed by ``is_consistent()``, give a fresh system's
       verdict every time, and the negative constraints' maintained
       answer sets refresh exactly :data:`CONSISTENCY_REFRESHES`
       full/incremental times.
    8. The 25 Table 1 compiles under serving's options, one engine per
       ontology, expand exactly :data:`TABLE1_EXPANSIONS` union-CQs
       (:mod:`repro.core.closures`), and every rewriting equals the per-CQ
       reference kernel's as a set; so does :data:`SPLIT_QUERY`'s, a
       union-CQ that NC pruning must split.

    Checks 2-8 count work or compare answers, so they are exact on any
    host; no check times anything.  ``benchmarks/bench_hotpaths.py``
    (``make bench-json``) is the exhaustive form of checks 1 and 2, with
    timings.

The script is import-safe for test collectors.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import traceback
from contextlib import contextmanager
from functools import partial
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.api import OBDASystem, resolve_engine_options  # noqa: E402
from repro.core.closures import RenamingClosures  # noqa: E402
from repro.core.rewriter import TGDRewriter  # noqa: E402
from repro.database.evaluator import (  # noqa: E402
    QueryEvaluator,
    compile_join,
    evaluate_ucq,
)
from repro.database.generator import DatabaseGenerator  # noqa: E402
from repro.database.instance import (  # noqa: E402
    RelationalInstance,
    database_from_tuples,
)
from repro.incremental.maintain import MaintainedAnswerSet  # noqa: E402
from repro.logic.atoms import Atom  # noqa: E402
from repro.logic.canonical import (  # noqa: E402
    canonical_fingerprint,
    canonical_fingerprint_reference,
)
from repro.queries.parser import parse_query  # noqa: E402
from repro.queries.ucq import QuerySet  # noqa: E402
from repro.scheduling import (  # noqa: E402
    AutoStrategy,
    SequentialStrategy,
    ThreadedStrategy,
)
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

#: Coverage chain searches of a memoised TGD-rewrite* compile of P5: one
#: per distinct pair shape the reachability table lets through (the
#: unmemoised engine runs 230).
COVERAGE_SEARCH_CEILING = 12
#: Elimination runs of the same memoised compile: each run reduces its
#: query, then each candidate that is not a dead end and whose exact key
#: the run has not yet seen to eliminate nothing (the unmemoised engine
#: reduces every candidate that is not a dead end, plus the 5 queries:
#: 1,928 - 843 + 5 = 1,090 runs).
ELIMINATION_RUNS = 455
#: Dead-end candidates of the same compile, memoised or not: P5's
#: multi-head rule is normalised through an internal predicate, and the
#: candidates whose atom over it can never be satisfied are dropped
#: before they are built (``repro.core.dead_ends``).
DEAD_END_DROPS = 843
#: Check 4's seeded mutation script on workload S, and the pinned
#: (full, incremental) counts of both change-log consumers: one initial
#: full load/refresh, then one incremental patch per mutation.
CHANGE_LOG_MUTATIONS = 20
CHANGE_LOG_SEED = 7
CHANGE_LOG_COUNTS = (1, CHANGE_LOG_MUTATIONS)
#: Check 5's seeded churn script on Vicodi, and the pinned number of
#: delta-rule plans it makes.  q1-q4 factor into 5 joins with 17 rules
#: (one per body position plus one rederive rule, per join).  Only 15 are
#: ever planned: q4's second join, ``{hasRole|hasFounder}(W, W),
#: {Flag|...}(W)``, never seeds its rule pinning the hasRole atom or its
#: rederive rule, because no fact or answer of the script holds two equal
#: values, and a rule is compiled only once a seed unifies.
DELTA_RULES_QUERIES = ("q1", "q2", "q3", "q4")
DELTA_RULES_ROUNDS = 20
DELTA_RULES_SEED = 15
DELTA_RULES_PLANS = 15
#: Joins the 766 CQs of the 25 Table 1 rewritings factor into, and check
#: 6's ABox: the ``DatabaseGenerator`` shape of ``perfbench``, 25 facts
#: per relation.
TABLE1 = ("V", "S", "U", "A", "P5")
FACTORED_JOINS = 96
FACTORING_SEED = 6
FACTORING_FACTS = 25
#: Queries check 8's 25 Table 1 compiles expand (``processed_queries``):
#: union-CQs, each standing for the cross product of its atoms'
#: renaming closures (846 CQs for the per-CQ kernel).
TABLE1_EXPANSIONS = 199
#: Check 8's split case: Flexible-Time-Unit and Event have 96 members,
#: but under NC pruning ``Location(A), Event(A)`` violates vicodi#55 and
#: the 14 members below Location are never reached: 81 CQs.
SPLIT_QUERY = "q(A) :- Flexible-Time-Unit(A), Event(A)"
#: Check 7's seeded mutation script on workload U, and the pinned
#: (full, incremental) refreshes of the answer sets of U's 2 negative
#: constraints: one full refresh each at the first check, then one
#: incremental refresh each per mutation.  At this seed the verdict
#: changes 5 times, so violations are both made and repaired.
CONSISTENCY_MUTATIONS = 20
CONSISTENCY_SEED = 22
CONSISTENCY_REFRESHES = (2, 2 * CONSISTENCY_MUTATIONS)


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


@contextmanager
def per_cq_kernel():
    """Engines built and run inside are the per-CQ reference kernel.

    Every renaming closure is a one-predicate union, so each renaming
    rule resolves one atom at a time.
    """
    table = RenamingClosures.__dict__["table"]
    RenamingClosures.table = {}
    try:
        yield
    finally:
        RenamingClosures.table = table


def same_members(left, right) -> bool:
    """``True`` iff two UCQs hold the same CQs up to variable renaming."""
    store = QuerySet(left)
    return len(store) == len(left) == len(right) and all(
        store.find_variant(member) is not None for member in right
    )


def named(workload) -> list:
    """A Table 1 workload's queries as ``(name, query)`` pairs."""
    return [(name, workload.query(name)) for name in workload.query_names]


def example_queries() -> list:
    """The paper's running example and its Figure 1 queries, named."""
    return [("running", running_query())] + [
        (f"figure1-q{i}", query) for i, query in enumerate(figure1_queries())
    ]


def compare(check, label: str, queries, rewriters: dict) -> list:
    """The rewriting-identity check of two rewrite functions, one line per query.

    *rewriters* maps a display name to each function ``query -> result``,
    the reference first.  Identical means the same size, the same
    canonical keys and the same members in the same order.  Returns each
    query's pair of results.
    """
    (base_name, base), (other_name, other) = rewriters.items()
    results = []
    for name, query in queries:
        expected, actual = base(query), other(query)
        results.append((expected, actual))
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
    return results


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


def mutate(database, rng: random.Random, random_fact) -> None:
    """One seeded single-fact delete or insert that changes the facts."""
    changed = False
    while not changed:  # retry until the fact set really changes
        facts = sorted(database.facts, key=repr)
        if facts and rng.random() < 0.4:
            changed = database.remove(rng.choice(facts))
        else:
            changed = database.add(random_fact())


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
    threaded_engine = TGDRewriter(rules, use_elimination=True)
    with ThreadedStrategy(threads=4) as threaded:
        rewriters = {
            "sequential": TGDRewriter(rules, use_elimination=True).rewrite,
            "threaded": partial(threaded_engine.rewrite, strategy=threaded),
        }
        compare(check, WORKLOAD, named(workload), rewriters)


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

    before = await answered_on_loop(client)
    payload = (await answer(client, QUERY)).payload
    on_loop = await answered_on_loop(client) - before
    check(
        payload["source"] == "memory" and payload["answer_cached"] and on_loop == 1,
        f"warm repeat: source={payload['source']}, "
        f"answer_cached={payload['answer_cached']}, "
        f"answered on the event loop: {on_loop}",
    )


async def answered_on_loop(client) -> int:
    """The tenant's ``/stats`` count of answers served without the executor."""
    stats = await expect(client.request("GET", "/stats"), 200)
    return stats["tenants"][TENANT]["answered_on_loop"]


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
    auto_engine = TGDRewriter(rules)
    with AutoStrategy() as auto:
        rewriters = {
            "sequential": TGDRewriter(rules).rewrite,
            "auto": partial(auto_engine.rewrite, strategy=auto),
        }
        compare(check, "stock-exchange", example_queries(), rewriters)


def executed_bytecode(function) -> int:
    """How many bytecodes a call of *function* executes (an opcode trace).

    A count of work, not a timing: the same on a busy host as on a quiet
    one.  Functions implemented in C count nothing.
    """
    executed = 0

    def trace(frame, event, arg):
        nonlocal executed
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            executed += 1
        return trace

    sys.settrace(trace)
    try:
        function()
    finally:
        sys.settrace(None)
    return executed


def flat_kernel_floor(check) -> None:
    """Perf check 2: flat canonical keys equal the reference's, for less work."""
    engine = TGDRewriter(theory().tgds)
    corpus = [
        member for _, query in example_queries() for member in engine.rewrite(query).ucq
    ]
    same = [canonical_fingerprint(q) for q in corpus] == [
        canonical_fingerprint_reference(q) for q in corpus
    ]
    reference = executed_bytecode(
        lambda: [canonical_fingerprint_reference(q) for q in corpus]
    )
    flat = executed_bytecode(lambda: [canonical_fingerprint(q) for q in corpus])
    check(
        same and flat <= reference,
        f"canonical keys: {len(corpus)} CQs, flat keys "
        f"{'equal' if same else 'DIFFER FROM'} the reference's; executed "
        f"bytecode reference {reference:,} -> flat {flat:,} "
        f"({reference / max(flat, 1):.3f}x, floor 1x)",
    )


class CandidateCount(SequentialStrategy):
    """The sequential strategy, counting the candidates it expands."""

    def __init__(self) -> None:
        self.candidates = 0

    def expand_generation(self, engine, batch):
        for expansion in super().expand_generation(engine, batch):
            self.candidates += len(expansion.candidates)
            yield expansion


def coverage_memo_ceiling(check) -> None:
    """Perf check 3: memo on and off agree on P5, within the work pins."""
    workload = get_workload("P5")
    rules = workload.theory.tgds
    queries = named(workload)
    with per_cq_kernel(), CandidateCount() as counted:
        memoised = TGDRewriter(rules, use_elimination=True)
        plain = TGDRewriter(rules, use_elimination=True, use_memoisation=False)
        rewriters = {
            "memo on": memoised.rewrite,
            "memo off": partial(plain.rewrite, strategy=counted),
        }
        results = compare(check, "P5", queries, rewriters)
    searches = memoised.eliminator.checker.chain_searches
    check(
        searches <= COVERAGE_SEARCH_CEILING,
        f"coverage chain searches on P5: memo on {searches}, off "
        f"{plain.eliminator.checker.chain_searches} "
        f"(ceiling {COVERAGE_SEARCH_CEILING})",
    )
    drops = sum(memo_on.statistics.pruned_dead_ends for memo_on, _ in results)
    plain_drops = sum(memo_off.statistics.pruned_dead_ends for _, memo_off in results)
    runs = memoised.eliminator.runs
    every = counted.candidates - plain_drops + len(queries)
    check(
        runs == ELIMINATION_RUNS and plain.eliminator.runs == every,
        f"elimination runs on P5: memo on {runs} (pinned {ELIMINATION_RUNS}), "
        f"off {plain.eliminator.runs} (every one of {counted.candidates} "
        f"candidates but {plain_drops} dead ends, and {len(queries)} "
        f"queries: {every})",
    )
    check(
        drops == DEAD_END_DROPS == plain_drops,
        f"dead ends dropped on P5: memo on {drops}, off {plain_drops} "
        f"(pinned {DEAD_END_DROPS})",
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
            mutate(database, rng, random_fact)
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
        # One pinning rule per body position, one rederive rule, per join.
        rules = sum(
            len(join.body) + 1
            for handle in prepared
            for join in handle.rewriting.ucq.factored()
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


def factored_execution(check) -> None:
    """Perf check 6: Table 1 factors into the pinned joins, answering alike."""
    cqs = joins = answered = 0
    differ = []
    for name in TABLE1:
        workload = get_workload(name)
        database = DatabaseGenerator(FACTORING_SEED).populate_for_rules(
            workload.theory.tgds, facts_per_relation=FACTORING_FACTS
        )
        evaluator = QueryEvaluator(database)
        with OBDASystem(workload.theory, database=database) as system:
            for query_name, query in named(workload):
                prepared = system.prepare(query)
                ucq, plan = prepared.rewriting.ucq, prepared.plan
                executed = plan.execute(database)
                disjuncts = [
                    plan.execute_disjunct(database, i) for i in range(len(ucq))
                ]
                agree = executed == frozenset().union(*disjuncts)
                # Each join on its own, so a wrong join shows even where
                # other joins happen to cover its answers.
                for join in ucq.factored():
                    program = compile_join(join.body, join.answer_terms)
                    found = evaluator.answers(program)
                    members = frozenset().union(*(disjuncts[i] for i in join.members))
                    agree = agree and found == members
                cqs += len(ucq)
                joins += len(ucq.factored())
                answered += bool(executed)
                if not agree:
                    differ.append(f"{name} {query_name}")
    check(
        joins == FACTORED_JOINS and not differ,
        f"factored execution of Table 1: {cqs} CQs in {joins} joins (pinned "
        f"{FACTORED_JOINS}); execute() and each join "
        f"{'equal' if not differ else 'DIFFER FROM'} the union of their "
        f"disjuncts' execute_disjunct() on "
        f"{f'{len(differ)} queries' if differ else 'every query'} "
        f"({answered} with answers)",
        f"differing: {', '.join(differ)}",
    )


def consistency_rechecks(check) -> None:
    """Perf check 7: consistency re-checks refresh the NC answer sets incrementally."""
    workload = get_workload("U")
    modes = []
    refresh = MaintainedAnswerSet.refresh

    def recorded(self, *args, **kwargs):
        delta = refresh(self, *args, **kwargs)
        modes.append(delta.mode)
        return delta

    agreed, inconsistent = True, 0
    with OBDASystem(workload.theory, database=workload.abox()) as system:
        database = system.database
        rng = random.Random(CONSISTENCY_SEED)
        random_fact = fact_sampler(database, rng)
        for step in range(CONSISTENCY_MUTATIONS + 1):
            if step:
                mutate(database, rng, random_fact)
            # Only the checked system's refreshes are counted.
            MaintainedAnswerSet.refresh = recorded
            try:
                verdict = system.is_consistent()
            finally:
                MaintainedAnswerSet.refresh = refresh
            copy = RelationalInstance(database.facts)
            with OBDASystem(workload.theory, database=copy) as fresh:
                agreed = agreed and verdict == fresh.is_consistent()
            inconsistent += not verdict
    refreshes = (modes.count("full"), modes.count("incremental"))
    check(
        agreed and refreshes == CONSISTENCY_REFRESHES,
        f"consistency re-checks on U ({CONSISTENCY_MUTATIONS} mutations, "
        f"{inconsistent} of {CONSISTENCY_MUTATIONS + 1} states inconsistent): "
        f"full/incremental NC refreshes {refreshes[0]}/{refreshes[1]} (pinned "
        f"{CONSISTENCY_REFRESHES[0]}/{CONSISTENCY_REFRESHES[1]}); verdicts "
        f"{'equal' if agreed else 'DIFFER FROM'} a fresh system's",
    )


def union_expansions(check) -> None:
    """Perf check 8: Table 1 compiles explore union-CQs, reaching the same CQs."""
    expansions = 0
    differ = []
    for name in TABLE1:
        workload = get_workload(name)
        options = resolve_engine_options(workload.theory)
        queries = named(workload)
        if name == "V":
            queries.append(("split", parse_query(SPLIT_QUERY)))

        def engine():
            return TGDRewriter(
                workload.theory,
                use_elimination=options.use_elimination,
                use_nc_pruning=options.use_nc_pruning,
            )

        with per_cq_kernel():
            reference = engine()
            expected = [reference.rewrite(query).ucq for _, query in queries]
        union = engine()
        for (query_name, query), ucq in zip(queries, expected):
            result = union.rewrite(query)
            if query_name != "split":
                expansions += result.statistics.processed_queries
            if not same_members(list(result.ucq), list(ucq)):
                differ.append(f"{name} {query_name}")
    check(
        expansions == TABLE1_EXPANSIONS and not differ,
        f"union-CQs of Table 1: {expansions} expansions (pinned "
        f"{TABLE1_EXPANSIONS}); rewritings of the 25 queries and "
        f"{SPLIT_QUERY!r} {'equal' if not differ else 'DIFFER FROM'} the "
        f"per-CQ kernel's as sets",
        f"differing: {', '.join(differ)}",
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
        factored_execution,
        consistency_rechecks,
        union_expansions,
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one CI smoke gate.")
    parser.add_argument("gate", choices=GATES)
    return Checks().run(*GATES[parser.parse_args(argv).gate])


if __name__ == "__main__":
    raise SystemExit(main())
