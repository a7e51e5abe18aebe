"""The benchmark's workloads: cold compile, warm serving, standing-query churn.

Every workload drives the whole serving stack — a
:class:`~repro.serving.app.ServingApp` behind a
:class:`~repro.serving.http.ServingServer` on a real localhost socket —
with one :class:`~repro.serving.http.ServingClient` in the same process
and event loop, one request in flight at a time (a closed loop).  The
three workloads are the end-to-end numbers ``ROADMAP.md`` names: cold
compile per Table 1 workload, warm ``/answer`` latency and
standing-query delta latency.  Concurrent clients — request coalescing,
the compile gate, executor queueing — are out of scope: they are
``benchmarks/bench_serving.py``'s subject.  An *operation* is what one
user waits for:

* ``cold`` — the first ``POST /answer`` of a Table 1 query on a freshly
  booted service: compile, plan, execute, encode.  The service serves
  the five Table 1 ontologies (V, S, U, A, P5) and is asked their 25
  queries, as in the paper's Table 1.
* ``warm`` — ``POST /answer`` served from the rewriting and answer
  caches, cycling through the 20 queries of V, S, U and A from a seeded
  offset, as a client of the warm phase of
  ``benchmarks/bench_serving.py`` cycles through its query mix.  All
  queries were answered once while setting up.
* ``churn`` — one ``POST /data`` batch of 4 deletes and 4 inserts (about
  1% of the ABox, where ``BENCH_answering.json`` finds maintenance
  beating recomputation) on one of four Vicodi tenants in turn (see
  :class:`FactStream`), then a ``GET /changes`` poll of each of its four
  standing-query cursors; latency runs from sending the batch to the
  last delta received.  Each batch bumps the data epoch, so no answer
  cache helps: the deltas are maintained incrementally.

A run is a sequence of *passes*.  Each pass boots a fresh service, sets it
up (registers the tenants with their facts; for ``warm`` answers every
query once, for ``churn`` subscribes every query) — timed as set-up —
and then replays the workload's fixed operation plan, timed per
operation, pinned to one CPU (see :func:`pin`).  Passes repeat until the
operations have been timed for the run's seconds (see
:func:`end_to_end_metrics` for how passes are combined).

Inputs come from ``--seed`` only: the ABox of every tenant (a
:class:`~repro.database.generator.DatabaseGenerator` instance over the
ontology's predicates in the shape ``benchmarks/bench_answering.py``
uses, with facts that would contradict a negative constraint redrawn),
the variable names of the query texts, the operation plan and the
mutation batches.  Every answer is checked: each pass must serve the same
answers, and they must equal those of :class:`~oracle.Oracle`, which
rewrites with the resolution baseline instead of the server's engine;
for ``churn`` each cursor's composed deltas must equal a fresh
``/answer`` and the oracle over the final facts.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field

from oracle import Oracle
from repro.database.generator import DatabaseGenerator
from repro.logic.terms import Constant, Variable
from repro.serving import ServingApp, ServingClient, ServingServer
from repro.workloads import get_workload

COLD_ONTOLOGIES = ("V", "S", "U", "A", "P5")
WARM_ONTOLOGIES = ("V", "S", "U", "A")
CHURN_ONTOLOGY = "V"
#: Vicodi's q5 is left out of the standing queries: the cost of
#: maintaining it after one change spans three orders of magnitude with
#: the tuple changed, so a pass of a few hundred changes would measure
#: which tuples the seed drew rather than the program.
CHURN_QUERIES = ("q1", "q2", "q3", "q4")
#: Churn tenants, each with its own ABox and mutation stream, so that a
#: run's figures average over several random ABoxes.
CHURN_TENANTS = 4

#: ABox shape of ``benchmarks/bench_answering.py``: facts per predicate
#: over the generator's default constant domain.
FACTS_PER_RELATION = 25
DOMAIN_SIZE = 30
#: Draws of a fact before it is given up as contradicting the constraints.
REDRAWS = 20

#: Warm requests per pass: about three seconds.
WARM_REQUESTS = 8000

#: Relations changed per churn batch (one delete and one insert each),
#: and how often a churn pass changes every relation of every tenant:
#: 4 × 62 relations / 4 = 62 batches per tenant, about two and a half
#: seconds in all.
CHURN_STEPS = 4
CHURN_CYCLES = 4


@dataclass
class Measurement:
    """Everything one run observed."""

    #: Operation latencies (seconds) of every pass, in operation order.
    passes: list[list[float]] = field(default_factory=list)
    #: Wall time of every pass's operations.
    pass_seconds: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Counters read from the response bodies.
    answer_responses: int = 0
    answer_cache_hits: int = 0
    polls: int = 0
    incremental_polls: int = 0

    @property
    def operations(self) -> int:
        return sum(len(latencies) for latencies in self.passes)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def answered(self, response) -> bool:
        """Count one ``/answer`` response; ``False`` (and a failure) if not 200."""
        if response.status != 200:
            self.fail(f"/answer: {response.payload}")
            return False
        self.answer_responses += 1
        self.answer_cache_hits += bool(response.payload.get("answer_cached"))
        return True


# -- inputs ---------------------------------------------------------------


def redraw(oracle: Oracle, present, relation: str, row: tuple, rng, domain):
    """*row*, or a random redraw of it, that *oracle* admits; ``None`` if none."""
    for _ in range(REDRAWS):
        if oracle.admits(present, relation, row):
            return row
        row = tuple(rng.choice(domain) for _ in row)
    return None


def seeded_abox(oracle: Oracle, seed: int) -> dict[str, set[tuple]]:
    """A consistent ABox over the ontology's predicates: relation -> rows."""
    rules = list(get_workload(oracle.ontology).theory.tgds)
    generator = DatabaseGenerator(seed=seed, domain_size=DOMAIN_SIZE)
    instance = generator.populate_for_rules(
        rules, facts_per_relation=FACTS_PER_RELATION
    )
    drawn = sorted(
        (atom.predicate.name, tuple(term.value for term in atom.terms))
        for atom in instance.facts
    )
    rng = random.Random(seed)
    domain = [f"c{index}" for index in range(DOMAIN_SIZE)]
    present: dict[str, set[tuple]] = {}
    for relation, row in drawn:
        row = redraw(oracle, present, relation, row, rng, domain)
        if row is not None:
            present[relation].add(row)
    return present


def as_facts(present: dict[str, set[tuple]]) -> list[list]:
    """An ABox as the ``[[relation, [values]], ...]`` of ``/register-theory``."""
    return [
        [relation, list(row)]
        for relation in sorted(present)
        for row in sorted(present[relation])
    ]


def seeded_tenants(oracles: dict[str, Oracle], seed: int) -> dict[str, tuple]:
    """``tenant -> (ontology, facts)``, one tenant per ontology."""
    return {
        ontology.lower(): (ontology, as_facts(seeded_abox(oracle, seed * 101 + index)))
        for index, (ontology, oracle) in enumerate(oracles.items())
    }


def render_query(query, suffix: str) -> str:
    """Query text with every variable renamed by *suffix*."""

    def term(value) -> str:
        if isinstance(value, Variable):
            return f"{value.name}{suffix}"
        if isinstance(value, Constant) and isinstance(value.value, str):
            return repr(value.value)
        return str(value)

    head = ", ".join(term(t) for t in query.answer_terms)
    body = ", ".join(
        f"{atom.predicate.name}({', '.join(term(t) for t in atom.terms)})"
        for atom in query.body
    )
    return f"{query.head_name}({head}) :- {body}"


def seeded_queries(ontologies, seed: int) -> list[tuple[str, str]]:
    """``(tenant, query text)`` for every Table 1 query of *ontologies*."""
    suffix = f"_{seed}"
    return [
        (ontology.lower(), render_query(get_workload(ontology).query(name), suffix))
        for ontology in ontologies
        for name in get_workload(ontology).query_names
    ]


class FactStream:
    """Seeded mutation batches that cycle through an ABox's relations.

    Each step deletes one present fact of the next relation in turn and
    inserts one absent fact of it that keeps the ABox consistent, so every
    relation keeps its size and a run of ``k × len(relations)`` steps
    changes each relation ``k`` times: the cost of a pass depends on what
    maintaining each relation costs, not on which relations a seed happens
    to draw.
    """

    def __init__(self, oracle: Oracle, present, rng: random.Random) -> None:
        self._oracle = oracle
        self._rng = rng
        self._present = {relation: set(rows) for relation, rows in present.items()}
        self.relations = sorted(self._present)
        self._domain = sorted(
            {value for rows in self._present.values() for row in rows for value in row}
        )
        self._step = 0

    @property
    def facts(self) -> list[list]:
        """The current ABox as ``[[relation, [values]], ...]``."""
        return as_facts(self._present)

    def batch(self, steps: int) -> tuple[list, list]:
        """``(added, removed)`` of *steps* steps; the two lists are disjoint."""
        added, removed = [], []
        for _ in range(steps):
            relation = self.relations[self._step % len(self.relations)]
            self._step += 1
            present = self._present[relation]
            if not present:
                continue
            gone = self._rng.choice(sorted(present))
            values = redraw(
                self._oracle, self._present, relation, gone, self._rng, self._domain
            )
            if values is None:
                continue
            present.remove(gone)
            present.add(values)
            removed.append([relation, list(gone)])
            added.append([relation, list(values)])
        return added, removed


def check_against_oracle(measurement, served, tenants, queries, oracles) -> None:
    """Compare the served answer list of every query with the oracle's."""
    for tenant, (ontology, facts) in tenants.items():
        texts = [text for name, text in queries if name == tenant]
        for text, answers in oracles[ontology].answers(facts, texts).items():
            if served.get((tenant, text)) != answers:
                measurement.fail(f"{tenant} {text}: served answers differ from oracle")


def same_every_pass(measurement, served, key, answers) -> None:
    """Record *answers* for *key*; a failure if an earlier pass served others."""
    if served.setdefault(key, answers) != answers:
        measurement.fail(f"{key}: answers differ from an earlier pass")


# -- the service under test -----------------------------------------------


class Service:
    """One serving stack on an ephemeral localhost port, plus a client."""

    def __init__(self) -> None:
        self.server = ServingServer(ServingApp())
        self.client: ServingClient | None = None

    @classmethod
    async def boot(cls, tenants: dict[str, tuple]) -> "Service":
        """Start the server and register ``tenant -> (ontology, facts)``."""
        service = cls()
        await service.server.start()
        service.client = ServingClient("127.0.0.1", service.server.port, retries=0)
        for tenant, (ontology, facts) in tenants.items():
            await service.call(
                "POST",
                "/register-theory",
                {"tenant": tenant, "workload": ontology, "facts": facts},
                expect=201,
            )
        return service

    async def call(self, method: str, path: str, payload=None, expect: int = 200):
        """A request outside the timed operations, which must succeed."""
        response = await self.client.request(method, path, payload)
        if response.status != expect:
            raise RuntimeError(f"{method} {path} failed: {response.payload}")
        return response

    async def stop(self) -> None:
        if self.client is not None:
            await self.client.aclose()
        await self.server.stop()


async def timed_request(client: ServingClient, method: str, path: str, payload=None):
    """``(response, seconds)`` of one request."""
    started = time.perf_counter()
    response = await client.request(method, path, payload)
    return response, time.perf_counter() - started


def pin(cpus: set[int]) -> None:
    """Restrict every thread of this process to *cpus*.

    On the host this benchmark was tuned on (2 shared vCPUs), each CPU in
    turn runs up to 1.8 times faster or slower than usual for ten seconds
    to minutes (other machines' load on the same cores; process CPU time
    changes with the wall clock, so no clock escapes it), and the
    scheduler keeps a busy thread on one CPU for long stretches.  Running
    each pass's operations on one CPU, the CPUs in turn, makes every run
    sample each of them alike: unpinned, the spread of ``p50_ms`` over
    seeds was four times larger.
    """
    for thread in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(thread), cpus)
        except OSError:  # the thread ended meanwhile
            pass


async def run_passes(measurement, seconds, tracer, boot, operate, check=None) -> None:
    """Boot, operate and stop passes until *seconds* of operations were timed.

    ``boot()`` returns the set-up service, ``operate(service)`` the
    latencies of one pass's operations, and ``check(service)`` verifies
    the pass's end state outside the timed and traced part.  The service
    boots unpinned, so it sizes its workers (those of the ``auto``
    scheduling strategy) by every CPU of the host; only the operations
    run pinned (see :func:`pin`).  A process pool the strategy started
    during them would share the pass's CPU: on these workloads the
    strategy runs every generation sequentially
    (``parallel_generation_pct`` with ``--trace 1``).
    """
    cpus = sorted(os.sched_getaffinity(0))
    while sum(measurement.pass_seconds) < seconds:
        started = time.perf_counter()
        service = await boot()
        measurement.setups.append(time.perf_counter() - started)
        try:
            pin({cpus[len(measurement.setups) % len(cpus)]})
            tracer.active = True
            started = time.perf_counter()
            latencies = await operate(service)
            measurement.pass_seconds.append(time.perf_counter() - started)
            tracer.active = False
            pin(set(cpus))
            measurement.passes.append(latencies)
            measurement.attempted += len(latencies)
            if check is not None:
                await check(service)
        finally:
            tracer.active = False
            pin(set(cpus))
            await service.stop()


# -- the workloads ------------------------------------------------------------


async def run_cold(seed: int, seconds: float, tracer) -> Measurement:
    oracles = {ontology: Oracle(ontology) for ontology in COLD_ONTOLOGIES}
    tenants = seeded_tenants(oracles, seed)
    queries = seeded_queries(COLD_ONTOLOGIES, seed)
    random.Random(seed).shuffle(queries)
    measurement = Measurement()
    served: dict[tuple[str, str], list] = {}

    async def operate(service: Service) -> list[float]:
        latencies = []
        for tenant, text in queries:
            response, latency = await timed_request(
                service.client, "POST", "/answer", {"tenant": tenant, "query": text}
            )
            latencies.append(latency)
            if not measurement.answered(response):
                continue
            source = response.payload["source"]
            if source != "engine":
                measurement.fail(f"cold {tenant} {text}: served from {source}")
            answers = response.payload["answers"]
            same_every_pass(measurement, served, (tenant, text), answers)
        return latencies

    async def boot() -> Service:
        return await Service.boot(tenants)

    await run_passes(measurement, seconds, tracer, boot, operate)
    check_against_oracle(measurement, served, tenants, queries, oracles)
    return measurement


async def run_warm(seed: int, seconds: float, tracer) -> Measurement:
    oracles = {ontology: Oracle(ontology) for ontology in WARM_ONTOLOGIES}
    tenants = seeded_tenants(oracles, seed)
    queries = seeded_queries(WARM_ONTOLOGIES, seed)
    offset = random.Random(seed).randrange(len(queries))
    requests = [
        queries[(offset + index) % len(queries)] for index in range(WARM_REQUESTS)
    ]
    measurement = Measurement()
    served: dict[tuple[str, str], list] = {}

    async def boot() -> Service:
        service = await Service.boot(tenants)
        for tenant, text in queries:
            response = await service.call(
                "POST", "/answer", {"tenant": tenant, "query": text}
            )
            answers = response.payload["answers"]
            same_every_pass(measurement, served, (tenant, text), answers)
        return service

    async def operate(service: Service) -> list[float]:
        latencies = []
        for tenant, text in requests:
            response, latency = await timed_request(
                service.client, "POST", "/answer", {"tenant": tenant, "query": text}
            )
            latencies.append(latency)
            if measurement.answered(response) and (
                response.payload["answers"] != served[(tenant, text)]
            ):
                measurement.fail(f"warm {tenant} {text}: answers changed")
        return latencies

    await run_passes(measurement, seconds, tracer, boot, operate)
    check_against_oracle(measurement, served, tenants, queries, oracles)
    return measurement


def row_key(row: list) -> str:
    return json.dumps(row, sort_keys=True)


async def run_churn(seed: int, seconds: float, tracer) -> Measurement:
    oracle = Oracle(CHURN_ONTOLOGY)
    aboxes = {
        f"{CHURN_ONTOLOGY.lower()}{index}": seeded_abox(oracle, seed * 101 + index)
        for index in range(CHURN_TENANTS)
    }
    tenants = {
        tenant: (CHURN_ONTOLOGY, as_facts(present))
        for tenant, present in aboxes.items()
    }
    texts = [
        render_query(get_workload(CHURN_ONTOLOGY).query(name), f"_{seed}")
        for name in CHURN_QUERIES
    ]
    queries = [(tenant, text) for tenant in tenants for text in texts]
    streams = {
        tenant: FactStream(oracle, present, random.Random(seed * 101 + index))
        for index, (tenant, present) in enumerate(aboxes.items())
    }
    relations = len(next(iter(streams.values())).relations)
    batch_count = -(-CHURN_CYCLES * relations // CHURN_STEPS)
    # Round-robin over the tenants: operation i changes tenant i mod n.
    operations = [
        (tenant, *stream.batch(CHURN_STEPS))
        for _ in range(batch_count)
        for tenant, stream in streams.items()
    ]
    measurement = Measurement()
    cursors: dict[tuple[str, str], str] = {}
    composed: dict[tuple[str, str], dict[str, list]] = {}
    served: dict[tuple[str, str], list] = {}

    async def boot() -> Service:
        service = await Service.boot(tenants)
        for tenant, text in queries:
            response = await service.call(
                "POST", f"/tenants/{tenant}/subscribe", {"query": text}, expect=201
            )
            cursors[(tenant, text)] = response.payload["cursor"]
            composed[(tenant, text)] = {
                row_key(row): row for row in response.payload["answers"]
            }
        return service

    async def poll(service: Service, tenant: str, text: str) -> str | None:
        """Apply one cursor's delta to its composed answers; an error or None."""
        response = await service.client.request(
            "GET", f"/tenants/{tenant}/changes?cursor={cursors[(tenant, text)]}"
        )
        if response.status != 200:
            return f"churn poll {tenant} {text}: {response.payload}"
        measurement.polls += 1
        measurement.incremental_polls += response.payload["mode"] == "incremental"
        rows = composed[(tenant, text)]
        for row in response.payload["removed"]:
            if rows.pop(row_key(row), None) is None:
                return f"churn {tenant} {text}: removed an absent row {row}"
        for row in response.payload["added"]:
            if rows.setdefault(row_key(row), row) is not row:
                return f"churn {tenant} {text}: added a present row {row}"
        return None

    async def operate(service: Service) -> list[float]:
        latencies = []
        for tenant, added, removed in operations:
            sent = time.perf_counter()
            response = await service.client.request(
                "POST", "/data", {"tenant": tenant, "add": added, "remove": removed}
            )
            failed = response.status != 200
            errors = [f"churn data: {response.payload}" if failed else None]
            for text in texts:
                errors.append(await poll(service, tenant, text))
            latencies.append(time.perf_counter() - sent)
            if any(errors):
                measurement.fail(next(error for error in errors if error))
        return latencies

    async def check(service: Service) -> None:
        for tenant, text in queries:
            response = await service.call(
                "POST", "/answer", {"tenant": tenant, "query": text}
            )
            answers = response.payload["answers"]
            if answers != sorted(composed[(tenant, text)].values(), key=row_key):
                measurement.fail(f"churn {tenant} {text}: deltas differ from /answer")
            same_every_pass(measurement, served, (tenant, text), answers)

    await run_passes(measurement, seconds, tracer, boot, operate, check)
    final = {tenant: (CHURN_ONTOLOGY, s.facts) for tenant, s in streams.items()}
    check_against_oracle(measurement, served, final, queries, {CHURN_ONTOLOGY: oracle})
    return measurement


WORKLOADS = {"cold": run_cold, "warm": run_warm, "churn": run_churn}


def end_to_end_metrics(measurement: Measurement) -> dict[str, float]:
    """Each pass's latency quantiles and throughput; medians over passes.

    The host this benchmark was tuned on (2 shared vCPUs) runs, for ten
    seconds to minutes at a time, up to 1.8 times faster or slower than
    usual (other machines' load on the same cores; process CPU time
    changes with the wall clock, so no clock escapes it).  A pass lasts a
    few seconds, so the median over a run's passes of each pass's median
    latency, 90th-percentile latency and throughput (operations over the
    wall time they took) follows the host's usual speed and leaves a
    phase that covers a minority of the passes out.  ``setup_s`` is the
    median set-up time of the passes.
    """
    passes = zip(measurement.passes, measurement.pass_seconds)
    figures = [
        (
            statistics.median(latencies),
            statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            len(latencies) / seconds,
        )
        for latencies, seconds in passes
    ]
    p50, p90, throughput = (statistics.median(column) for column in zip(*figures))
    return {
        "p50_ms": p50 * 1000.0,
        "p90_ms": p90 * 1000.0,
        "ops_per_s": throughput,
        "setup_s": statistics.median(measurement.setups),
    }
