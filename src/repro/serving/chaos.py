"""Seeded chaos harness for the serving tier (``repro chaos``).

The resilience layer (PR 8) makes promises — deadlines are honored,
warm traffic is never starved by cold compiles, and every disturbance
(timeout, kill, backend hiccup, failed cache write) degrades to a
*retryable* error that converges back to the undisturbed answer.  This
module turns those promises into executable invariants, the same way
``repro fuzz`` holds the engine to its differential oracles:

* :class:`FaultPlan` is the injection seam threaded through the stack
  (``ServingApp(fault_plan=...)`` → registry → artifact sets and
  tenants).  It injects executor stalls at compile start, mid-compile
  kills through the generation-boundary callback that
  :meth:`~repro.serving.tenants.SharedArtifacts.compile_blocking` hands
  the rewriting kernel, ``sqlite3.OperationalError`` on the tenant
  execution path, rewriting-store write failures (``OSError`` from
  ``put``) and checkpoint write failures (a checkpoint pointed at an
  unwritable path).  Every budget is drawn from one seeded stream, so a
  failing case replays exactly.
* :class:`ChaosHarness` runs seeded cases end to end.  Each case
  generates a workload (via the fuzzing generator), records the
  *undisturbed* answers and warm latency on a pristine app, then replays
  the same traffic against a fault-injected app — a cold-compile storm
  plus concurrent warm traffic, all under ``X-Deadline-Ms`` — and
  finally disarms the plan and retries until the service recovers.

Invariants checked per case (violations fail the run and are written as
replayable repro files, like the fuzzing gate's):

1. **deadline** — no response arrives later than its effective budget
   plus a scheduling epsilon;
2. **warm-starvation** — warm p50 during the storm stays within 2× the
   unloaded warm p50 (with a small absolute floor against timer noise);
3. **recovery** — once faults stop, every query answers 200 again and
   the answers are byte-identical to the undisturbed run;
4. **classification** — no response ever carries the ``internal`` error
   code (every injected disturbance must map to a classified error).
"""

from __future__ import annotations

import asyncio
import json
import sqlite3
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..cache.checkpoint import FrontierCheckpoint, compile_digest
from ..cache.serialization import query_to_json
from ..fuzzing.generator import FRAGMENTS, GeneratorConfig, WorkloadGenerator
from ..queries.parser import parse_query
from .app import ServingApp
from .resilience import ResilienceConfig

#: Fault kinds a plan can inject, in budget order.
FAULT_KINDS = ("stall", "kill", "backend", "store", "checkpoint")


class ChaosKill(RuntimeError):
    """An injected mid-compile failure (the chaos stand-in for a crash)."""


class FaultPlan:
    """A budgeted, seeded set of faults to inject into one serving app.

    The serving stack calls the three hooks from its executor threads:
    ``before_compile`` at compile start (stalls), ``generation_fault``
    once per compile (its hook runs at every generation boundary of the
    engine run: mid-compile kills) and
    ``before_execute`` on the tenant's answer path (backend faults); an
    answer-cache hit calls ``before_execute`` on the event loop instead.
    Bad bindings always take the executor path, so on both paths the
    hook can fail a request before its bindings are rejected.
    Store and checkpoint write failures are installed by the harness via
    :meth:`wrap_store` / :meth:`sabotage_checkpoints`.  Budgets are only
    consumed while the plan is :meth:`armed <arm>`, so a harness can
    warm a tenant undisturbed, unleash the faults, then :meth:`disarm`
    and watch the service converge.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        stalls: int = 0,
        stall_seconds: float = 0.0,
        kills: int = 0,
        backend_faults: int = 0,
        store_faults: int = 0,
        checkpoint_faults: int = 0,
    ) -> None:
        self.seed = seed
        self.stall_seconds = stall_seconds
        self._lock = threading.Lock()
        self._armed = False
        self._budgets = {
            "stall": stalls,
            "kill": kills,
            "backend": backend_faults,
            "store": store_faults,
            "checkpoint": checkpoint_faults,
        }
        self.injected = {kind: 0 for kind in FAULT_KINDS}
        self._generation_calls: dict[str, int] = {}

    def arm(self) -> None:
        """Start consuming fault budgets."""
        with self._lock:
            self._armed = True

    def disarm(self) -> None:
        """Stop injecting; remaining budgets are left unspent."""
        with self._lock:
            self._armed = False

    def _consume(self, kind: str) -> bool:
        with self._lock:
            if not self._armed or self._budgets[kind] <= 0:
                return False
            self._budgets[kind] -= 1
            self.injected[kind] += 1
            return True

    # -- hooks called by the serving stack ---------------------------------

    def before_compile(self, digest: str) -> None:
        """Compile-start hook: stall the artifact executor thread."""
        if self._consume("stall"):
            time.sleep(self.stall_seconds)

    def generation_fault(self, digest: str):
        """The per-compile generation hook, or ``None`` when out of kills.

        The returned callable runs before each frontier generation, with
        the number of generations drained so far (the kernel's
        generation-boundary callback).  It counts its own calls per
        digest, over every compile of the digest, and kills the engine
        run from its *second* call on, so a killed compile dies with at
        least one checkpointed generation behind it — exactly the crash
        the resume machinery exists for.
        """
        with self._lock:
            if not self._armed or self._budgets["kill"] <= 0:
                return None

        def hook(generation: int) -> None:
            fire = False
            with self._lock:
                calls = self._generation_calls.get(digest, 0) + 1
                self._generation_calls[digest] = calls
                if calls >= 2 and self._armed and self._budgets["kill"] > 0:
                    self._budgets["kill"] -= 1
                    self.injected["kill"] += 1
                    fire = True
            if fire:
                raise ChaosKill(f"injected mid-compile kill for {digest[:12]}")

        return hook

    def before_execute(self, tenant: str) -> None:
        """Answer-path hook: one transient backend failure."""
        if self._consume("backend"):
            raise sqlite3.OperationalError("chaos: injected backend fault")

    # -- harness-side installs ---------------------------------------------

    def wrap_store(self, store) -> None:
        """Make *store*'s ``put`` fail with ``OSError`` while budgeted."""
        if store is None:
            return
        original = store.put

        def put(*args, **kwargs):
            if self._consume("store"):
                raise OSError("chaos: injected store write failure")
            return original(*args, **kwargs)

        store.put = put

    def sabotage_checkpoints(self, artifacts, broken_root: Path) -> None:
        """Point budgeted compiles at an unwritable checkpoint path.

        *broken_root* must be a regular file, so the checkpoint's own
        ``mkdir``/``open`` raise a genuine ``OSError`` — exercising the
        real degraded path in :meth:`FrontierCheckpoint.save`.
        """
        original = artifacts.checkpoint_for

        def checkpoint_for(query):
            if self._consume("checkpoint"):
                return FrontierCheckpoint(broken_root / "chaos-checkpoint.json")
            return original(query)

        artifacts.checkpoint_for = checkpoint_for

    def describe(self) -> dict:
        """Budgets granted and faults actually injected (for repro files)."""
        with self._lock:
            return {
                "seed": self.seed,
                "stall_seconds": round(self.stall_seconds, 4),
                "remaining": dict(self._budgets),
                "injected": dict(self.injected),
            }


@dataclass
class CaseOutcome:
    """What one chaos case did and every invariant it violated."""

    index: int
    case_seed: int
    fragment: str
    faults: dict
    requests: int = 0
    timeouts: int = 0
    shed: int = 0
    recovery_attempts: int = 0
    warm_p50_reference: float | None = None
    warm_p50_storm: float | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        injected = self.faults.get("injected", {})
        fired = ", ".join(
            f"{kind}={count}" for kind, count in injected.items() if count
        ) or "none"
        status = "ok" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (
            f"chaos[{self.index}] {self.fragment}: {status} — "
            f"{self.requests} requests, {self.timeouts} timeouts, "
            f"{self.shed} shed, faults fired: {fired}"
        )


@dataclass
class ChaosReport:
    """The outcome of one ``repro chaos`` run."""

    seed: int
    epsilon: float
    outcomes: list[CaseOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def violations(self) -> list[str]:
        return [
            f"case {outcome.index}: {violation}"
            for outcome in self.outcomes
            for violation in outcome.violations
        ]

    def summary(self) -> str:
        failed = sum(1 for outcome in self.outcomes if not outcome.ok)
        return (
            f"# chaos: {len(self.outcomes)} cases, "
            f"{len(self.outcomes) - failed} ok, {failed} failed "
            f"(seed {self.seed}, epsilon {self.epsilon}s)"
        )


def write_chaos_repro(path: Path, seed: int, outcome: CaseOutcome) -> Path:
    """Persist a failing case as a replayable repro file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "kind": "chaos-repro",
        "seed": seed,
        "index": outcome.index,
        "case_seed": outcome.case_seed,
        "fragment": outcome.fragment,
        "faults": outcome.faults,
        "violations": outcome.violations,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_chaos_repro(path: str | Path) -> tuple[int, int]:
    """The ``(seed, case index)`` coordinates stored in a repro file."""
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "chaos-repro":
        raise ValueError(f"{path} is not a chaos repro file")
    return int(payload["seed"]), int(payload["index"])


class ChaosHarness:
    """Run seeded fault-injection cases against the serving app.

    Each case is a pure function of ``(seed, index)``: the workload, the
    fault budgets, the resilience config and the traffic mix all come
    from one deterministic stream, so any failure replays bit-for-bit
    with ``repro chaos --replay FILE``.
    """

    #: Absolute floor for the warm-p50 comparison — below this, timer
    #: noise dominates and a 2× ratio check would flake.
    WARM_FLOOR_SECONDS = 0.05

    def __init__(
        self,
        seed: int = 0,
        epsilon: float = 0.5,
        repro_directory: str | Path | None = None,
    ) -> None:
        self.seed = seed
        self.epsilon = epsilon
        self.repro_directory = (
            Path(repro_directory) if repro_directory is not None else None
        )

    def _case_seed(self, index: int) -> int:
        # Same integer-only mixing discipline as the fuzzing generator:
        # no hash(), so runs are PYTHONHASHSEED-independent.
        return (self.seed * 1_000_003 + index * 7919 + 17) % (2**63)

    def run(self, cases: int, on_case=None) -> ChaosReport:
        """Run *cases* sequential chaos cases; returns the full report."""
        report = ChaosReport(seed=self.seed, epsilon=self.epsilon)
        for index in range(cases):
            outcome = self.run_case(index)
            report.outcomes.append(outcome)
            if on_case is not None:
                on_case(outcome)
            if not outcome.ok and self.repro_directory is not None:
                write_chaos_repro(
                    self.repro_directory
                    / f"chaos-seed{self.seed}-case{index}.json",
                    self.seed,
                    outcome,
                )
        return report

    def run_case(self, index: int) -> CaseOutcome:
        """Run one case (its own event loop, apps and temp directories)."""
        return asyncio.run(self._run_case(index))

    def replay(self, path: str | Path) -> CaseOutcome:
        """Re-run the exact case recorded in a repro file."""
        seed, index = load_chaos_repro(path)
        harness = ChaosHarness(seed=seed, epsilon=self.epsilon)
        return harness.run_case(index)

    # -- one case, end to end ----------------------------------------------

    async def _run_case(self, index: int) -> CaseOutcome:
        import random

        case_seed = self._case_seed(index)
        rng = random.Random(case_seed)
        fragment = rng.choice(FRAGMENTS)
        generated = WorkloadGenerator(
            seed=case_seed, config=GeneratorConfig(fragment=fragment)
        ).case(0)
        theory = generated.theory
        storm_query = generated.query
        facts = [
            (atom.predicate.name, [term.value for term in atom.terms])
            for atom in generated.instance
        ]

        config = ResilienceConfig(
            compile_timeout=rng.uniform(0.12, 0.25),
            answer_timeout=rng.uniform(0.5, 1.0),
            max_inflight_compiles=rng.randint(2, 4),
            queue_depth=rng.randint(16, 64),
            breaker_threshold=3,
            breaker_base_delay=0.05,
            breaker_max_delay=0.5,
            breaker_seed=case_seed,
            shed_retry_after=0.05,
        )
        plan = FaultPlan(
            seed=case_seed,
            stalls=rng.randint(0, 2),
            stall_seconds=rng.uniform(1.2, 2.0) * config.compile_timeout,
            kills=rng.randint(0, 2),
            backend_faults=rng.randint(0, 2),
            store_faults=rng.randint(0, 2),
            checkpoint_faults=rng.randint(0, 1),
        )
        if not any(plan._budgets.values()):
            plan._budgets["kill"] = 1  # every case disturbs something
        storm_size = rng.randint(4, 8)
        warm_hits = rng.randint(6, 12)
        deadline_ms = config.compile_timeout * 1000.0 * rng.uniform(0.8, 1.5)

        outcome = CaseOutcome(
            index=index,
            case_seed=case_seed,
            fragment=fragment,
            faults=plan.describe(),
        )

        # Phase 1 — the undisturbed truth: answers and warm latency on a
        # pristine, fault-free app.
        reference = ServingApp()
        try:
            reference.registry.register("t", theory, facts=facts)
            warm_query = self._warm_query(reference, storm_query)
            reference_answers = {}
            for name, query in (("storm", storm_query), ("warm", warm_query)):
                response = await self._answer(reference, query)
                if not response.ok:
                    outcome.violations.append(
                        f"reference answer for {name} query failed: "
                        f"{response.payload}"
                    )
                    return outcome
                reference_answers[name] = json.dumps(
                    response.payload["answers"], sort_keys=True
                )
            warm_samples = []
            for _ in range(5):
                _, elapsed = await self._timed_answer(reference, warm_query)
                warm_samples.append(elapsed)
            outcome.warm_p50_reference = statistics.median(warm_samples)
        finally:
            await reference.aclose()

        # Phase 2 — the same workload against a fault-injected app.
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            cache_dir = Path(tmp) / "cache"
            broken_root = Path(tmp) / "not-a-directory"
            broken_root.write_text("")  # a file where a directory is needed
            app = ServingApp(
                cache=str(cache_dir), resilience=config, fault_plan=plan
            )
            try:
                await self._chaos_phase(
                    app,
                    plan,
                    broken_root,
                    theory,
                    facts,
                    storm_query,
                    warm_query,
                    reference_answers,
                    config,
                    storm_size,
                    warm_hits,
                    deadline_ms,
                    outcome,
                )
            finally:
                await app.aclose()
        outcome.faults = plan.describe()
        return outcome

    async def _chaos_phase(
        self,
        app: ServingApp,
        plan: FaultPlan,
        broken_root: Path,
        theory,
        facts,
        storm_query,
        warm_query,
        reference_answers: dict,
        config: ResilienceConfig,
        storm_size: int,
        warm_hits: int,
        deadline_ms: float,
        outcome: CaseOutcome,
    ) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: app.registry.register("t", theory, facts=facts)
        )
        plan.wrap_store(app.registry.store)
        for artifacts in app.registry.artifact_sets():
            plan.sabotage_checkpoints(artifacts, broken_root)

        # Warm up the warm query while the plan is still disarmed.  It is
        # compiled first with no deadline, on the tenant's artifact
        # executor as /answer would compile it, so the warm-up /answer is
        # a memory hit: the case's drawn compile budget is for the storm,
        # and a host stall must not fail the undisturbed warm-up.
        artifacts = app.registry.get("t").artifacts
        try:
            await loop.run_in_executor(
                artifacts.executor, artifacts.compile_blocking, warm_query
            )
        except Exception as error:  # recorded as the case's violation
            outcome.violations.append(
                f"undisturbed warmup failed: {type(error).__name__}: {error}"
            )
            return
        response = await self._answer(app, warm_query)
        if not response.ok:
            outcome.violations.append(
                f"undisturbed warmup failed: {response.payload}"
            )
            return

        plan.arm()
        phase_bound = (
            min(deadline_ms / 1000.0, config.compile_timeout + config.answer_timeout)
            + self.epsilon
        )
        headers = {"x-deadline-ms": f"{deadline_ms:.0f}"}

        async def storm_request():
            response, elapsed = await self._timed_answer(
                app, storm_query, headers=headers
            )
            return ("storm", response, elapsed, phase_bound)

        async def warm_loop():
            results = []
            for _ in range(warm_hits):
                response, elapsed = await self._timed_answer(app, warm_query)
                bound = (config.answer_timeout or 0.0) + self.epsilon
                results.append(("warm", response, elapsed, bound))
                await asyncio.sleep(0.01)
            return results

        storm_results = await asyncio.gather(
            *(storm_request() for _ in range(storm_size)), warm_loop()
        )
        plan.disarm()

        flattened = []
        for entry in storm_results:
            if isinstance(entry, list):
                flattened.extend(entry)
            else:
                flattened.append(entry)
        warm_latencies = []
        for kind, response, elapsed, bound in flattened:
            outcome.requests += 1
            code = response.payload.get("error", {}).get("code")
            if response.status == 504:
                outcome.timeouts += 1
            if response.status == 503:
                outcome.shed += 1
            if code == "internal":
                outcome.violations.append(
                    f"unclassified 500 during storm: {response.payload}"
                )
            if elapsed > bound:
                outcome.violations.append(
                    f"{kind} request took {elapsed:.3f}s, "
                    f"budget was {bound:.3f}s"
                )
            if kind == "warm":
                warm_latencies.append(elapsed)

        if warm_latencies and outcome.warm_p50_reference is not None:
            outcome.warm_p50_storm = statistics.median(warm_latencies)
            allowance = max(
                2.0 * outcome.warm_p50_reference, self.WARM_FLOOR_SECONDS
            )
            if outcome.warm_p50_storm > allowance:
                outcome.violations.append(
                    f"warm p50 {outcome.warm_p50_storm * 1000:.1f}ms during the "
                    f"storm exceeds {allowance * 1000:.1f}ms "
                    f"(2x unloaded p50 {outcome.warm_p50_reference * 1000:.1f}ms)"
                )

        # Phase 3 — recovery: with the plan disarmed the service must
        # converge back to the undisturbed answers, byte for byte.
        for name, query in (("storm", storm_query), ("warm", warm_query)):
            recovered = None
            for _ in range(30):
                outcome.recovery_attempts += 1
                response, elapsed = await self._timed_answer(app, query)
                bound = (
                    (config.compile_timeout or 0.0)
                    + (config.answer_timeout or 0.0)
                    + self.epsilon
                )
                if elapsed > bound:
                    outcome.violations.append(
                        f"recovery request took {elapsed:.3f}s, "
                        f"budget was {bound:.3f}s"
                    )
                if response.ok:
                    recovered = response
                    break
                code = response.payload.get("error", {}).get("code")
                if code == "internal":
                    outcome.violations.append(
                        f"unclassified 500 during recovery: {response.payload}"
                    )
                    break
                retry_after = response.payload.get("error", {}).get(
                    "retry_after", 0.02
                )
                await asyncio.sleep(min(float(retry_after), 0.5))
            if recovered is None:
                outcome.violations.append(
                    f"{name} query never recovered after faults stopped"
                )
                continue
            got = json.dumps(recovered.payload["answers"], sort_keys=True)
            if got != reference_answers[name]:
                outcome.violations.append(
                    f"post-recovery {name} answers differ from the "
                    f"undisturbed run: {got} != {reference_answers[name]}"
                )

    # -- helpers -------------------------------------------------------------

    def _warm_query(self, app: ServingApp, storm_query):
        """A second query over the same theory with a distinct compile digest.

        Derived from the storm query's own schema (single-atom probes over
        its body predicates), so it is always well-formed for the theory;
        falls back across predicates until the digest differs.
        """
        fingerprint = app.registry.tenants()[0].fingerprint
        storm_digest = compile_digest(storm_query, fingerprint)
        seen = []
        for atom in storm_query.body:
            if atom.predicate in seen:
                continue
            seen.append(atom.predicate)
        for predicate in seen:
            variables = ", ".join(f"V{i}" for i in range(predicate.arity))
            candidate = parse_query(f"q({variables}) :- {predicate.name}({variables})")
            if compile_digest(candidate, fingerprint) != storm_digest:
                return candidate
        # Degenerate single-atom storm query: probe with one variable
        # repeated, which canonicalises differently.
        predicate = seen[0]
        variables = ", ".join("V0" for _ in range(predicate.arity))
        return parse_query(f"q(V0) :- {predicate.name}({variables})")

    async def _answer(self, app: ServingApp, query, headers=None):
        return await app.request(
            "POST",
            "/answer",
            {"tenant": "t", "query": query_to_json(query)},
            headers=headers,
        )

    async def _timed_answer(self, app: ServingApp, query, headers=None):
        started = time.perf_counter()
        response = await self._answer(app, query, headers=headers)
        return response, time.perf_counter() - started
