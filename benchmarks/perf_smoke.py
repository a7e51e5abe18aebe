"""The ``make perf-smoke`` gate: the hot-path rewrite must never regress.

Five hard checks, cheap enough to gate every CI run:

1. **Autotuner byte-identity** — compiling the paper's running example
   (StockExchange, Section 2) and every Figure 1 query under
   ``strategy="auto"`` must produce exactly the rewriting the sequential
   baseline produces: same sizes, same canonical keys, same members in
   the same order.
2. **Flat-kernel speedup floor** — WL canonical-key computation via the
   tuple-encoded kernel (:func:`repro.logic.canonical.canonical_fingerprint`)
   must not be slower than the object-walking reference on the harvested
   rewriting corpus (best-of-5 timing; floor 1.0×).
3. **Coverage-memo work ceiling** — compiling the P5 workload under
   ``TGD-rewrite*`` with memoisation on and off must produce identical
   members, and the memoised engine must run at most
   :data:`COVERAGE_SEARCH_CEILING` coverage chain searches (memo misses).
   A counter, not a timing, so the check is exact on any host.
4. **Shared change-log reader** — on workload S with the SQLite
   backend, a seeded sequence of :data:`CHANGE_LOG_MUTATIONS`
   single-fact mutations, each followed by ``execute()`` and ``poll()``
   of one prepared query, must patch rather than rebuild: the backend's
   full/incremental snapshot loads and the maintainer's full/incremental
   refreshes must both be exactly 1/20, and the polled answers must equal
   the executed ones after every step.  Counters again, exact anywhere.
5. **Delta rules planned once** — on the Vicodi sample ABox, queries
   q1–q4 are prepared and polled, then :data:`DELTA_RULES_ROUNDS` seeded
   rounds of 4 deletes and 4 inserts each are followed by a poll of all
   four.  The maintainers must join-order exactly
   :data:`DELTA_RULES_PLANS` delta rules in all — each rule at most once,
   so never more than the rewritings have rules — and the maintained
   answers must equal re-evaluating the rewritings at the end.

The exhaustive version of the first two checks — all five Table 1
ontologies, generated fuzzing triples, homomorphism and MGU paths, the
epsilon invariant — lives in ``benchmarks/bench_hotpaths.py``
(``make bench-json``).

The script is import-safe for test collectors; it only runs under
``python benchmarks/perf_smoke.py``.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.api import OBDASystem  # noqa: E402
from repro.core.rewriter import TGDRewriter  # noqa: E402
from repro.database.evaluator import evaluate_ucq  # noqa: E402
from repro.logic.atoms import Atom  # noqa: E402
from repro.logic.canonical import (  # noqa: E402
    canonical_fingerprint,
    canonical_fingerprint_reference,
)
from repro.workloads import get_workload  # noqa: E402
from repro.workloads.stock_exchange_example import (  # noqa: E402
    figure1_queries,
    running_query,
    theory,
)

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


def _best_of(function, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def coverage_memo_check() -> bool:
    """Check 3: memo on and off agree on P5, within the chain-search ceiling."""
    workload = get_workload("P5")
    engines = {
        memoise: TGDRewriter(
            workload.theory.tgds, use_elimination=True, use_memoisation=memoise
        )
        for memoise in (True, False)
    }
    identical = True
    for name in workload.query_names:
        query = workload.query(name)
        memoised, plain = (engines[memoise].rewrite(query) for memoise in (True, False))
        if memoised.ucq.queries != plain.ucq.queries:
            print(f"P5/{name}: TGD-rewrite* members differ with memoisation on and off")
            identical = False
    searches = {
        memoise: engine.eliminator.checker.chain_searches
        for memoise, engine in engines.items()
    }
    print(
        f"coverage chain searches on P5: memo on {searches[True]}, "
        f"off {searches[False]} (ceiling {COVERAGE_SEARCH_CEILING})"
    )
    if searches[True] > COVERAGE_SEARCH_CEILING:
        print(
            f"error: {searches[True]} coverage chain searches exceed the "
            f"ceiling of {COVERAGE_SEARCH_CEILING}",
            file=sys.stderr,
        )
        return False
    if not identical:
        print("error: the coverage memo changed a rewriting", file=sys.stderr)
    return identical


def change_log_reader_check() -> bool:
    """Check 4: single-fact mutations are patched in, never rebuilt."""
    workload = get_workload("S")
    system = OBDASystem(workload.theory, database=workload.abox(), backend="sqlite")
    database = system.database
    prepared = system.prepare(workload.query("q2"))
    rng = random.Random(CHANGE_LOG_SEED)
    predicates = sorted(database.predicates(), key=lambda p: (p.name, p.arity))
    constants = sorted(database.constants(), key=lambda c: repr(c.value))
    agreed = prepared.execute().tuples == frozenset(prepared.poll().added)
    for _ in range(CHANGE_LOG_MUTATIONS):
        changed = False
        while not changed:  # retry until the fact set really changes
            facts = sorted(database.facts, key=repr)
            if facts and rng.random() < 0.4:
                changed = database.remove(rng.choice(facts))
            else:
                predicate = rng.choice(predicates)
                changed = database.add(
                    Atom(
                        predicate,
                        tuple(rng.choice(constants) for _ in range(predicate.arity)),
                    )
                )
        answers = prepared.execute().tuples
        prepared.poll()
        agreed = agreed and answers == prepared.maintained_answers
    backend = system.backend_for("sqlite")
    counters = prepared.maintainer().counters
    loads = (backend.full_loads, backend.incremental_loads)
    refreshes = (counters.full_refreshes, counters.incremental_refreshes)
    system.close()
    print(
        f"change-log reader on S (sqlite, {CHANGE_LOG_MUTATIONS} mutations): "
        f"full/incremental loads {loads[0]}/{loads[1]}, refreshes "
        f"{refreshes[0]}/{refreshes[1]} (pinned {CHANGE_LOG_COUNTS[0]}/"
        f"{CHANGE_LOG_COUNTS[1]})"
    )
    if not agreed:
        print("error: poll() and execute() answers diverged", file=sys.stderr)
        return False
    if loads != CHANGE_LOG_COUNTS or refreshes != CHANGE_LOG_COUNTS:
        print(
            "error: a change-log consumer rebuilt instead of patching",
            file=sys.stderr,
        )
        return False
    return True


def delta_rules_check() -> bool:
    """Check 5: churn polls reuse their delta-rule plans."""
    workload = get_workload("V")
    system = OBDASystem(workload.theory, database=workload.abox())
    database = system.database
    prepared = [system.prepare(workload.query(name)) for name in DELTA_RULES_QUERIES]
    rules = sum(
        len(query.body) + 1 for handle in prepared for query in handle.rewriting.ucq
    )
    for handle in prepared:
        handle.poll()
    rng = random.Random(DELTA_RULES_SEED)
    predicates = sorted(database.predicates(), key=lambda p: (p.name, p.arity))
    constants = sorted(database.constants(), key=lambda c: repr(c.value))
    for _ in range(DELTA_RULES_ROUNDS):
        for _ in range(4):
            database.remove(rng.choice(sorted(database.facts, key=repr)))
        for _ in range(4):
            predicate = rng.choice(predicates)
            database.add(
                Atom(
                    predicate,
                    tuple(rng.choice(constants) for _ in range(predicate.arity)),
                )
            )
        for handle in prepared:
            handle.poll()
    plans = sum(handle.maintainer().counters.delta_plans for handle in prepared)
    agreed = all(
        handle.maintained_answers == evaluate_ucq(handle.rewriting.ucq, database)
        for handle in prepared
    )
    system.close()
    print(
        f"delta rules on V q1-q4 ({DELTA_RULES_ROUNDS} rounds of 4+4 "
        f"mutations): {plans} plans of {rules} rules (pinned {DELTA_RULES_PLANS})"
    )
    if not agreed:
        print("error: maintained answers differ from re-evaluation", file=sys.stderr)
        return False
    if plans > rules or plans != DELTA_RULES_PLANS:
        print(
            f"error: {plans} delta-rule plans, pinned {DELTA_RULES_PLANS} "
            f"(at most one per rule, {rules})",
            file=sys.stderr,
        )
        return False
    return True


def main() -> int:
    example = theory()
    queries = {"running": running_query()}
    queries.update(
        {f"figure1-q{i}": query for i, query in enumerate(figure1_queries())}
    )
    failures = 0
    corpus = []
    sequential = TGDRewriter(example.tgds)
    auto = TGDRewriter(example.tgds, strategy="auto")
    for name, query in queries.items():
        reference = sequential.rewrite(query)
        candidate = auto.rewrite(query)
        corpus.extend(reference.ucq)
        size_ok = len(candidate.ucq) == len(reference.ucq)
        keys_ok = [m.canonical_key for m in candidate.ucq] == [
            m.canonical_key for m in reference.ucq
        ]
        members_ok = candidate.ucq.queries == reference.ucq.queries
        status = "ok" if (size_ok and keys_ok and members_ok) else "MISMATCH"
        print(
            f"stock-exchange/{name}: sequential {len(reference.ucq)} CQs, "
            f"auto {len(candidate.ucq)} CQs — {status}"
        )
        if status != "ok":
            failures += 1
    auto.strategy.close()
    if failures:
        print(
            f"error: {failures} queries diverged between sequential and "
            "auto scheduling",
            file=sys.stderr,
        )
        return 1

    flat_keys = [canonical_fingerprint(query) for query in corpus]
    reference_keys = [canonical_fingerprint_reference(query) for query in corpus]
    if flat_keys != reference_keys:
        print(
            "error: flat canonical keys diverge from the reference "
            "implementation",
            file=sys.stderr,
        )
        return 1
    reference_seconds = _best_of(
        lambda: [canonical_fingerprint_reference(query) for query in corpus]
    )
    flat_seconds = _best_of(
        lambda: [canonical_fingerprint(query) for query in corpus]
    )
    speedup = reference_seconds / flat_seconds if flat_seconds > 0 else float("inf")
    print(
        f"canonical keys: {len(corpus)} CQs, reference "
        f"{reference_seconds:.4f}s -> flat {flat_seconds:.4f}s "
        f"(speedup {speedup:.2f}x)"
    )
    if speedup < SPEEDUP_FLOOR:
        print(
            f"error: flat canonical-key kernel slower than reference "
            f"({speedup:.2f}x < {SPEEDUP_FLOOR}x)",
            file=sys.stderr,
        )
        return 1
    if not coverage_memo_check():
        return 1
    if not change_log_reader_check():
        return 1
    if not delta_rules_check():
        return 1
    print(
        "# perf smoke: auto byte-identical with sequential; flat canonical "
        f"kernel {speedup:.2f}x; coverage memo within its search ceiling; "
        "change-log consumers patch every single-fact mutation; delta "
        "rules planned once"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
