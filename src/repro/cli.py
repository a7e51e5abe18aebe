"""Command-line interface: ``python -m repro <command>``.

Six small commands expose the library without writing Python:

``workloads``
    List the registered evaluation workloads and their sizes.

``table1 [WORKLOAD ...] [--systems QO RQ NY NY*] [--queries q1 ...]``
    Reproduce (blocks of) Table 1 and print size / length / width per system.

``rewrite --tbox FILE --query "q(A) :- Person(A)" [--no-elimination] [--sql]``
    Parse a DL-Lite_R TBox (textual syntax of :mod:`repro.ontology.parser`),
    rewrite one conjunctive query and print the resulting UCQ (optionally as
    SQL).  ``--checkpoint FILE`` saves the frontier after every generation,
    and a rerun with the same file continues a killed run from its last
    completed generation (a file from another TBox, query or engine option
    is ignored).

``compile (--tbox FILE | --workload NAME) [--queries FILE] [--cache DIR]``
    Batch-compile a whole query workload through one engine — optionally
    against a persistent rewriting cache, so a second invocation with the
    same ``--cache`` directory serves every rewriting from disk.
    ``--workers N`` compiles cold misses on a process pool, one query per
    task (default: one worker per CPU; the stored bytes are identical
    under any worker count).  ``--checkpoint-dir DIR`` compiles one query
    at a time instead, each under a frontier checkpoint in DIR saved after
    every generation, so a rerun resumes the query a kill interrupted.
    With ``--fail-on-miss`` the command reports every query not served
    from the cache and exits non-zero (the warm-run assertion used in CI).

``cache compact --cache DIR --max-entries N``
    Bound a persistent rewriting cache to its N most-recently-served
    entries, rewriting the JSON-lines file atomically.

``answer (--workload NAME | --tbox FILE --data FILE) [--backend B]``
    Answer queries end-to-end through the prepare/execute serving
    lifecycle on a chosen execution backend (``memory``, ``sqlite``) —
    or on ``both``, in which case the two answer sets are compared and a
    disagreement exits non-zero, printing the minimal differing tuples
    (the differential gate behind ``make answer-smoke``).  ``--repeat N``
    re-executes each prepared query and reports the answer-cache hits the
    warm runs were served from.

``serve [--port P] [--cache DIR] [--max-tenants N] [--backend B]``
    Run the multi-tenant asyncio HTTP/JSON serving front end
    (:mod:`repro.serving`): tenants register ontologies over HTTP and
    issue prepared, coalesced, answer-cached queries.  ``--preload
    "NAME=WORKLOAD" ...`` registers tenants before the socket opens.
    With ``--cache DIR`` the service is restart-warm: rewritings are
    served from the persistent store and killed compiles resume from
    frontier checkpoints.  ``--compile-timeout`` / ``--answer-timeout``
    set the per-phase request budgets (0 disables),
    ``--max-inflight-compiles`` / ``--queue-depth`` the load-shedding
    bounds and ``--breaker-threshold`` the per-query circuit breaker.
    See ``docs/SERVING.md`` and ``docs/OPERATIONS.md``.

``chaos [--seed N] [--cases K] [--replay FILE]``
    Hold the serving tier's resilience contracts to seeded
    fault-injection (:mod:`repro.serving.chaos`): each case replays a
    generated workload against an app with injected executor stalls,
    mid-compile kills, backend errors and cache write failures, and
    asserts the invariants — deadlines honored, warm traffic never
    starved, post-recovery answers byte-identical to the undisturbed
    run.  Violations are written as replayable repro files.

``fuzz [--seed N] [--cases K] [--fragment F] [--shrink]``
    Generate seeded synthetic (theory, query, instance) triples per
    fragment and hold the whole stack to the three differential oracles
    of :mod:`repro.fuzzing` (chase agreement, backend agreement,
    strategy/store determinism).  Failing cases are written as replayable
    repro files (minimised first with ``--shrink``); ``--replay FILE``
    re-runs a repro file.  See ``docs/FUZZING.md``.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Sequence

from .api import OBDASystem, resolve_engine_options
from .core.rewriter import TGDRewriter
from .database.sql import ucq_to_sql
from .dependencies.theory import OntologyTheory
from .evaluation import SYSTEMS, Table1Evaluator, format_rows
from .metrics import ucq_metrics
from .ontology.parser import parse_ontology
from .ontology.translation import to_theory
from .queries.conjunctive_query import ConjunctiveQuery
from .queries.parser import parse_query
from .workloads import default_registry, get_workload


def _cmd_workloads(_: argparse.Namespace) -> int:
    """List every registered workload."""
    for workload in sorted(default_registry(), key=lambda w: w.name):
        print(
            f"{workload.name:4s} {len(workload.theory.tgds):3d} TGDs, "
            f"{len(workload.theory.negative_constraints):2d} NCs, "
            f"{len(workload.queries)} queries — {workload.description}"
        )
    return 0


def _cmd_table1(arguments: argparse.Namespace) -> int:
    """Reproduce Table 1 for the requested workloads."""
    names = arguments.workloads or ["V", "S", "U", "A", "P5"]
    for name in names:
        workload = get_workload(name)
        evaluator = Table1Evaluator(workload, systems=tuple(arguments.systems))
        rows = evaluator.rows(arguments.queries or None)
        print(f"=== {name} — {workload.description}")
        print(format_rows(rows, systems=tuple(arguments.systems)))
        print()
    return 0


def _cmd_rewrite(arguments: argparse.Namespace) -> int:
    """Rewrite a single query against a textual DL-Lite TBox."""
    from .cache.checkpoint import FrontierCheckpoint

    tbox_text = Path(arguments.tbox).read_text(encoding="utf-8")
    theory = to_theory(parse_ontology(tbox_text, name=Path(arguments.tbox).stem))
    query = parse_query(arguments.query)
    options = resolve_engine_options(
        theory, use_elimination=not arguments.no_elimination
    )
    rewriter = TGDRewriter(
        theory,
        use_elimination=options.use_elimination,
        use_nc_pruning=options.use_nc_pruning,
    )
    checkpoint = (
        FrontierCheckpoint(arguments.checkpoint) if arguments.checkpoint else None
    )
    result = rewriter.rewrite(query, checkpoint=checkpoint)
    metrics = ucq_metrics(result.ucq)
    print(f"# perfect rewriting: {metrics.size} CQs, {metrics.length} atoms, "
          f"{metrics.width} joins ({result.statistics.elapsed_seconds:.3f}s)")
    if checkpoint is not None and checkpoint.resumed_generation is not None:
        print(f"# resumed from checkpoint at generation {checkpoint.resumed_generation}")
    if arguments.stats:
        statistics = result.statistics
        total_rules = statistics.rules_considered + statistics.rules_skipped_by_index
        print(
            f"# rule index: {statistics.rules_considered}/{total_rules} "
            f"candidate rules considered "
            f"({statistics.rules_skipped_by_index} skipped by head-predicate index)"
        )
        print(
            f"# interning: {statistics.variant_lookups} lookups, "
            f"{statistics.variant_cache_hits} variant hits "
            f"({statistics.variant_exact_hits} by canonical key alone), "
            f"{statistics.variant_confirmations} confirmations, "
            f"{statistics.canonical_collisions} key collisions, "
            f"{statistics.interned_queries} queries in "
            f"{statistics.canonical_buckets} buckets"
        )
        print(
            f"# pruning: {statistics.pruned_by_constraints} by negative "
            f"constraints, {statistics.pruned_dead_ends} dead ends dropped"
        )
        print(
            f"# memoisation: {statistics.rename_cache_hits} rename-apart hits / "
            f"{statistics.rename_cache_misses} misses"
        )
    if arguments.sql:
        print(ucq_to_sql(result.ucq))
    else:
        for cq in result.ucq:
            print(cq)
    return 0


def _load_theory_and_queries(
    arguments: argparse.Namespace,
) -> tuple[OntologyTheory, list[tuple[str, ConjunctiveQuery]]]:
    """Resolve the ``compile`` command's theory and named query list."""
    if arguments.workload:
        workload = get_workload(arguments.workload)
        theory = workload.theory
        named = [(name, workload.query(name)) for name in workload.query_names]
    else:
        tbox_text = Path(arguments.tbox).read_text(encoding="utf-8")
        theory = to_theory(parse_ontology(tbox_text, name=Path(arguments.tbox).stem))
        named = []
    if arguments.queries:
        named = []
        for number, line in enumerate(
            Path(arguments.queries).read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            named.append((f"line {number}", parse_query(line)))
    if not named:
        raise SystemExit(
            "no queries to compile: pass --queries FILE (or --workload NAME, "
            "whose q1..q5 are used by default)"
        )
    return theory, named


def _cmd_compile(arguments: argparse.Namespace) -> int:
    """Batch-compile a query workload, optionally against a persistent cache."""
    if arguments.fail_on_miss and not arguments.cache:
        print(
            "error: --fail-on-miss requires --cache DIR (without a store every "
            "query is a miss by definition)",
            file=sys.stderr,
        )
        return 2
    if arguments.workers is not None and arguments.workers < 1:
        print(
            f"error: --workers must be >= 1, got {arguments.workers}",
            file=sys.stderr,
        )
        return 2
    theory, named = _load_theory_and_queries(arguments)
    system = OBDASystem(
        theory,
        use_elimination=not arguments.no_elimination,
        cache=arguments.cache,
    )
    results = system.compile_many(
        [query for _, query in named],
        workers=arguments.workers,
        checkpoint_dir=arguments.checkpoint_dir,
    )
    total_seconds = 0.0
    seen: set[int] = set()
    missed: list[str] = []
    for (name, _), result in zip(named, results):
        statistics = result.statistics
        if id(result) in seen:
            # compile_many returns the same result object for duplicated
            # inputs: served from memory, nothing recompiled.
            source = "in-process hit"
        elif statistics.persistent_cache_hits:
            source = "cache hit"
        elif statistics.persistent_cache_misses:
            source = f"compiled in {statistics.elapsed_seconds:.3f}s"
            total_seconds += statistics.elapsed_seconds
            missed.append(name)
        else:
            source = f"compiled in {statistics.elapsed_seconds:.3f}s (no cache)"
            total_seconds += statistics.elapsed_seconds
            missed.append(name)
        seen.add(id(result))
        print(f"{name}: {result.size} CQs — {source}")
    info = system.rewriting_cache_info()
    print(
        f"# compiled {len(results)} queries "
        f"({info.persistent_hits} persistent hits, "
        f"{info.persistent_misses} misses, "
        f"{info.persistent_size} entries in store), "
        f"{total_seconds:.3f}s rewriting"
    )
    if arguments.stats:
        totals = system.last_batch_statistics
        if totals is not None:
            print(
                f"# workload totals: {totals.generated_by_rewriting} CQs by "
                f"rewriting, {totals.generated_by_factorization} by "
                f"factorization, {totals.pruned_by_constraints} pruned, "
                f"{totals.pruned_dead_ends} dead ends dropped, "
                f"{totals.eliminated_atoms} atoms eliminated, "
                f"{totals.processed_queries} queries processed, "
                f"{totals.variant_cache_hits} variant hits over "
                f"{totals.variant_lookups} lookups"
            )
        store = system.rewriting_store
        if store is not None:
            cache_statistics = store.statistics
            print(
                f"# store: {cache_statistics.exact_hits} exact-key hits, "
                f"{cache_statistics.confirmations} variant confirmations, "
                f"{cache_statistics.collisions} collisions, "
                f"{cache_statistics.stores} new entries, "
                f"{cache_statistics.skipped_records} skipped records"
            )
        print(f"# theory fingerprint: {system.theory_fingerprint}")
    if arguments.fail_on_miss and missed:
        # Report *every* miss before failing, so one CI run shows the
        # whole set of queries that needs (re)compiling.
        for name in missed:
            print(f"error: cache miss: {name}", file=sys.stderr)
        print(
            f"error: --fail-on-miss set but {len(missed)} "
            "queries were not served from the cache",
            file=sys.stderr,
        )
        return 1
    return 0


#: Fact lines accepted by ``repro answer --data``: ``relation(v1, v2, ...)``.
_FACT_LINE = re.compile(r"^(?P<name>[\w.:-]+)\s*\((?P<values>.*)\)\s*\.?$")


def _parse_fact_line(line: str) -> tuple[str, list[object]]:
    """Parse one ``relation(v1, v2)`` data line into (name, values).

    Unquoted numeric values become ints/floats; everything else is kept
    as a (possibly quoted) string.
    """
    match = _FACT_LINE.match(line)
    if match is None:
        raise ValueError(f"unreadable fact line: {line!r}")
    values: list[object] = []
    for raw in match.group("values").split(","):
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith(("'", '"')) and raw.endswith(raw[0]) and len(raw) >= 2:
            values.append(raw[1:-1])
            continue
        try:
            values.append(int(raw))
        except ValueError:
            try:
                values.append(float(raw))
            except ValueError:
                values.append(raw)
    return match.group("name"), values


def _cmd_answer(arguments: argparse.Namespace) -> int:
    """Answer queries end-to-end through prepare/execute on chosen backends."""
    from .evaluation import ANSWER_BACKENDS, AnsweringEvaluator

    backends = (
        list(ANSWER_BACKENDS) if arguments.backend == "both" else [arguments.backend]
    )
    if arguments.workload:
        workload = get_workload(arguments.workload)
        named = [(name, workload.query(name)) for name in workload.query_names]
        database = None
    else:
        if not arguments.data:
            print(
                "error: --tbox needs --data FILE (one relation(v1, v2) fact "
                "per line) to answer against",
                file=sys.stderr,
            )
            return 2
        theory, named = _load_theory_and_queries(arguments)
        from .database.instance import database_from_tuples
        from .workloads.registry import Workload

        facts = []
        for line in Path(arguments.data).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            facts.append(_parse_fact_line(line))
        database = database_from_tuples(facts)
        workload = Workload(
            name=Path(arguments.tbox).stem,
            theory=theory,
            queries={name: query for name, query in named},
            description="ad-hoc TBox",
        )
    if arguments.queries_filter:
        named = [(name, query) for name, query in named if name in set(arguments.queries_filter)]
        if not named:
            print("error: no queries left after --queries", file=sys.stderr)
            return 2
    evaluator = AnsweringEvaluator(
        workload,
        backends=backends,
        seed=arguments.seed,
        facts_per_relation=arguments.facts_per_relation,
        use_nc_pruning=True,
        database=database,
    )
    print(
        f"# {workload.name}: {len(evaluator.system.database)} facts, "
        f"backends: {', '.join(backends)}"
    )
    disagreements = []
    for name, query in named:
        for backend in backends:
            measurement = evaluator.measure(name, backend)
            prepared = evaluator.system.prepare(query, backend)
            for _ in range(max(0, arguments.repeat - 1)):
                prepared.execute()
            info = prepared.execution_cache_info()
            print(
                f"{name} [{backend}]: {measurement.answers} answers — "
                f"prepare {measurement.prepare_seconds:.3f}s, "
                f"execute {measurement.cold_seconds:.4f}s, "
                f"warm {measurement.warm_seconds:.4f}s "
                f"({info.hits} cache hits)"
            )
            if arguments.show and backend == backends[0]:
                for row in sorted(map(repr, evaluator.answers(name, backend)))[: arguments.show]:
                    print(f"    {row}")
            if arguments.explain:
                for line in prepared.explain().splitlines():
                    print(f"    {line}")
        if len(backends) > 1 and not evaluator.agree(name):
            from .fuzzing.oracle import format_answer_diff

            disagreements.append(name)
            reference = evaluator.answers(name, backends[0])
            for other in backends[1:]:
                candidate = evaluator.answers(name, other)
                if candidate != reference:
                    print(
                        f"error: backends disagree on {name}: "
                        + format_answer_diff(
                            backends[0], reference, other, candidate
                        ),
                        file=sys.stderr,
                    )
    if arguments.sql:
        for name, query in named:
            prepared = evaluator.system.prepare(query, "sqlite")
            print(f"-- {name}\n{prepared.sql}")
    evaluator.close()
    if disagreements:
        print(
            f"error: {len(disagreements)} queries with backend disagreement: "
            f"{', '.join(disagreements)}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_fuzz(arguments: argparse.Namespace) -> int:
    """Differential fuzzing: generate triples, hold them to the three oracles."""
    from .fuzzing import (
        FRAGMENTS,
        DifferentialOracle,
        GeneratorConfig,
        WorkloadGenerator,
        load_repro,
        shrink_case,
        write_repro,
    )

    oracle = DifferentialOracle(
        backends=tuple(arguments.backends),
        max_queries=arguments.max_queries,
        max_chase_atoms=arguments.max_chase_atoms,
        mutation_steps=arguments.mutations,
    )

    if arguments.replay:
        case, recorded = load_repro(arguments.replay)
        if recorded:
            print(f"# recorded failure: [{recorded.get('oracle')}] {recorded.get('detail')}")
        verdict = oracle.check(case)
        print(verdict.summary())
        return 0 if verdict.ok else 1

    fragments = (
        list(FRAGMENTS) if arguments.fragment == "all" else [arguments.fragment]
    )
    repro_directory = Path(arguments.repro_dir)
    failed_cases = 0
    for fragment in fragments:
        config = GeneratorConfig(
            fragment=fragment,
            predicates=arguments.predicates,
            max_arity=arguments.max_arity,
            rules=arguments.rules,
            fan_out=arguments.fan_out,
            existential_density=arguments.existential_density,
            query_atoms=arguments.query_atoms,
            facts_per_relation=arguments.facts_per_relation,
            domain_size=arguments.domain_size,
        )
        generator = WorkloadGenerator(seed=arguments.seed, config=config)
        ok = skipped = 0
        for index in range(arguments.cases):
            case = generator.case(index)
            verdict = oracle.check(case)
            if verdict.skipped is not None:
                skipped += 1
                print(f"{fragment}[{index}] {verdict.summary()}")
                continue
            if verdict.ok:
                ok += 1
                if not arguments.quiet:
                    print(f"{fragment}[{index}] {verdict.summary()}")
                continue
            failed_cases += 1
            print(f"{fragment}[{index}] {verdict.summary()}", file=sys.stderr)
            failure = verdict.failures[0]
            if arguments.shrink:
                case = shrink_case(
                    case,
                    oracle.failure,
                    on_progress=lambda message: print(f"  {message}"),
                )
            path = write_repro(
                repro_directory
                / f"fuzz-{fragment}-seed{arguments.seed}-case{index}.json",
                case,
                failure,
            )
            print(f"  repro written: {path}", file=sys.stderr)
        print(
            f"# {fragment}: {arguments.cases} cases, {ok} ok, "
            f"{skipped} skipped, {arguments.cases - ok - skipped} failed "
            f"(seed {arguments.seed})"
        )
    if failed_cases:
        print(
            f"error: {failed_cases} fuzz cases failed; repro files in "
            f"{repro_directory}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(arguments: argparse.Namespace) -> int:
    """Run the multi-tenant HTTP/JSON serving front end until interrupted."""
    import asyncio

    from .serving import ResilienceConfig, ServingApp, ServingServer

    preloads: list[tuple[str, str]] = []
    for spec in arguments.preload or []:
        name, separator, workload = spec.partition("=")
        if not separator or not name or not workload:
            print(
                f"error: --preload expects NAME=WORKLOAD, got {spec!r}",
                file=sys.stderr,
            )
            return 2
        preloads.append((name, workload))

    resilience = ResilienceConfig(
        compile_timeout=(
            arguments.compile_timeout if arguments.compile_timeout > 0 else None
        ),
        answer_timeout=(
            arguments.answer_timeout if arguments.answer_timeout > 0 else None
        ),
        max_inflight_compiles=arguments.max_inflight_compiles,
        queue_depth=arguments.queue_depth,
        breaker_threshold=arguments.breaker_threshold,
    )

    async def run() -> int:
        app = ServingApp(
            cache=arguments.cache,
            max_tenants=arguments.max_tenants,
            backend=arguments.backend,
            resilience=resilience,
            change_log=arguments.change_log,
        )
        for name, workload in preloads:
            response = await app.request(
                "POST", "/register-theory", {"tenant": name, "workload": workload}
            )
            if not response.ok:
                print(
                    f"error: preload {name}={workload} failed: "
                    f"{response.payload['error']['message']}",
                    file=sys.stderr,
                )
                await app.aclose()
                return 2
            print(f"# tenant {name}: workload {workload} registered")
        server = ServingServer(app, host=arguments.host, port=arguments.port)
        await server.start()
        cache_note = (
            f"cache {arguments.cache}" if arguments.cache else "memory-only"
        )
        print(f"# serving on http://{arguments.host}:{server.port} ({cache_note})")
        try:
            await server.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            print("# shutting down")
            await server.stop()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_chaos(arguments: argparse.Namespace) -> int:
    """Fault-injection gate: seeded chaos cases against the serving app."""
    from .serving.chaos import ChaosHarness

    harness = ChaosHarness(
        seed=arguments.seed,
        epsilon=arguments.epsilon,
        repro_directory=Path(arguments.repro_dir),
    )
    if arguments.replay:
        outcome = harness.replay(arguments.replay)
        print(outcome.summary())
        for violation in outcome.violations:
            print(f"  {violation}", file=sys.stderr)
        return 0 if outcome.ok else 1

    def on_case(outcome) -> None:
        if outcome.ok and arguments.quiet:
            return
        print(outcome.summary(), file=sys.stdout if outcome.ok else sys.stderr)
        for violation in outcome.violations:
            print(f"  {violation}", file=sys.stderr)

    report = harness.run(arguments.cases, on_case=on_case)
    print(report.summary())
    if not report.ok:
        print(
            f"error: {len(report.violations)} invariant violations; "
            f"repro files in {arguments.repro_dir}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_cache_compact(arguments: argparse.Namespace) -> int:
    """Bound a persistent rewriting cache to its N most recent entries."""
    from .cache.store import RewritingStore

    if arguments.max_entries < 1:
        print(
            f"error: --max-entries must be >= 1, got {arguments.max_entries}",
            file=sys.stderr,
        )
        return 2
    store = RewritingStore(arguments.cache)
    before = len(store)
    removed = store.compact(max_entries=arguments.max_entries)
    print(
        f"# compacted {store.path}: {before} -> {len(store)} entries "
        f"({removed} evicted, least recently served first)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ontological query rewriting and optimisation for Datalog±",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("workloads", help="list the evaluation workloads").set_defaults(
        handler=_cmd_workloads
    )

    table1 = commands.add_parser("table1", help="reproduce (blocks of) Table 1")
    table1.add_argument("workloads", nargs="*", help="workload names (default: V S U A P5)")
    table1.add_argument("--systems", nargs="+", default=list(SYSTEMS), choices=list(SYSTEMS))
    table1.add_argument("--queries", nargs="+", help="restrict to specific queries (q1 ... q5)")
    table1.set_defaults(handler=_cmd_table1)

    rewrite = commands.add_parser("rewrite", help="rewrite one query against a DL-Lite TBox")
    rewrite.add_argument("--tbox", required=True, help="path to a textual DL-Lite_R TBox")
    rewrite.add_argument("--query", required=True, help='e.g. "q(A) :- Person(A)"')
    rewrite.add_argument("--no-elimination", action="store_true",
                         help="disable query elimination (plain TGD-rewrite)")
    rewrite.add_argument("--sql", action="store_true", help="print the rewriting as SQL")
    rewrite.add_argument("--stats", action="store_true",
                         help="print rule-index, interning, pruning and memo counters")
    rewrite.add_argument("--checkpoint", metavar="FILE",
                         help="checkpoint the frontier after every generation; "
                         "a rerun resumes from FILE when it matches this TBox "
                         "and query (otherwise it starts fresh)")
    rewrite.set_defaults(handler=_cmd_rewrite)

    compile_ = commands.add_parser(
        "compile", help="batch-compile a query workload (persistent cache aware)"
    )
    source = compile_.add_mutually_exclusive_group(required=True)
    source.add_argument("--tbox", help="path to a textual DL-Lite_R TBox")
    source.add_argument("--workload", help="a registered workload name (e.g. S)")
    compile_.add_argument(
        "--queries",
        help="file with one query per line ('#' comments); defaults to the "
        "workload's q1..q5",
    )
    compile_.add_argument(
        "--cache", help="directory of the persistent rewriting cache"
    )
    compile_.add_argument("--no-elimination", action="store_true",
                          help="disable query elimination (plain TGD-rewrite)")
    compile_.add_argument("--workers", type=int, default=None, metavar="N",
                          help="worker processes for cold compilation "
                          "(default: one per CPU; 1 = sequential)")
    compile_.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                          help="make the batch resumable: compile one query at "
                          "a time under a frontier checkpoint in DIR, so a "
                          "rerun resumes the interrupted query; queries "
                          "finished before the kill are skipped only when "
                          "--cache holds them")
    compile_.add_argument("--stats", action="store_true",
                          help="print workload totals, persistent-store counters "
                          "and the theory fingerprint")
    compile_.add_argument("--fail-on-miss", action="store_true",
                          help="exit 1 unless every query was served from the "
                          "cache (all misses are reported first)")
    compile_.set_defaults(handler=_cmd_compile)

    answer = commands.add_parser(
        "answer",
        help="answer queries end-to-end on an execution backend "
        "(prepare/execute lifecycle)",
    )
    answer_source = answer.add_mutually_exclusive_group(required=True)
    answer_source.add_argument("--workload", help="a registered workload name (e.g. S)")
    answer_source.add_argument("--tbox", help="path to a textual DL-Lite_R TBox")
    answer.add_argument(
        "--data",
        help="fact file for --tbox mode: one relation(v1, v2) per line "
        "('#' comments)",
    )
    answer.add_argument(
        "--queries",
        help="file with one query per line — --tbox mode only",
    )
    answer.add_argument(
        "--query", dest="queries_filter", nargs="+", metavar="NAME",
        help="restrict to specific workload queries (e.g. q1 q3)",
    )
    answer.add_argument(
        "--backend", choices=["memory", "sqlite", "both"], default="memory",
        help="execution backend; 'both' differential-tests the two and "
        "exits 3 on disagreement",
    )
    answer.add_argument(
        "--seed", type=int, default=0,
        help="ABox generator seed for workload mode (default 0)",
    )
    answer.add_argument(
        "--facts-per-relation", type=int, default=10, metavar="N",
        help="ABox size knob for workload mode (default 10)",
    )
    answer.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="execute each prepared query N times (warm runs hit the "
        "answer cache)",
    )
    answer.add_argument(
        "--show", type=int, default=0, metavar="N",
        help="print up to N answer tuples per query",
    )
    answer.add_argument(
        "--sql", action="store_true",
        help="also print the SQL each query executes on the sqlite backend",
    )
    answer.add_argument(
        "--explain", action="store_true",
        help="print each backend's cost-aware plan: join order and "
        "estimated cost per disjunct",
    )
    answer.set_defaults(handler=_cmd_answer)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzzing: generated triples against the chase, "
        "backend and determinism oracles",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="base generator seed")
    fuzz.add_argument("--cases", type=int, default=20, metavar="K",
                      help="cases per fragment (default 20)")
    fuzz.add_argument("--fragment", default="all",
                      choices=["all", "linear", "sticky", "sticky-join"],
                      help="fragment to sweep (default: all three)")
    fuzz.add_argument("--shrink", action="store_true",
                      help="minimise failing cases (delete rules/atoms/facts "
                      "while the failure reproduces) before writing repro files")
    fuzz.add_argument("--repro-dir", default="repro-failures", metavar="DIR",
                      help="directory for replayable repro files of failing "
                      "cases (default: repro-failures)")
    fuzz.add_argument("--replay", metavar="FILE",
                      help="re-run one repro file instead of generating cases")
    fuzz.add_argument("--backends", nargs="+", metavar="B",
                      default=["memory", "sqlite"],
                      choices=["memory", "sqlite"],
                      help="execution backends the agreement oracle compares")
    fuzz.add_argument("--predicates", type=int, default=6,
                      help="schema predicates per generated theory")
    fuzz.add_argument("--max-arity", type=int, default=3,
                      help="maximum predicate arity")
    fuzz.add_argument("--rules", type=int, default=8,
                      help="TGDs per generated theory")
    fuzz.add_argument("--fan-out", type=int, default=2,
                      help="maximum body atoms per non-linear rule")
    fuzz.add_argument("--existential-density", type=float, default=0.4,
                      help="probability a rule head invents an existential")
    fuzz.add_argument("--query-atoms", type=int, default=2,
                      help="maximum query body atoms")
    fuzz.add_argument("--facts-per-relation", type=int, default=12,
                      help="ABox facts per schema predicate")
    fuzz.add_argument("--domain-size", type=int, default=18,
                      help="distinct constants in the ABox domain")
    fuzz.add_argument("--max-queries", type=int, default=50_000,
                      help="rewriting budget; exceeding it skips the case")
    fuzz.add_argument("--mutations", type=int, default=6, metavar="STEPS",
                      help="per-case mutation-sequence length for the incremental-"
                           "maintenance oracle (delta-maintained answers vs full "
                           "re-execution after every insert/delete step; 0 disables)")
    fuzz.add_argument("--max-chase-atoms", type=int, default=20_000,
                      help="atom cap on the chase oracle (cap hit weakens "
                      "the check to chase ⊆ rewriting)")
    fuzz.add_argument("--quiet", action="store_true",
                      help="print only skips, failures and per-fragment summaries")
    fuzz.set_defaults(handler=_cmd_fuzz)

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant HTTP/JSON ontology-serving front end",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 = ephemeral; default 8080)")
    serve.add_argument("--cache", metavar="DIR",
                       help="persistent cache directory (rewriting store + "
                       "compile checkpoints); omit for a memory-only service")
    serve.add_argument("--max-tenants", type=int, default=None, metavar="N",
                       help="admission control: reject registrations beyond N "
                       "tenants with HTTP 429")
    serve.add_argument("--backend", choices=["memory", "sqlite"],
                       default="memory",
                       help="default execution backend for new tenants")
    serve.add_argument("--preload", nargs="+", metavar="NAME=WORKLOAD",
                       help="register tenants before the socket opens, e.g. "
                       "--preload acme=S beta=U")
    serve.add_argument("--compile-timeout", type=float, default=30.0,
                       metavar="SEC",
                       help="per-request compile budget in seconds; a timed-out "
                       "compile returns 504 with its progress checkpointed "
                       "(0 disables; default 30)")
    serve.add_argument("--answer-timeout", type=float, default=10.0,
                       metavar="SEC",
                       help="per-request execution budget in seconds "
                       "(0 disables; default 10)")
    serve.add_argument("--max-inflight-compiles", type=int, default=8,
                       metavar="N",
                       help="global bound on concurrently running compiles; "
                       "cold requests beyond it are shed with 503")
    serve.add_argument("--queue-depth", type=int, default=256, metavar="N",
                       help="per-tenant bound on queued cold requests")
    serve.add_argument("--change-log", type=int, default=None, metavar="N",
                       help="per-tenant database change-log bound (entries kept "
                            "for incremental answer maintenance; subscriptions "
                            "fall back to full recomputation when a poll reaches "
                            "further back; default 10000)")
    serve.add_argument("--breaker-threshold", type=int, default=3, metavar="N",
                       help="consecutive compile failures before the per-query "
                       "circuit breaker opens")
    serve.set_defaults(handler=_cmd_serve)

    chaos = commands.add_parser(
        "chaos",
        help="seeded fault injection against the serving tier's "
        "resilience invariants",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed of the deterministic case stream")
    chaos.add_argument("--cases", type=int, default=10,
                       help="number of chaos cases to run")
    chaos.add_argument("--epsilon", type=float, default=0.5, metavar="SEC",
                       help="scheduling slack allowed beyond each request's "
                       "deadline before it counts as a violation")
    chaos.add_argument("--repro-dir", default="chaos-repros", metavar="DIR",
                       help="directory failing cases are written to as "
                       "replayable repro files")
    chaos.add_argument("--replay", metavar="FILE",
                       help="re-run the exact case recorded in a repro file")
    chaos.add_argument("--quiet", action="store_true",
                       help="print only failures and the final summary")
    chaos.set_defaults(handler=_cmd_chaos)

    cache = commands.add_parser(
        "cache", help="manage a persistent rewriting cache directory"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    compact = cache_commands.add_parser(
        "compact",
        help="evict least-recently-served entries down to a bound and "
        "rewrite the store file atomically",
    )
    compact.add_argument(
        "--cache", required=True, help="directory of the persistent rewriting cache"
    )
    compact.add_argument(
        "--max-entries", type=int, required=True, metavar="N",
        help="number of entries to keep (evicts beyond the N most recent)",
    )
    compact.set_defaults(handler=_cmd_cache_compact)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    arguments = build_parser().parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
