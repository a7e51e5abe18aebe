"""Machine-readable hot-path microbenchmarks (``make bench-json``).

Times the three tuple-encoded kernels of :mod:`repro.logic.flat` against
the object-walking reference implementations they replaced, on the CQ
corpus actually produced by the engine — the NY rewritings of the five
Table 1 ontologies plus generated fuzzing triples — and writes one JSON
document (``BENCH_hotpaths.json`` by default):

* **canonical** — WL canonical-key refinement
  (:func:`repro.logic.canonical.canonical_fingerprint` vs
  ``canonical_fingerprint_reference``) over every corpus CQ;
* **homomorphism** — find-first subsumption probes (prebuilt candidate
  index + :class:`repro.logic.flat.FlatTarget`, the quadratic pattern of
  subsumption removal) over all body pairs of each rewriting;
* **mgu** — most-general-unifier problems from every same-predicate atom
  pair inside the corpus bodies.

Every timed pair is also an identity check: the flat and reference
implementations must produce byte-identical canonical keys, the same
found/not-found verdicts and first homomorphisms, and equal MGUs — the
document records the flags and any mismatch aborts the run.

A second section measures the ``auto`` scheduling strategy, passed to
each run as ``rewrite(query, strategy=auto)``, against sequential
expansion on full workload compilations and records the hard invariant
the tuner promises: auto never loses to sequential by more than
:data:`repro.scheduling.AutoStrategy.EPSILON`, and the rewritings are
byte-identical.

The script is import-safe for test collectors; it only runs under
``python benchmarks/bench_hotpaths.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.rewriter import TGDRewriter  # noqa: E402
from repro.fuzzing import GeneratorConfig, WorkloadGenerator  # noqa: E402
from repro.fuzzing.generator import FRAGMENTS  # noqa: E402
from repro.logic.canonical import (  # noqa: E402
    canonical_fingerprint,
    canonical_fingerprint_reference,
)
from repro.logic.flat import FlatTarget  # noqa: E402
from repro.logic.homomorphism import (  # noqa: E402
    _candidate_index,
    homomorphisms,
    homomorphisms_reference,
)
from repro.logic.unification import mgu, mgu_reference  # noqa: E402
from repro.scheduling import AutoStrategy  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

WORKLOADS = ("A", "P5", "S", "U", "V")
SCHEMA_VERSION = 1
#: CQs per rewriting entering the quadratic homomorphism pairing.
HOM_CAP = 60


def _best_of(function, repeats: int) -> float:
    """Best wall-clock of *repeats* runs (the least-noise estimator)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def _harvest(cases_per_fragment: int):
    """The benchmark corpus: per-rewriting CQ lists plus provenance counts."""
    rewritings: list[list] = []
    table1_count = 0
    for name in WORKLOADS:
        workload = get_workload(name)
        engine = TGDRewriter(workload.theory.tgds)
        for query_name in workload.query_names:
            result = engine.rewrite(workload.query(query_name))
            members = list(result.ucq)
            rewritings.append(members)
            table1_count += len(members)
    generated_count = 0
    for fragment in FRAGMENTS:
        generator = WorkloadGenerator(
            seed=42, config=GeneratorConfig(fragment=fragment)
        )
        for case in generator.cases(cases_per_fragment):
            result = TGDRewriter(case.theory.tgds).rewrite(case.query)
            members = list(result.ucq)
            rewritings.append(members)
            generated_count += len(members)
    return rewritings, table1_count, generated_count


def _bench_canonical(queries, repeats: int) -> dict:
    reference = [canonical_fingerprint_reference(query) for query in queries]
    flat = [canonical_fingerprint(query) for query in queries]
    identical = reference == flat
    reference_seconds = _best_of(
        lambda: [canonical_fingerprint_reference(query) for query in queries],
        repeats,
    )
    flat_seconds = _best_of(
        lambda: [canonical_fingerprint(query) for query in queries], repeats
    )
    return {
        "problems": len(queries),
        "identical_outputs": identical,
        "reference_seconds": round(reference_seconds, 4),
        "flat_seconds": round(flat_seconds, 4),
        "speedup": round(reference_seconds / flat_seconds, 3)
        if flat_seconds > 0
        else None,
    }


def _hom_problems(rewritings):
    """Find-first probe pairs: every (source, target) body pair per rewriting.

    Targets are pre-encoded once (candidate index + flat target), exactly
    as :class:`repro.queries.containment.ContainmentIndex` amortises the
    quadratic subsumption sweep.
    """
    problems = []
    for members in rewritings:
        members = members[:HOM_CAP]
        targets = [
            (query, _candidate_index(query.body)) for query in members
        ]
        flat_targets = [FlatTarget(index) for _, index in targets]
        for source in members:
            for (target, index), flat_target in zip(targets, flat_targets):
                if source is target:
                    continue
                problems.append((source.body, index, flat_target))
    return problems


def _bench_hom(rewritings, repeats: int) -> dict:
    problems = _hom_problems(rewritings)

    def run_reference():
        return [
            next(homomorphisms_reference(body, (), index=index), None)
            for body, index, _ in problems
        ]

    def run_flat():
        return [
            next(homomorphisms(body, (), index=index, flat_target=flat), None)
            for body, index, flat in problems
        ]

    reference = run_reference()
    flat = run_flat()
    identical = len(reference) == len(flat) and all(
        (a is None) == (b is None) and (a is None or a == b)
        for a, b in zip(reference, flat)
    )
    reference_seconds = _best_of(run_reference, repeats)
    flat_seconds = _best_of(run_flat, repeats)
    return {
        "problems": len(problems),
        "found": sum(1 for item in flat if item is not None),
        "identical_outputs": identical,
        "reference_seconds": round(reference_seconds, 4),
        "flat_seconds": round(flat_seconds, 4),
        "speedup": round(reference_seconds / flat_seconds, 3)
        if flat_seconds > 0
        else None,
    }


def _mgu_problems(queries):
    problems = []
    for query in queries:
        atoms = query.body
        for i, left in enumerate(atoms):
            for right in atoms[i + 1 :]:
                if left.predicate == right.predicate:
                    problems.append((left, right))
    return problems


def _bench_mgu(queries, repeats: int) -> dict:
    problems = _mgu_problems(queries)

    def run_reference():
        return [mgu_reference([left, right]) for left, right in problems]

    def run_flat():
        return [mgu([left, right]) for left, right in problems]

    reference = run_reference()
    flat = run_flat()
    identical = reference == flat
    reference_seconds = _best_of(run_reference, repeats)
    flat_seconds = _best_of(run_flat, repeats)
    return {
        "problems": len(problems),
        "unifiable": sum(1 for item in flat if item is not None),
        "identical_outputs": identical,
        "reference_seconds": round(reference_seconds, 4),
        "flat_seconds": round(flat_seconds, 4),
        "speedup": round(reference_seconds / flat_seconds, 3)
        if flat_seconds > 0
        else None,
    }


def _bench_auto(repeats: int) -> dict:
    """Full-compilation wall-clock: auto strategy vs the sequential baseline."""
    per_workload = {}
    for name in WORKLOADS:
        workload = get_workload(name)
        queries = [workload.query(q) for q in workload.query_names]

        def compile_sequentially():
            engine = TGDRewriter(workload.theory.tgds)
            return [engine.rewrite(query) for query in queries]

        def compile_with_auto():
            engine = TGDRewriter(workload.theory.tgds)
            with AutoStrategy() as auto:
                return [engine.rewrite(query, strategy=auto) for query in queries]

        sequential_results = compile_sequentially()
        auto_results = compile_with_auto()
        identical = [list(a.ucq) for a in auto_results] == [
            list(s.ucq) for s in sequential_results
        ]
        sequential_seconds = _best_of(compile_sequentially, repeats)
        auto_seconds = _best_of(compile_with_auto, repeats)
        per_workload[name] = {
            "sequential_seconds": round(sequential_seconds, 4),
            "auto_seconds": round(auto_seconds, 4),
            "auto_over_sequential": round(auto_seconds / sequential_seconds, 3)
            if sequential_seconds > 0
            else None,
            "identical_outputs": identical,
            "within_epsilon": auto_seconds
            <= sequential_seconds * (1.0 + AutoStrategy.EPSILON),
        }
    return {
        "epsilon": AutoStrategy.EPSILON,
        "per_workload": per_workload,
        "all_identical": all(
            entry["identical_outputs"] for entry in per_workload.values()
        ),
        "all_within_epsilon": all(
            entry["within_epsilon"] for entry in per_workload.values()
        ),
    }


def run(repeats: int, cases_per_fragment: int) -> dict:
    rewritings, table1_count, generated_count = _harvest(cases_per_fragment)
    queries = [query for members in rewritings for query in members]
    document: dict = {
        "schema": SCHEMA_VERSION,
        "benchmark": "hotpaths",
        "workloads": list(WORKLOADS),
        "configuration": {
            "repeats": repeats,
            "cases_per_fragment": cases_per_fragment,
            "hom_cap_per_rewriting": HOM_CAP,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "corpus": {
            "rewritings": len(rewritings),
            "cqs": len(queries),
            "cqs_table1": table1_count,
            "cqs_generated": generated_count,
        },
        "hotpaths": {
            "canonical": _bench_canonical(queries, repeats),
            "homomorphism": _bench_hom(rewritings, repeats),
            "mgu": _bench_mgu(queries, repeats),
        },
    }
    document["auto_vs_sequential"] = _bench_auto(max(2, repeats - 1))
    hotpaths = document["hotpaths"]
    document["invariants"] = {
        "identical_outputs": all(
            section["identical_outputs"] for section in hotpaths.values()
        ),
        "canonical_speedup_ge_1": hotpaths["canonical"]["speedup"] is not None
        and hotpaths["canonical"]["speedup"] >= 1.0,
        "speedups_ge_1_5": sum(
            1
            for section in hotpaths.values()
            if section["speedup"] is not None and section["speedup"] >= 1.5
        ),
        "auto_all_identical": document["auto_vs_sequential"]["all_identical"],
        "auto_all_within_epsilon": document["auto_vs_sequential"][
            "all_within_epsilon"
        ],
    }
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_hotpaths.json", help="where to write the JSON"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timing runs per measurement; the best is kept (default 3)",
    )
    parser.add_argument(
        "--cases-per-fragment", type=int, default=15, metavar="K",
        help="generated triples per fragment added to the corpus (default 15)",
    )
    arguments = parser.parse_args(argv)
    document = run(arguments.repeats, arguments.cases_per_fragment)
    Path(arguments.output).write_text(
        json.dumps(document, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    hotpaths = document["hotpaths"]
    for path, section in hotpaths.items():
        print(
            f"{path}: {section['problems']} problems, "
            f"reference {section['reference_seconds']}s -> flat "
            f"{section['flat_seconds']}s (speedup {section['speedup']}x, "
            f"identical: {section['identical_outputs']})"
        )
    auto = document["auto_vs_sequential"]
    print(
        f"auto vs sequential: identical {auto['all_identical']}, within "
        f"epsilon({auto['epsilon']}) {auto['all_within_epsilon']} -> "
        f"{arguments.output}"
    )
    invariants = document["invariants"]
    failures = []
    if not invariants["identical_outputs"]:
        failures.append("flat and reference kernels disagree")
    if not invariants["auto_all_identical"]:
        failures.append("auto strategy changed rewriting bytes")
    if not invariants["auto_all_within_epsilon"]:
        failures.append("auto strategy lost to sequential beyond epsilon")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
