"""The differential harness: the oracles every generated triple must pass.

For a triple ``(theory, query, instance)`` the :class:`DifferentialOracle`
asserts:

1. **chase agreement** — rewrite-then-evaluate returns exactly the
   certain answers the chase computes.  The chase is depth-bounded by the
   number of frontier generations ``D`` the rewriting itself took: a CQ
   produced by ``k ≤ D`` backward steps maps into the database, so the
   forward (oblivious) chase reproduces its image within ``k`` levels —
   depth ``D`` therefore captures every rewrite answer, while *any*
   truncated chase only derives certain answers (soundness).  Equality at
   depth ``D`` is exact; only when the atom cap cuts the chase short does
   the check weaken to ``chase ⊆ rewrite``.
2. **backend agreement** — every :class:`~repro.backends.base.
   ExecutionBackend` returns the same answer set for the rewriting.
3. **determinism** — each of :data:`STRATEGIES`, plus a persistent-store
   round-trip, produces a byte-identical rewriting (canonical JSON of the
   serialised result).
4. **elimination** — on linear theories, ``TGD-rewrite*`` (query
   elimination, §6) returns the answers of ``TGD-rewrite`` and of the
   chase, and its rewriting is byte-identical with the engine's
   memoisation on and off, under every compared strategy.  Memoisation
   is what lets a run skip elimination for candidates whose key it has
   already seen to eliminate nothing; off, every candidate is reduced.

Fault injection: a ``rewriting_mutator`` hook transforms every computed
``TGD-rewrite`` rewriting *uniformly* (so the determinism oracle stays
quiet) before the answers are computed — a planted bug in the rewriting
is then caught by the chase oracle, which is how
``tests/fuzzing/test_shrink.py`` exercises the shrinker end to end.
"""

from __future__ import annotations

import dataclasses
import json
import random
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..backends import create_backend
from ..cache.fingerprint import theory_fingerprint
from ..cache.serialization import UnserializableQueryError, result_to_json
from ..cache.store import RewritingStore
from ..chase.chase import chase
from ..core.rewriter import RewritingBudgetExceeded, RewritingResult, TGDRewriter
from ..database.evaluator import evaluate_ucq
from ..database.instance import RelationalInstance
from ..dependencies.classifiers import is_linear
from ..incremental import MaintainedAnswerSet
from ..logic.atoms import Atom
from ..logic.homomorphism import homomorphisms
from ..logic.terms import Constant, is_constant
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from ..scheduling import AutoStrategy, SequentialStrategy, ThreadedStrategy
from .generator import GeneratedCase

#: The scheduling strategies the determinism and elimination oracles
#: compare, the first giving the reference; each case builds and closes
#: its own.  ``auto`` rides along so the tuner's per-generation choices
#: are fuzzed against the sequential baseline on every case.  ``chunked``
#: is correct too but would start a process pool per case.
STRATEGIES = (SequentialStrategy, ThreadedStrategy, AutoStrategy)

#: Backends the agreement oracle compares by default.
DEFAULT_BACKENDS = ("memory", "sqlite")


@dataclass(frozen=True)
class OracleFailure:
    """One oracle's disagreement on one case."""

    oracle: str  # "chase" | "backends" | "determinism" | "elimination" | "maintenance"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.oracle}] {self.detail}"


@dataclass
class OracleVerdict:
    """Outcome of running the oracles on one case."""

    case: GeneratedCase
    failures: list[OracleFailure] = field(default_factory=list)
    skipped: str | None = None
    generations: int = 0
    rewriting_size: int = 0
    rewrite_answers: int = 0

    @property
    def ok(self) -> bool:
        """``True`` iff no oracle disagreed (a skipped case is not a failure)."""
        return not self.failures

    def summary(self) -> str:
        """One line for progress output."""
        if self.skipped is not None:
            return f"SKIP ({self.skipped}) {self.case.describe()}"
        status = "ok" if self.ok else "FAIL " + "; ".join(map(str, self.failures))
        return (
            f"{status} — {self.case.describe()}, {self.rewriting_size} CQs in "
            f"{self.generations} generations, {self.rewrite_answers} answers"
        )


def answer_diff(
    left: frozenset[tuple], right: frozenset[tuple]
) -> tuple[list[tuple], list[tuple]]:
    """The minimal differing tuple sets: ``(only in left, only in right)``.

    Both sides are sorted (by ``repr``, which is total over constant
    tuples) so diff output is deterministic.
    """
    only_left = sorted(left - right, key=repr)
    only_right = sorted(right - left, key=repr)
    return only_left, only_right


def format_answer_diff(
    left_name: str,
    left: frozenset[tuple],
    right_name: str,
    right: frozenset[tuple],
    limit: int = 5,
) -> str:
    """Human-readable minimal diff of two answer sets.

    Shows only the differing tuples (up to *limit* per side), never the
    full answer dumps — the point of the helper is that a disagreement on
    a 10⁴-tuple answer set prints the three tuples that differ.
    """
    only_left, only_right = answer_diff(left, right)
    if not only_left and not only_right:
        return f"{left_name} and {right_name} agree ({len(left)} answers)"
    parts = []
    for name, missing in ((left_name, only_left), (right_name, only_right)):
        if not missing:
            continue
        shown = ", ".join(repr(t) for t in missing[:limit])
        suffix = "" if len(missing) <= limit else f", … ({len(missing)} total)"
        parts.append(f"only in {name}: {shown}{suffix}")
    return "; ".join(parts)


def _canonical_bytes(result: RewritingResult) -> str:
    """The byte-identity channel: canonical JSON of the serialised result."""
    return json.dumps(result_to_json(result), sort_keys=True)


def _chase_answers(query: ConjunctiveQuery, atoms) -> frozenset[tuple]:
    """Evaluate *query* over a chase instance, keeping all-constant tuples."""
    answers: set[tuple] = set()
    for hom in homomorphisms(query.body, atoms):
        answer = tuple(hom.apply_term(term) for term in query.answer_terms)
        if all(is_constant(value) for value in answer):
            answers.add(answer)
    return frozenset(answers)


class DifferentialOracle:
    """Runs the oracles of the fuzzing gate on generated cases.

    Parameters
    ----------
    backends:
        Execution backends the agreement oracle compares (the first one's
        answers are the "rewrite answers" the chase oracle checks).
    max_queries:
        Rewriting budget; exceeding it *skips* the case (FO-rewritable
        fragments always terminate, but a generated theory can still be
        expensive — a skip is reported, never silently dropped).
    max_chase_atoms:
        Atom cap on the chase oracle.  When the cap fires before the
        depth bound, the chase answers are only a sound under-
        approximation and the oracle weakens to a subset check.
    rewriting_mutator:
        Optional fault-injection hook ``UCQ -> UCQ`` applied uniformly to
        every computed ``TGD-rewrite`` rewriting (see the module
        docstring).  The elimination oracle's ``TGD-rewrite*`` runs are
        left as the engine computes them: like the chase, they are the
        cross-check a planted bug must disagree with.
    mutation_steps:
        Length of the seeded insert/delete mutation sequence the
        incremental-maintenance oracle drives per case (0 disables it).
        At every step the delta-maintained answer set — once over a
        default change log and once over a 2-entry log that forces the
        truncation fallback — must be byte-identical to full
        re-execution of the same rewriting.
    """

    def __init__(
        self,
        backends: Sequence[str] = DEFAULT_BACKENDS,
        max_queries: int = 50_000,
        max_chase_atoms: int = 20_000,
        rewriting_mutator: Callable[
            [UnionOfConjunctiveQueries], UnionOfConjunctiveQueries
        ]
        | None = None,
        mutation_steps: int = 0,
    ) -> None:
        if not backends:
            raise ValueError("the agreement oracle needs at least one backend")
        self._backends = tuple(backends)
        self._max_queries = max_queries
        self._max_chase_atoms = max_chase_atoms
        self._mutator = rewriting_mutator
        self._mutation_steps = mutation_steps

    @property
    def backends(self) -> tuple[str, ...]:
        """Backend names the agreement oracle compares."""
        return self._backends

    # -- the oracles -------------------------------------------------------

    def check(self, case: GeneratedCase) -> OracleVerdict:
        """Run every oracle on one case."""
        verdict = OracleVerdict(case=case)
        rules = list(case.theory.tgds)

        # The generation count is the chase oracle's depth bound.
        generations: list[int] = []
        try:
            reference = self._rewrite(
                rules, case.query, on_generation=generations.append
            )
        except RewritingBudgetExceeded:
            verdict.skipped = f"rewriting budget ({self._max_queries}) exceeded"
            return verdict
        verdict.generations = len(generations)
        verdict.rewriting_size = len(reference.ucq)

        backend_answers = self._backend_oracle(verdict, reference.ucq, case)
        if backend_answers is not None:
            verdict.rewrite_answers = len(backend_answers)
            self._chase_oracle(verdict, backend_answers, case)
        self._determinism_oracle(verdict, reference, rules, case)
        if backend_answers is not None and is_linear(rules):
            self._elimination_oracle(verdict, backend_answers, rules, case)
        if self._mutation_steps > 0:
            self._maintenance_oracle(verdict, reference.ucq, case)
        return verdict

    def check_many(self, cases: Sequence[GeneratedCase]) -> list[OracleVerdict]:
        """Run the oracles on every case, in order."""
        return [self.check(case) for case in cases]

    def failure(self, case: GeneratedCase) -> OracleFailure | None:
        """The first failure of *case*, or ``None`` — the shrinker's predicate."""
        verdict = self.check(case)
        return verdict.failures[0] if verdict.failures else None

    # -- internals ---------------------------------------------------------

    def _rewrite(
        self, rules, query, strategy=None, on_generation=None
    ) -> RewritingResult:
        engine = TGDRewriter(rules, max_queries=self._max_queries)
        result = engine.rewrite(query, strategy=strategy, on_generation=on_generation)
        if self._mutator is not None:
            result = dataclasses.replace(result, ucq=self._mutator(result.ucq))
        return result

    def _backend_oracle(
        self,
        verdict: OracleVerdict,
        ucq: UnionOfConjunctiveQueries,
        case: GeneratedCase,
    ) -> frozenset[tuple] | None:
        """All backends agree; returns the first backend's answers."""
        answers: list[tuple[str, frozenset[tuple]]] = []
        for name in self._backends:
            backend = create_backend(name)
            try:
                plan = backend.prepare(ucq)
                answers.append((name, plan.execute(case.instance)))
            finally:
                backend.close()
        reference_name, reference = answers[0]
        for name, other in answers[1:]:
            if other != reference:
                verdict.failures.append(
                    OracleFailure(
                        "backends",
                        format_answer_diff(reference_name, reference, name, other),
                    )
                )
        return reference

    def _chase_oracle(
        self,
        verdict: OracleVerdict,
        rewrite_answers: frozenset[tuple],
        case: GeneratedCase,
        oracle: str = "chase",
    ) -> None:
        """Rewrite-then-evaluate equals the depth-D oblivious chase.

        *D* is the generation count of the ``TGD-rewrite`` run, whose
        answers are the certain answers; failures are reported under
        *oracle*.
        """
        depth = max(1, verdict.generations)
        result = chase(
            case.instance.facts,
            case.theory.tgds,
            variant="oblivious",
            max_depth=depth,
            max_atoms=self._max_chase_atoms,
        )
        chase_answers = _chase_answers(case.query, result.atoms)
        atom_capped = (
            not result.exhausted and len(result.atoms) >= self._max_chase_atoms
        )
        if atom_capped:
            # Truncated-by-atoms chase only under-approximates: soundness
            # (chase ⊆ rewrite) is all that can be checked.
            if not chase_answers <= rewrite_answers:
                verdict.failures.append(
                    OracleFailure(
                        oracle,
                        "rewriting misses certain answers: "
                        + format_answer_diff(
                            "chase", chase_answers, "rewriting", rewrite_answers
                        ),
                    )
                )
            return
        if chase_answers != rewrite_answers:
            verdict.failures.append(
                OracleFailure(
                    oracle,
                    format_answer_diff(
                        "rewriting", rewrite_answers, "chase", chase_answers
                    )
                    + f" (chase depth {depth})",
                )
            )

    def _determinism_oracle(
        self,
        verdict: OracleVerdict,
        reference: RewritingResult,
        rules,
        case: GeneratedCase,
    ) -> None:
        """Every strategy and a store round-trip reproduce the same bytes."""
        try:
            expected = _canonical_bytes(reference)
        except UnserializableQueryError:
            verdict.failures.append(
                OracleFailure(
                    "determinism", "generated rewriting is not serialisable"
                )
            )
            return
        for factory in STRATEGIES:
            with factory() as strategy:
                result = self._rewrite(rules, case.query, strategy)
            produced = _canonical_bytes(result)
            if produced != expected:
                verdict.failures.append(
                    OracleFailure(
                        "determinism",
                        f"strategy {factory.name!r} produced a different rewriting "
                        f"({len(result.ucq)} CQs vs {len(reference.ucq)})",
                    )
                )
        self._store_round_trip(verdict, reference, rules, case, expected)

    def _elimination_oracle(
        self,
        verdict: OracleVerdict,
        answers: frozenset[tuple],
        rules,
        case: GeneratedCase,
    ) -> None:
        """TGD-rewrite* answers like TGD-rewrite and the chase, memo-independently.

        *answers* are the ``TGD-rewrite`` answers.  The first of
        :data:`STRATEGIES` with memoisation on gives the reference
        rewriting; each of them, with memoisation on and off, must
        reproduce its bytes.
        """
        results = {}
        for factory in STRATEGIES:
            for memoised in (True, False):
                engine = TGDRewriter(
                    rules,
                    use_elimination=True,
                    max_queries=self._max_queries,
                    use_memoisation=memoised,
                )
                try:
                    with factory() as strategy:
                        results[factory.name, memoised] = engine.rewrite(
                            case.query, strategy=strategy
                        )
                except RewritingBudgetExceeded:
                    verdict.failures.append(
                        OracleFailure(
                            "elimination",
                            f"TGD-rewrite* under {factory.name!r} exceeded the "
                            "budget TGD-rewrite kept",
                        )
                    )
                    return
        reference_key = (STRATEGIES[0].name, True)
        reference = results[reference_key]
        try:
            produced = {
                key: _canonical_bytes(result) for key, result in results.items()
            }
        except UnserializableQueryError:
            produced = {}  # the determinism oracle reports unserialisable rewritings
        expected = produced.get(reference_key)
        for (name, memoised), result in results.items():
            if produced and produced[name, memoised] != expected:
                verdict.failures.append(
                    OracleFailure(
                        "elimination",
                        f"TGD-rewrite* under {name!r} with memoisation "
                        f"{'on' if memoised else 'off'} produced a different "
                        f"rewriting ({len(result.ucq)} CQs vs "
                        f"{len(reference.ucq)})",
                    )
                )
        backend = create_backend(self._backends[0])
        try:
            star_answers = backend.prepare(reference.ucq).execute(case.instance)
        finally:
            backend.close()
        if star_answers != answers:
            verdict.failures.append(
                OracleFailure(
                    "elimination",
                    format_answer_diff(
                        "TGD-rewrite*", star_answers, "TGD-rewrite", answers
                    ),
                )
            )
        self._chase_oracle(verdict, star_answers, case, oracle="elimination")

    def _maintenance_oracle(
        self,
        verdict: OracleVerdict,
        ucq: UnionOfConjunctiveQueries,
        case: GeneratedCase,
    ) -> None:
        """Delta-maintained answers == full re-execution, per mutation step.

        Drives a seeded interleaved insert/delete sequence over a copy of
        the case's instance.  Two maintainers track the same rewriting:
        one over a default change log (exercising the semi-naive /
        DRed incremental path) and one whose instance keeps *no* log
        entries (so every genuine mutation exercises the truncation
        fallback).  After every step both must be byte-identical — via
        the serving tier's ``encode_answers`` — to a from-scratch
        evaluation, and the reported delta must compose:
        previous ∪ added − removed = current.
        """
        from ..serving.app import encode_answers

        rng = random.Random(case.seed * 1_000_003 + self._mutation_steps)
        tracked = RelationalInstance(facts=case.instance.facts)
        truncated = RelationalInstance(
            facts=case.instance.facts, max_tracked_changes=0
        )
        maintainers = (
            ("tracked", tracked, MaintainedAnswerSet(ucq)),
            ("truncated-log", truncated, MaintainedAnswerSet(ucq)),
        )
        predicates = sorted(
            {fact.predicate for fact in case.instance.facts}
            | {atom.predicate for query in ucq for atom in query.body},
            key=lambda p: (p.name, p.arity),
        )
        constants = sorted(
            case.instance.constants(), key=lambda c: repr(c.value)
        ) or [Constant("m0")]
        constants = constants + [Constant(f"m{i}") for i in range(3)]
        for name, instance, maintainer in maintainers:
            maintainer.refresh(instance)
        for step in range(self._mutation_steps):
            facts = sorted(tracked.facts, key=repr)
            if facts and rng.random() < 0.4:
                mutation = ("remove", rng.choice(facts))
            else:
                predicate = rng.choice(predicates)
                mutation = (
                    "add",
                    Atom(
                        predicate,
                        tuple(
                            rng.choice(constants) for _ in range(predicate.arity)
                        ),
                    ),
                )
            for name, instance, maintainer in maintainers:
                kind, fact = mutation
                if kind == "add":
                    instance.add(fact)
                else:
                    instance.remove(fact)
                previous = maintainer.tuples
                delta = maintainer.refresh(instance)
                maintained = maintainer.tuples
                if (previous | delta.added) - delta.removed != maintained:
                    verdict.failures.append(
                        OracleFailure(
                            "maintenance",
                            f"step {step} ({name}): reported delta does not "
                            f"compose to the maintained set (mode {delta.mode})",
                        )
                    )
                    return
                expected = evaluate_ucq(ucq, instance)
                if json.dumps(encode_answers(maintained)) != json.dumps(
                    encode_answers(expected)
                ):
                    verdict.failures.append(
                        OracleFailure(
                            "maintenance",
                            f"step {step} ({name}, {kind} {fact}, mode "
                            f"{delta.mode}): "
                            + format_answer_diff(
                                "maintained", maintained, "re-executed", expected
                            ),
                        )
                    )
                    return
        counters = maintainers[1][2].counters
        if counters.truncation_fallbacks == 0 and self._mutation_steps > 3:
            verdict.failures.append(
                OracleFailure(
                    "maintenance",
                    "the zero-entry change log never forced a truncation "
                    "fallback — the fallback path went unexercised",
                )
            )

    def _store_round_trip(
        self,
        verdict: OracleVerdict,
        reference: RewritingResult,
        rules,
        case: GeneratedCase,
        expected: str,
    ) -> None:
        fingerprint = theory_fingerprint(rules)
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-store-") as directory:
            store = RewritingStore(directory)
            if not store.put(case.query, fingerprint, reference):
                verdict.failures.append(
                    OracleFailure("determinism", "store refused a fresh rewriting")
                )
                return
            # A fresh store instance reloads from disk: the round trip
            # actually exercises the serialisation, not the in-memory index.
            reloaded = RewritingStore(directory).get(
                case.query, fingerprint, tuple(rules)
            )
        if reloaded is None:
            verdict.failures.append(
                OracleFailure("determinism", "store lost a just-written rewriting")
            )
            return
        if _canonical_bytes(reloaded) != expected:
            verdict.failures.append(
                OracleFailure(
                    "determinism", "store round-trip changed the rewriting bytes"
                )
            )
