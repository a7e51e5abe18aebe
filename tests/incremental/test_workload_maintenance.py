"""The differential bar for PR 9: maintained answers ≡ full re-execution.

For every Table 1 workload the maintained answer set of a prepared query
must be **byte-identical** — through the serving tier's
:func:`~repro.serving.app.encode_answers` — to re-executing the full
rewriting from scratch, at *every* epoch of a seeded mutation sequence.
The sweep also covers batched polls (several mutations per poll, as a
churning tenant sees them), the truncation fallback (a tiny change log)
and a persistent-store round trip (the maintained set of a store-served
rewriting matches the freshly computed one).
"""

import json
import random
from itertools import combinations

import pytest

from repro.api import OBDASystem
from repro.database.evaluator import evaluate, evaluate_ucq
from repro.database.instance import RelationalInstance
from repro.fuzzing.generator import registry_cases
from repro.logic.atoms import Atom
from repro.logic.terms import Constant
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.serving.app import encode_answers

WORKLOADS = ("V", "S", "U", "A", "P5")


def encoded(tuples):
    return json.dumps(encode_answers(tuples))


def workload_seed(workload):
    """A per-workload seed that is the same in every process.

    Pure integer arithmetic, as :mod:`repro.fuzzing` derives its case
    seeds: ``hash()`` of a string is salted per process
    (``PYTHONHASHSEED``), so a failure seeded by it cannot be replayed.
    """
    return int.from_bytes(workload.encode(), "big")


def mutation_constants(database):
    constants = sorted(database.constants(), key=repr) or [Constant("m0")]
    return list(constants) + [Constant(f"m{i}") for i in range(3)]


def poll_and_check(prepared, database, previous):
    """Poll once; assert the delta composes and matches re-execution."""
    delta = prepared.poll()
    maintained = prepared.maintained_answers
    # The delta composes over the previous snapshot...
    assert (previous | delta.added) - delta.removed == maintained
    # ...and the maintained set is byte-identical to re-execution.
    expected = evaluate_ucq(prepared.rewriting.ucq, database)
    assert encoded(maintained) == encoded(expected)
    return maintained


def drive(system, prepared, rng, steps):
    """Apply *steps* seeded mutations, asserting byte-identity each epoch."""
    database = system.database
    predicates = sorted(database.predicates(), key=lambda p: (p.name, p.arity))
    constants = mutation_constants(database)
    previous = prepared.maintained_answers
    for _ in range(steps):
        facts = sorted(database.facts, key=repr)
        if facts and rng.random() < 0.4:
            database.remove(rng.choice(facts))
        else:
            predicate = rng.choice(predicates)
            terms = tuple(rng.choice(constants) for _ in range(predicate.arity))
            database.add(Atom.of(predicate.name, *terms))
        previous = poll_and_check(prepared, database, previous)


def joined_facts(ucq, database, rng):
    """Two facts one derivation of a disjunct joins on a shared variable.

    Returns ``()`` when no multi-atom disjunct has a derivation.
    """
    joins = [query for query in ucq if len(query.body) > 1]
    rng.shuffle(joins)
    for query in joins:
        # Answering every variable of the body enumerates its derivations.
        variables = sorted(query.variables, key=repr)
        derivations = evaluate(ConjunctiveQuery(query.body, variables), database)
        if not derivations:
            continue
        mapping = dict(zip(variables, min(derivations, key=repr)))
        for first, second in combinations(query.body, 2):
            pair = (first.apply(mapping), second.apply(mapping))
            if first.variables() & second.variables() and pair[0] != pair[1]:
                return pair
    return ()


def drive_batched(system, prepared, rng, steps):
    """Like :func:`drive`, with several mutations before each poll.

    Each poll sees a delete and an insert in the same relation, as a
    churn batch applies them, plus the deletion of two facts that join in
    one disjunct — so the over-delete must find each through the other on
    the pre-deletion view.  Returns how many polls saw such a pair.
    """
    database = system.database
    constants = mutation_constants(database)
    previous = prepared.maintained_answers
    joined = 0
    for _ in range(steps):
        victim = rng.choice(sorted(database.facts, key=repr))
        database.remove(victim)
        database.add(
            Atom(victim.predicate, tuple(rng.choice(constants) for _ in victim.terms))
        )
        pair = joined_facts(prepared.rewriting.ucq, database, rng)
        for fact in pair:
            database.remove(fact)
        joined += bool(pair)
        previous = poll_and_check(prepared, database, previous)
    return joined


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_maintenance_matches_full_reexecution(workload):
    for case in registry_cases(workload, scale=1, seed=0):
        database = RelationalInstance(facts=case.instance.facts)
        system = OBDASystem(case.theory, database=database)
        prepared = system.prepare(case.query)
        prepared.poll()
        drive(system, prepared, random.Random(workload_seed(workload)), steps=12)
        system.close()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_batched_polls_match_full_reexecution(workload):
    joined = 0
    for case in registry_cases(workload, scale=1, seed=0):
        database = RelationalInstance(facts=case.instance.facts)
        system = OBDASystem(case.theory, database=database)
        prepared = system.prepare(case.query)
        prepared.poll()
        rng = random.Random(workload_seed(workload))
        joined += drive_batched(system, prepared, rng, steps=6)
        assert prepared.maintainer().counters.incremental_refreshes == 6
        system.close()
    # The joined deletions really happened somewhere in the workload.
    assert joined


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_backends_agree_on_maintained_answers(backend):
    case = registry_cases("S", scale=1, seed=0)[0]
    database = RelationalInstance(facts=case.instance.facts)
    system = OBDASystem(case.theory, database=database, backend=backend)
    prepared = system.prepare(case.query)
    prepared.poll()
    drive(system, prepared, random.Random(7), steps=10)
    system.close()


def test_truncated_log_workload_falls_back_and_stays_identical():
    case = registry_cases("U", scale=1, seed=0)[0]
    database = RelationalInstance(facts=case.instance.facts, max_tracked_changes=1)
    system = OBDASystem(case.theory, database=database)
    prepared = system.prepare(case.query)
    prepared.poll()
    maintainer = prepared.maintainer()
    rng = random.Random(11)
    predicates = sorted(database.predicates(), key=lambda p: (p.name, p.arity))
    # Batch two mutations per poll so the 1-entry log can never reach
    # back to the maintainer's epoch: every poll takes the fallback.
    for step in range(5):
        for offset in range(2):
            predicate = rng.choice(predicates)
            terms = tuple(
                Constant(f"t{step}-{offset}-{i}") for i in range(predicate.arity)
            )
            database.add(Atom.of(predicate.name, *terms))
        prepared.poll()
        assert encoded(prepared.maintained_answers) == encoded(
            evaluate_ucq(prepared.rewriting.ucq, database)
        )
    assert maintainer.counters.truncation_fallbacks == 5
    assert maintainer.counters.incremental_refreshes == 0
    system.close()


def test_store_round_trip_preserves_maintenance(tmp_path):
    case = registry_cases("V", scale=1, seed=0)[0]
    store = tmp_path / "rewritings.sqlite"

    fresh = OBDASystem(
        case.theory,
        database=RelationalInstance(facts=case.instance.facts),
        cache=store,
    )
    fresh.prepare(case.query)  # populate the persistent store
    fresh.close()

    served = OBDASystem(
        case.theory,
        database=RelationalInstance(facts=case.instance.facts),
        cache=store,
    )
    prepared = served.prepare(case.query)  # rewriting now comes from disk
    prepared.poll()
    drive(served, prepared, random.Random(13), steps=8)
    served.close()
