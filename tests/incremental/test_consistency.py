"""The negative-constraint verdict is kept current from the change log.

``OBDASystem.check_consistency`` keeps one maintained answer set per
negative constraint, over that constraint's rewriting (a Boolean UCQ):
the set is non-empty exactly when the constraint is violated, and a
check refreshes every set.  These tests pin that the verdict and its
message equal a fresh system's after every step of a seeded mutation
script, and that a one-fact change is checked incrementally.
"""

import random
from contextlib import contextmanager

import pytest

from repro.api import InconsistentTheoryError, OBDASystem
from repro.database.instance import RelationalInstance
from repro.incremental.maintain import MaintainedAnswerSet
from repro.logic.atoms import Atom
from repro.logic.terms import Constant
from repro.workloads import get_workload

WORKLOADS = ("V", "S", "U", "A")
STEPS = 20


def verdict(system):
    """``None`` if *system*'s data is consistent, else the failure message."""
    try:
        system.check_consistency()
    except InconsistentTheoryError as error:
        return str(error)
    return None


def fresh_verdict(theory, database):
    """The verdict of a new system over a copy of *database*'s facts."""
    with OBDASystem(theory, database=RelationalInstance(database.facts)) as fresh:
        return verdict(fresh)


@contextmanager
def refresh_modes():
    """Record the mode of every maintained-answer-set refresh made inside."""
    modes = []
    refresh = MaintainedAnswerSet.refresh

    def recorded(self, *args, **kwargs):
        delta = refresh(self, *args, **kwargs)
        modes.append(delta.mode)
        return delta

    MaintainedAnswerSet.refresh = recorded
    try:
        yield modes
    finally:
        MaintainedAnswerSet.refresh = refresh


def mutate(database, predicates, constants, inserted, rng):
    """One seeded single-fact insert or delete that changes the facts.

    Inserts draw their values from a few constants, so they make and
    join violations; half the deletes take back a fact the script
    inserted, so violations are repaired too.
    """
    while True:
        if rng.random() < 0.4:
            facts = sorted(database.facts, key=repr)
            pool = inserted if inserted and rng.random() < 0.5 else facts
            if database.remove(rng.choice(pool)):
                return
        else:
            predicate = rng.choice(predicates)
            values = tuple(rng.choice(constants) for _ in range(predicate.arity))
            fact = Atom(predicate, values)
            if database.add(fact):
                inserted.append(fact)
                return


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
def test_verdict_equals_a_fresh_systems_after_every_mutation(name, seed):
    workload = get_workload(name)
    theory = workload.theory
    database = workload.abox(seed=seed)
    predicates = sorted(
        database.predicates()
        | {atom.predicate for nc in theory.negative_constraints for atom in nc.body},
        key=lambda p: (p.name, p.arity),
    )
    constants = sorted(database.constants(), key=repr)[:4]
    rng = random.Random(seed * 1000 + len(name))
    inserted = []
    seen = set()
    with OBDASystem(theory, database=database) as system:
        for step in range(STEPS + 1):
            if step:
                mutate(database, predicates, constants, inserted, rng)
            expected = fresh_verdict(theory, database)
            assert verdict(system) == expected, f"{name} step {step}"
            seen.add(expected is None)
    # The script reaches both verdicts on the ontologies whose ABoxes start
    # consistent, so repairs and new violations are both followed.
    if name in ("U", "A"):
        assert seen == {True, False}


def test_one_fact_changes_are_checked_incrementally():
    workload = get_workload("U")
    database = workload.abox()
    # prof_may is a FullProfessor, hence a Person: as a Course too, she
    # violates university#39 (Course ⊓ Person) through the TGDs.
    violation = Atom.of("Course", Constant("prof_may"))
    with OBDASystem(workload.theory, database=database) as system:
        with refresh_modes() as first:
            assert verdict(system) is None
        assert first == ["full"] * len(workload.theory.negative_constraints)
        database.add(violation)
        with refresh_modes() as inserted:
            message = verdict(system)
        assert "university#39" in message
        assert message == fresh_verdict(workload.theory, database)
        database.remove(violation)
        with refresh_modes() as deleted:
            assert verdict(system) is None
        assert inserted == deleted == ["incremental"] * len(first)
