"""Evaluation of CQs and UCQs over relational instances.

This is the "database side" of OBDA: once a query has been compiled into a
UCQ rewriting, the rewriting is a plain relational query and can be executed
directly on the database, with no further reasoning.  The evaluator performs
an index nested-loop join driven by a cost-aware greedy join ordering
(fewest estimated rows first, see :mod:`repro.database.planning`), using
the per-(position, value) indexes of
:class:`repro.database.instance.RelationalInstance`.

A join order is compiled once (:func:`compile_join`) into steps over
predicate tuples with numbered variable slots, and every search runs such
a :class:`JoinProgram`.  A plain atom is a one-predicate step; an atom of
a factored join (:class:`repro.queries.ucq.UnionAtom`) ranges over
several predicates, so one search evaluates every disjunct the join
stands for.  Each step probes the smallest index bucket of each of its
predicates in place (:meth:`~repro.database.instance.RelationalInstance.
probe`), which is safe because nothing mutates the instance while a
search runs: the serving tier searches under the tenant lock that
mutations take.  Once every answer variable is bound, the rest of the
body only has to be satisfiable, so it stops at its first witness, and
an answer already found is not searched for again.

Answers follow the paper's semantics: the answer to a CQ of arity *n* over an
instance is the set of *n*-tuples of **constants** for which a homomorphism
from the body into the instance exists (labelled nulls may witness
existential variables but never appear in answers); a BCQ answers positively
iff the empty tuple is an answer.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from ..logic.atoms import Atom
from ..logic.terms import Constant, Term, Variable
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import UnionAtom, UnionOfConjunctiveQueries
from .instance import RelationalInstance
from .planning import CardinalityEstimator


class JoinProgram(NamedTuple):
    """A join order compiled for :meth:`QueryEvaluator.answers`.

    Step ``i`` joins ``order[i]``; ``steps[i]`` is a tuple ``(known,
    probes, binds, repeats)`` classifying its 0-based positions:
    ``known`` holds ``(position, constant)`` pairs and ``probes``
    ``(position, slot)`` pairs of the variables bound before the step;
    both select facts through the index.  ``binds`` are the
    ``(position, slot)`` pairs of the variables first bound here and
    ``repeats`` their later occurrences in the same atom.  The steps hold
    plain integers where they can, so a long-lived program (a cached
    delta rule) adds little to what the garbage collector tracks.
    """

    order: tuple[Atom | UnionAtom, ...]
    steps: tuple[tuple, ...]
    #: Number of variable slots.
    slots: int
    #: The variables the seed binds; the first slots are theirs, in order.
    seeded: tuple[Term, ...]
    #: Per answer term: its slot, or ``-1`` and the term itself.
    answer: tuple[tuple[int, Term | None], ...]
    #: Steps run before every answer variable is bound; ``None`` if one
    #: never is, so the join has no answers.
    witness: int | None


def compile_join(
    order: Sequence[Atom | UnionAtom],
    answer_terms: Sequence[Term] = (),
    bound: Iterable[Term] = (),
    constants: Mapping[Term, Term] | None = None,
) -> JoinProgram:
    """Compile a join order (plain or union atoms) into a :class:`JoinProgram`.

    *bound* names the variables a seed will bind before the first step
    (a delta rule's pinned atom, an answer being rederived).
    *constants* renames constants, as :meth:`repro.backends.base.
    ExecutionPlan.execute`'s bindings do, in the body and the answer.
    """
    slots: dict[Term, int] = {}
    for variable in bound:
        slots.setdefault(variable, len(slots))
    seeded = tuple(slots)
    # How many steps run before each slot is bound.
    bound_after = [0] * len(slots)
    steps = []
    for atom in order:
        first_fresh = len(slots)
        known, probes, binds, repeats = [], [], [], []
        for position, term in enumerate(atom.terms):
            if not isinstance(term, Variable):
                value = constants.get(term, term) if constants else term
                known.append((position, value))
                continue
            slot = slots.get(term)
            if slot is None:
                slot = slots[term] = len(slots)
                binds.append((position, slot))
            elif slot >= first_fresh:
                repeats.append((position, slot))
            else:
                probes.append((position, slot))
        steps.append(
            (tuple(known), tuple(probes), tuple(binds), tuple(repeats))
        )
        bound_after += [len(steps)] * (len(slots) - first_fresh)
    answer = []
    witness: int | None = 0
    for term in answer_terms:
        slot = slots.get(term) if isinstance(term, Variable) else None
        if slot is None:
            answer.append((-1, constants.get(term, term) if constants else term))
            if isinstance(term, Variable):
                witness = None  # never bound: the join has no answers
        else:
            answer.append((slot, None))
            if witness is not None:
                witness = max(witness, bound_after[slot])
    return JoinProgram(
        tuple(order), tuple(steps), len(slots), seeded, tuple(answer), witness
    )


class QueryEvaluator:
    """Evaluates conjunctive queries and unions thereof over an instance.

    The instance is anything with :meth:`~repro.database.instance.
    RelationalInstance.probe`: a :class:`RelationalInstance` or the
    maintainer's :class:`~repro.incremental.view.OverlayInstance`.
    """

    def __init__(self, instance: RelationalInstance) -> None:
        self._instance = instance

    # -- public API ----------------------------------------------------------------

    def evaluate(self, query: ConjunctiveQuery) -> frozenset[tuple[Term, ...]]:
        """All answers (tuples of constants) of *query* over the instance."""
        return self.answers_for_order(self.join_order(query.body), query.answer_terms)

    def answers_for_order(
        self,
        ordered_body: Sequence[Atom],
        answer_terms: Sequence[Term],
        seed: Mapping[Term, Term] | None = None,
    ) -> frozenset[tuple[Term, ...]]:
        """Answers of a CQ whose join order has already been fixed.

        The search starts from *seed*, a binding of some variables to
        values (a delta rule's unifier, see :mod:`repro.incremental.
        maintain`); answer terms read their values from it like from any
        binding.  Callers that run one order many times compile it once
        with :func:`compile_join` and call :meth:`answers`.
        """
        seed = seed or {}
        program = compile_join(ordered_body, answer_terms, seed)
        return frozenset(self.answers(program, seed))

    def satisfiable(
        self, ordered_body: Sequence[Atom], seed: Mapping[Term, Term] | None = None
    ) -> bool:
        """``True`` iff some binding extending *seed* satisfies the ordered body."""
        seed = seed or {}
        return self.exists(compile_join(ordered_body, (), seed), seed)

    def answers(
        self,
        program: JoinProgram,
        seed: Mapping[Term, Term] | None = None,
        into: set[tuple] | None = None,
    ) -> set[tuple]:
        """Add the answers of *program* from *seed* to *into* and return it.

        An answer already in *into* is not searched for again, so joins
        sharing one set (the factored joins of a UCQ) skip each other's
        answers.
        """
        answers = set() if into is None else into
        self._run(program, seed, answers)
        return answers

    def exists(
        self, program: JoinProgram, seed: Mapping[Term, Term] | None = None
    ) -> bool:
        """``True`` iff *program* has an answer from *seed*; stops at the first."""
        return self._run(program, seed, None)

    def evaluate_ucq(
        self, ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery]
    ) -> frozenset[tuple[Term, ...]]:
        """Union of the answers of all member CQs, each evaluated on its own."""
        answers: set[tuple[Term, ...]] = set()
        for query in ucq:
            program = compile_join(self.join_order(query.body), query.answer_terms)
            self.answers(program, into=answers)
        return frozenset(answers)

    def entails(self, query: ConjunctiveQuery) -> bool:
        """``True`` iff the (Boolean or non-Boolean) query has at least one answer.

        For a BCQ this is the ``I |= q`` check of the paper; for a CQ with
        answer variables it checks non-emptiness of the answer set.
        """
        return self.exists(
            compile_join(self.join_order(query.body), query.answer_terms)
        )

    def entails_ucq(
        self, ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery]
    ) -> bool:
        """``True`` iff some member CQ has an answer."""
        return any(self.entails(query) for query in ucq)

    def join_order(self, body: Sequence[Atom]) -> list[Atom]:
        """Cost-aware greedy join ordering (fewest estimated rows first).

        Delegates to :meth:`repro.database.planning.CardinalityEstimator.
        plan_body`, which estimates each candidate's output from the
        instance's relation sizes and per-position distinct counts; the
        previous structural heuristic (bound terms, relation size)
        survives as the tie-break.  The order affects evaluation cost
        only, never the answer set.
        """
        return list(CardinalityEstimator(self._instance).plan_body(body).order)

    # -- the search ----------------------------------------------------------------

    def _run(
        self,
        program: JoinProgram,
        seed: Mapping[Term, Term] | None,
        answers: set[tuple] | None,
    ) -> bool:
        """Run *program*: collect into *answers*, or with ``None`` stop at one."""
        if program.witness is None:
            return False
        values: list = [None] * program.slots
        for slot, variable in enumerate(program.seeded):
            values[slot] = seed[variable]
        probe = self._instance.probe
        if program.witness == 0:
            return _gate(program, values, answers, probe)
        return _walk(program, 0, values, answers, probe)


# The search is two plain functions rather than closures made per run, so
# a run creates no function objects or cells: standing queries run many
# tiny searches, and every allocation there is garbage-collector pressure.


def _walk(program: JoinProgram, index: int, values: list, answers, probe) -> bool:
    """Join step *index* and everything after it; ``True`` if some binding completes.

    Steps before ``program.witness`` enumerate every binding; the others
    look for one completion (and so does every step when *answers* is
    ``None``).  Whether a slot is bound before a step is fixed when the
    program is compiled, so a step overwrites its slots and never has to
    unbind them.
    """
    known, probes, binds, repeats = program.steps[index]
    if probes:
        known = (*known, *[(position, values[slot]) for position, slot in probes])
    # One bound position is the probed bucket's own: nothing to check.
    checks = known if len(known) > 1 else ()
    following = index + 1
    witness = program.witness
    first_only = answers is None or index >= witness
    found = False
    for predicate in program.order[index].predicates:
        for fact in probe(predicate, known):
            terms = fact.terms
            for position, value in checks:
                if terms[position] != value:
                    break
            else:
                for position, slot in binds:
                    values[slot] = terms[position]
                for position, slot in repeats:
                    if terms[position] != values[slot]:
                        break
                else:
                    if following == witness:
                        matched = _gate(program, values, answers, probe)
                    elif following == len(program.steps):
                        matched = True
                    else:
                        matched = _walk(program, following, values, answers, probe)
                    if matched:
                        if first_only:
                            return True
                        found = True
    return found


def _gate(program: JoinProgram, values: list, answers, probe) -> bool:
    """Every answer variable is bound: read the answer, then find one completion.

    An answer with a labelled null is no answer; one already in *answers*
    is not searched for again.
    """
    row = tuple([values[slot] if slot >= 0 else term for slot, term in program.answer])
    for value in row:
        if not isinstance(value, Constant):
            return False
    if answers is not None and row in answers:
        return True
    witness = program.witness
    if witness == len(program.steps) or _walk(program, witness, values, answers, probe):
        if answers is not None:
            answers.add(row)
        return True
    return False


def evaluate(
    query: ConjunctiveQuery, instance: RelationalInstance
) -> frozenset[tuple[Term, ...]]:
    """Evaluate a single CQ over *instance*."""
    return QueryEvaluator(instance).evaluate(query)


def evaluate_ucq(
    ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery],
    instance: RelationalInstance,
) -> frozenset[tuple[Term, ...]]:
    """Evaluate a UCQ over *instance*."""
    return QueryEvaluator(instance).evaluate_ucq(ucq)
