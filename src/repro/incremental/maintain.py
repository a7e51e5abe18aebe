"""Delta maintenance of UCQ answer sets over the instance change log.

The paper's pipeline compiles an ontological query *once* into a union of
conjunctive queries; afterwards answering is pure relational evaluation.
That makes standing queries cheap to maintain: UCQs are non-recursive, so
the classic semi-naive / DRed machinery degenerates into two simple
passes per changed fact, each running a fixed set of *delta rules* over
the few joins of predicate unions the rewriting factors into
(:meth:`repro.queries.ucq.UnionOfConjunctiveQueries.factored`) — the
joins a full execution runs.

* **Delta rules.**  A join with body ``a1, ..., an`` has one pinning rule
  per body position ``i`` — the body without ``ai``, join-ordered with
  ``ai``'s variables bound — and one rederive rule, the whole body
  join-ordered with the answer variables bound.  A changed fact over one
  of ``ai``'s predicates unifies with ``ai`` (:func:`unify_fact`) and
  seeds the evaluator's search over rule ``i``; an answer tuple seeds the
  rederive rule.  Nothing is rewritten, probed or planned per fact.

* **Insert.**  Any answer that is new at the current epoch must have a
  derivation using at least one inserted fact.  Running the pinning rules
  of every inserted fact over the current instance
  (:func:`pinned_answers`) yields exactly the answers gaining a new
  derivation — the delta rule of semi-naive evaluation — and those not
  yet in the answer set are added.

* **Delete.**  DRed without the recursive rederive loop: running the same
  pinning rules over the *pre-deletion* view
  (:class:`~repro.incremental.view.OverlayInstance` = current ∪ removed)
  over-approximates the answers that lost a derivation; an over-deleted
  answer is dropped only when no join's rederive rule (:func:`derives`)
  finds a derivation on the current instance.  Checking the whole union
  is what lets one answer set stand without support counts: an answer
  still derived elsewhere in the union survives.

* **Plan lifetime.**  A rule is join-ordered
  (:meth:`~repro.database.planning.CardinalityEstimator.plan_body`) and
  compiled (:func:`~repro.database.evaluator.compile_join`) the first
  time a poll needs it — never eagerly — always against the
  :class:`~repro.database.instance.RelationalInstance`, never the
  overlay, and reused by later polls, which compile nothing.  Every full
  refresh empties the
  cache.  So does drift: once the incremental refreshes since the cache
  was emptied have applied more facts than the instance held then (the
  threshold at which the change log reports ``OVERSIZE``), the plans were
  made on data too different from today's.  The cache holds at most one
  plan per rule, so the rewriting bounds it.  Join order changes the
  cost of a rule, never its answers.

The change log is read through :meth:`RelationalInstance.net_changes_since`,
which also decides when it cannot be used (truncated, or the delta
outweighs the data) — the one policy the SQLite snapshot loader shares.
Then, and whenever the data changed somewhere the instance log does not
see (an attached SQLite file), the maintainer re-executes the whole
rewriting through its execution plan.  Correctness never depends on the
log.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Sequence

from ..backends.memory import InMemoryPlan
from ..database.evaluator import JoinProgram, QueryEvaluator, compile_join
from ..database.instance import LogGap, RelationalInstance
from ..database.planning import CardinalityEstimator
from ..logic.atoms import Atom, Predicate
from ..logic.terms import Term, is_variable
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import UnionAtom, UnionOfConjunctiveQueries
from .view import OverlayInstance


def _unify(terms: Sequence[Term], values: Sequence[Term]) -> dict[Term, Term] | None:
    """Most general substitution mapping *terms* position-wise onto *values*."""
    substitution: dict[Term, Term] = {}
    for term, value in zip(terms, values):
        if is_variable(term):
            bound = substitution.get(term)
            if bound is None:
                substitution[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return substitution


def _rest(body: Sequence[Atom | UnionAtom], position: int) -> tuple:
    """The body of the pinning rule for *position*: *body* without that atom."""
    return tuple(body[:position]) + tuple(body[position + 1 :])


def unify_fact(atom: Atom | UnionAtom, fact: Atom) -> dict[Term, Term] | None:
    """Most general substitution mapping *atom* onto the ground *fact*.

    *atom* is a plain or a union atom; the fact's predicate must be one of
    its predicates.  Returns ``None`` when they do not unify (predicate or
    constant mismatch, or one variable would need two distinct values).
    """
    if fact.predicate not in atom.predicates:
        return None
    return _unify(atom.terms, fact.terms)


def _variables(terms: Sequence[Term]) -> tuple[Term, ...]:
    """The distinct variables of *terms*, in order."""
    return tuple(dict.fromkeys(term for term in terms if is_variable(term)))


def pinned_answers(
    body: Sequence[Atom | UnionAtom],
    answer_terms: Sequence[Term],
    fact: Atom,
    view,
    rule: Callable[[int], JoinProgram] | None = None,
) -> frozenset[tuple]:
    """Answers of one join that have a derivation mapping a body atom to *fact*.

    *body* is a CQ's body or a factored join's union atoms.  Runs the
    join's pinning rules for *fact* over *view* (any object with
    ``probe`` and ``in``): for every body atom unifiable with the fact,
    the rest of the body, searched from the unifier as seed.  The union
    over the pinning choices is the complete set of answers with at least
    one derivation through the fact — the delta rule of semi-naive
    evaluation, specialised to a single changed tuple.  A fact absent
    from *view* pins nothing.

    ``rule(position)`` is the compiled rule pinning the atom at
    *position*; the maintainer passes its cached rules.  Without it the
    rest of the body is joined in body order.
    """
    if fact not in view:
        return frozenset()
    evaluator = QueryEvaluator(view)
    answers: set[tuple] = set()
    for position, atom in enumerate(body):
        seed = unify_fact(atom, fact)
        if seed is None:
            continue
        if rule is None:
            program = compile_join(
                _rest(body, position), answer_terms, _variables(atom.terms)
            )
        else:
            program = rule(position)
        evaluator.answers(program, seed, answers)
    return frozenset(answers)


def derives(
    body: Sequence[Atom | UnionAtom],
    answer_terms: Sequence[Term],
    answer: tuple,
    view,
    rule: Callable[[], JoinProgram] | None = None,
) -> bool:
    """``True`` iff the join still derives *answer* over *view*.

    Runs the rederive rule: a search over the body seeded with the answer
    terms bound to the tuple's values, stopping at the first derivation.
    This is the rederive step of DRed, trivial here because UCQs are
    non-recursive.  ``rule()`` is the compiled rule (the maintainer's
    cached one), asked for only once the answer unifies with the answer
    terms; by default the body is joined in body order.
    """
    seed = _unify(answer_terms, answer)
    if seed is None:
        return False
    if rule is None:
        program = compile_join(body, (), _variables(answer_terms))
    else:
        program = rule()
    return QueryEvaluator(view).exists(program, seed)


@dataclass(frozen=True)
class AnswerDelta:
    """The answer-set delta produced by one :meth:`MaintainedAnswerSet.refresh`.

    ``mode`` records how the refresh was computed: ``"full"`` (initial
    computation or fallback re-execution), ``"incremental"`` (change-log
    replay) or ``"noop"`` (data unchanged).  Regardless of mode, *added*
    and *removed* describe the answer set's transition since the previous
    refresh.
    """

    epoch: int
    added: frozenset[tuple]
    removed: frozenset[tuple]
    mode: str

    @property
    def empty(self) -> bool:
        """``True`` iff the answer set did not change."""
        return not self.added and not self.removed


@dataclass
class MaintenanceCounters:
    """Observability counters of one maintained answer set."""

    full_refreshes: int = 0
    incremental_refreshes: int = 0
    noop_refreshes: int = 0
    truncation_fallbacks: int = 0
    oversize_fallbacks: int = 0
    facts_applied: int = 0
    joins_reevaluated: int = 0
    joins_skipped: int = 0
    #: Delta rules join-ordered (each is planned once per cache lifetime).
    delta_plans: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class MaintainedAnswerSet:
    """A UCQ answer set kept current against a mutating instance.

    Holds one answer set and exposes one operation — :meth:`refresh` —
    that brings it up to the instance's current epoch and reports the
    delta.  Full (re-)executions run *plan*'s
    :meth:`~repro.backends.base.ExecutionPlan.execute`, the call
    :meth:`repro.api.PreparedQuery.execute` makes (an
    :class:`~repro.backends.memory.InMemoryPlan` of the rewriting when
    no plan is passed); incremental steps run the delta rules of the
    factored joins directly over the instance, so they run only while the
    instance is the data the answers are read from (see :meth:`refresh`).
    """

    def __init__(
        self,
        ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery],
        plan=None,
    ) -> None:
        if not isinstance(ucq, UnionOfConjunctiveQueries):
            ucq = UnionOfConjunctiveQueries(ucq)
        self._plan = InMemoryPlan(ucq) if plan is None else plan
        self._joins = ucq.factored()
        # Routing: each predicate to the joins with a union atom over it.
        self._routes: dict[Predicate, list[int]] = {}
        for number, join in enumerate(self._joins):
            for predicate in {p for atom in join.body for p in atom.predicates}:
                self._routes.setdefault(predicate, []).append(number)
        self._answers: set[tuple] = set()
        self._epoch: int | None = None
        # The freshness key of the last refresh (see refresh()).
        self._key: Hashable = None
        # Strong reference, for identity only: the owning PreparedQuery's
        # system keeps the database alive anyway, and an `is` check can
        # never confuse two instances the way a recycled id() could.
        self._instance: RelationalInstance | None = None
        # The delta rules planned and compiled so far, keyed by (join,
        # pinned position), position None for the rederive rule; see the
        # module docstring for their lifetime.
        self._rules: dict[tuple[int, int | None], JoinProgram] = {}
        self._planned_size = 0
        self._applied_since_planning = 0
        self.counters = MaintenanceCounters()

    # -- inspection ---------------------------------------------------------------

    @property
    def epoch(self) -> int | None:
        """The instance epoch of the last refresh (``None`` before the first)."""
        return self._epoch

    @property
    def tuples(self) -> frozenset[tuple]:
        """The answer set as of the last refresh."""
        return frozenset(self._answers)

    def describe(self) -> dict:
        """Counters + sizes, for stats endpoints."""
        return {
            "answers": len(self._answers),
            "joins": len(self._joins),
            "epoch": self._epoch,
            **self.counters.as_dict(),
        }

    # -- refresh ---------------------------------------------------------------

    def refresh(
        self, database: RelationalInstance, key: Hashable = None
    ) -> AnswerDelta:
        """Bring the answer set up to *database*'s data; report the delta.

        *key* says when the data the answers are read from changed: the
        executing backend's :meth:`~repro.backends.base.ExecutionBackend.
        data_epoch` (what :meth:`repro.api.PreparedQuery.poll` passes),
        by default the instance epoch.  An unchanged key is a no-op.  The
        instance's change log explains a change only when the key is the
        instance epoch, at the last refresh and now; any other change —
        an attached SQLite file committed to by another connection — is
        a full refresh.
        """
        if key is None:
            key = database.epoch
        if self._epoch is None or self._instance is not database:
            delta = self._full_refresh(database)
        elif key == self._key:
            self.counters.noop_refreshes += 1
            return AnswerDelta(self._epoch, frozenset(), frozenset(), "noop")
        elif self._key != self._epoch or key != database.epoch:
            # The data moved outside the instance; its log cannot say how.
            delta = self._full_refresh(database)
        else:
            changes = database.net_changes_since(self._epoch)
            if changes is LogGap.TRUNCATED:
                self.counters.truncation_fallbacks += 1
                delta = self._full_refresh(database)
            elif changes is LogGap.OVERSIZE:
                self.counters.oversize_fallbacks += 1
                delta = self._full_refresh(database)
            else:
                delta = self._incremental_refresh(database, changes)
        self._key = key
        return delta

    def _rule(
        self, database: RelationalInstance, number: int, position: int | None = None
    ) -> JoinProgram:
        """One delta rule of join *number*, planned and compiled on first use.

        Pinning rule *position*: the body without that atom, with its
        variables bound.  ``position=None``: the rederive rule, the whole
        body with the answer variables bound, looking for one witness.  A
        rule of at most one atom has one join order and is not planned.
        """
        key = (number, position)
        rule = self._rules.get(key)
        if rule is None:
            join = self._joins[number]
            if position is None:
                rest, seeded, answer = join.body, _variables(join.answer_terms), ()
            else:
                rest = _rest(join.body, position)
                seeded = _variables(join.body[position].terms)
                answer = join.answer_terms
            if len(rest) > 1:
                rest = CardinalityEstimator(database).plan_body(rest, seeded).order
            rule = self._rules[key] = compile_join(rest, answer, seeded)
            self.counters.delta_plans += 1
        return rule

    def _drop_rules(self, database: RelationalInstance) -> None:
        self._rules.clear()
        self._planned_size = len(database)
        self._applied_since_planning = 0

    def _full_refresh(self, database: RelationalInstance) -> AnswerDelta:
        self._drop_rules(database)
        before = self._answers
        self._answers = set(self._plan.execute(database))
        self._epoch = database.epoch
        self._instance = database
        self.counters.full_refreshes += 1
        self.counters.joins_reevaluated += len(self._joins)
        return AnswerDelta(
            database.epoch,
            frozenset(self._answers - before),
            frozenset(before - self._answers),
            "full",
        )

    def _pinned(
        self, database: RelationalInstance, fact: Atom, view, into: set[tuple]
    ) -> None:
        """Add to *into* every join's answers with a derivation through *fact*."""
        for number in self._routes.get(fact.predicate, ()):
            join = self._joins[number]
            into |= pinned_answers(
                join.body,
                join.answer_terms,
                fact,
                view,
                partial(self._rule, database, number),
            )

    def _derived(self, database: RelationalInstance, answer: tuple) -> bool:
        """``True`` iff some join derives *answer* on *database*."""
        return any(
            derives(
                join.body,
                join.answer_terms,
                answer,
                database,
                partial(self._rule, database, number, None),
            )
            for number, join in enumerate(self._joins)
        )

    def _incremental_refresh(
        self,
        database: RelationalInstance,
        changes: tuple[set[Atom], set[Atom]],
    ) -> AnswerDelta:
        added, removed = changes
        touched = {
            number
            for facts in (added, removed)
            for fact in facts
            for number in self._routes.get(fact.predicate, ())
        }
        applied = len(added) + len(removed)
        self.counters.incremental_refreshes += 1
        self.counters.facts_applied += applied
        self.counters.joins_reevaluated += len(touched)
        self.counters.joins_skipped += len(self._joins) - len(touched)
        self._applied_since_planning += applied
        if self._applied_since_planning > self._planned_size:
            self._drop_rules(database)  # the plans drifted from the data
        lost: set[tuple] = set()
        if removed:
            # DRed over-delete: every answer with some derivation through
            # a removed fact, computed over the pre-deletion view so joins
            # against other removed facts still count; then rederive.
            view = OverlayInstance(database, removed)
            overdeleted: set[tuple] = set()
            for fact in removed:
                self._pinned(database, fact, view, overdeleted)
            lost = {
                answer
                for answer in overdeleted & self._answers
                if not self._derived(database, answer)
            }
            self._answers -= lost
        # A lost answer has no derivation on the current instance, so no
        # inserted fact pins it back.
        gained: set[tuple] = set()
        for fact in added:
            self._pinned(database, fact, database, gained)
        gained -= self._answers
        self._answers |= gained
        self._epoch = database.epoch
        return AnswerDelta(
            database.epoch, frozenset(gained), frozenset(lost), "incremental"
        )
