"""Delta maintenance of UCQ answer sets over the instance change log.

The paper's pipeline compiles an ontological query *once* into a union of
conjunctive queries; afterwards answering is pure relational evaluation.
That makes standing queries cheap to maintain: UCQs are non-recursive, so
the classic semi-naive / DRed machinery degenerates into two simple
passes per changed fact, each running a fixed set of *delta rules*.

* **Delta rules.**  A disjunct with body ``a1, ..., an`` has one pinning
  rule per body position ``i`` — the body without ``ai``, join-ordered
  with ``ai``'s variables bound — and one rederive rule, the whole body
  join-ordered with the answer variables bound.  A changed fact's unifier
  with ``ai`` (:func:`unify_fact`) seeds the evaluator's search over rule
  ``i``; an answer tuple seeds the rederive rule.  Nothing is rewritten,
  probed or planned per fact.

* **Insert.**  Any answer that is new at the current epoch must have a
  derivation using at least one inserted fact.  Running the pinning rules
  of every inserted fact over the current instance
  (:func:`pinned_answers`) yields exactly the answers gaining a new
  derivation — the delta rule of semi-naive evaluation.

* **Delete.**  DRed without the recursive rederive loop: running the same
  pinning rules over the *pre-deletion* view
  (:class:`~repro.incremental.view.OverlayInstance` = current ∪ removed)
  over-approximates the answers that lost a derivation; each
  over-deleted tuple is then checked against the current instance with
  the rederive rule (:func:`derives`) and kept if a derivation survives.

* **Plan lifetime.**  A rule is join-ordered
  (:meth:`~repro.database.planning.CardinalityEstimator.plan_body`) the
  first time a poll needs it — never eagerly — always against the
  :class:`~repro.database.instance.RelationalInstance`, never the
  overlay, and reused by later polls.  Every full refresh empties the
  cache.  So does drift: once the incremental refreshes since the cache
  was emptied have applied more facts than the instance held then (the
  threshold at which the change log reports ``OVERSIZE``), the plans were
  made on data too different from today's.  The cache holds at most one
  plan per rule, so the rewriting bounds it.  Join order changes the
  cost of a rule, never its answers.

Answers carry **support counts** — the number of disjuncts currently
deriving them — so a tuple deleted from one disjunct does not drop an
answer still derived by another.  A support transition ``0 → >0`` is an
added answer, ``>0 → 0`` a removed one; that transition stream is the
subscription delta surfaced by the serving tier.

The change log is read through :meth:`RelationalInstance.net_changes_since`,
which also decides when it cannot be used (truncated, or the delta
outweighs the data) — the one policy the SQLite snapshot loader shares.
Then, and whenever the data changed somewhere the instance log does not
see (an attached SQLite file), the maintainer re-executes every disjunct
from scratch.  Correctness never depends on the log.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Sequence

from ..database.evaluator import QueryEvaluator
from ..database.instance import LogGap, RelationalInstance
from ..database.planning import CardinalityEstimator
from ..logic.atoms import Atom
from ..logic.terms import Term, is_variable
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from .relevance import RelevanceIndex
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


def _rest(body: Sequence[Atom], position: int) -> tuple[Atom, ...]:
    """The body of the pinning rule for *position*: *body* without that atom."""
    return tuple(body[:position]) + tuple(body[position + 1 :])


def unify_fact(atom: Atom, fact: Atom) -> dict[Term, Term] | None:
    """Most general substitution mapping *atom* onto the ground *fact*.

    Returns ``None`` when they do not unify (constant mismatch, or one
    variable would need two distinct values).
    """
    if atom.predicate != fact.predicate:
        return None
    return _unify(atom.terms, fact.terms)


def pinned_answers(
    body: Sequence[Atom],
    answer_terms: Sequence[Term],
    fact: Atom,
    view,
    rule_order: Callable[[int], Sequence[Atom]] | None = None,
) -> frozenset[tuple]:
    """Answers of one disjunct that have a derivation mapping a body atom to *fact*.

    Runs the disjunct's pinning rules for *fact* over *view* (any object
    with ``relation``/``matching`` and ``in``): for every body atom
    unifiable with the fact, the rest of the body, searched from the
    unifier as seed.  The union over the pinning choices is the complete
    set of answers with at least one derivation through the fact — the
    delta rule of semi-naive evaluation, specialised to a single changed
    tuple.  A fact absent from *view* pins nothing.

    ``rule_order(position)`` is the join order of the rule pinning the
    atom at *position*; the maintainer passes its cached plans.  Without
    it the rest of the body is joined in body order.
    """
    if fact not in view:
        return frozenset()
    evaluator = QueryEvaluator(view)
    answers: set[tuple] = set()
    for position, atom in enumerate(body):
        seed = unify_fact(atom, fact)
        if seed is None:
            continue
        order = _rest(body, position) if rule_order is None else rule_order(position)
        answers |= evaluator.answers_for_order(order, answer_terms, seed)
    return frozenset(answers)


def derives(
    body: Sequence[Atom],
    answer_terms: Sequence[Term],
    answer: tuple,
    view,
    order: Sequence[Atom] | None = None,
) -> bool:
    """``True`` iff the disjunct still derives *answer* over *view*.

    Runs the rederive rule: a search over the body seeded with the answer
    terms bound to the tuple's values, stopping at the first derivation.
    This is the rederive step of DRed, trivial here because UCQs are
    non-recursive.  *order* is the rule's join order (the maintainer's
    cached plan); by default the body order.
    """
    seed = _unify(answer_terms, answer)
    if seed is None:
        return False
    return QueryEvaluator(view).satisfiable(body if order is None else order, seed)


@dataclass(frozen=True)
class AnswerDelta:
    """The answer-set delta produced by one :meth:`MaintainedAnswerSet.refresh`.

    ``mode`` records how the refresh was computed: ``"full"`` (initial
    computation or fallback re-execution), ``"incremental"`` (change-log
    replay) or ``"noop"`` (data unchanged).  Regardless of mode, *added*
    and *removed* describe the combined answer set's transition since the
    previous refresh.
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
    disjuncts_reevaluated: int = 0
    disjuncts_skipped: int = 0
    #: Delta rules join-ordered (each is planned once per cache lifetime).
    delta_plans: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class MaintainedAnswerSet:
    """A UCQ answer set kept current against a mutating instance.

    Owns per-disjunct answer sets plus the combined support counts, and
    exposes one operation — :meth:`refresh` — that brings the state up to
    the instance's current epoch and reports the combined answer delta.
    The optional *plan* is used for full (re-)executions so they run on
    the prepared backend's per-disjunct path
    (:meth:`repro.backends.base.ExecutionPlan.execute_disjunct`);
    incremental steps always run the delta rules directly over the
    instance, so they run only while the instance is the data the answers
    are read from (see :meth:`refresh`).
    """

    def __init__(
        self,
        ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery],
        plan=None,
    ) -> None:
        queries = tuple(ucq)
        self._disjuncts: tuple[tuple[tuple[Atom, ...], tuple[Term, ...]], ...] = tuple(
            (query.body, query.answer_terms) for query in queries
        )
        self._queries = queries
        self._relevance = RelevanceIndex(queries)
        self._plan = plan
        self._per_disjunct: list[set[tuple]] = [set() for _ in queries]
        self._support: dict[tuple, int] = {}
        self._epoch: int | None = None
        # The freshness key of the last refresh (see refresh()).
        self._key: Hashable = None
        # Strong reference, for identity only: the owning PreparedQuery's
        # system keeps the database alive anyway, and an `is` check can
        # never confuse two instances the way a recycled id() could.
        self._instance: RelationalInstance | None = None
        # Join orders of the delta rules planned so far, keyed by
        # (disjunct, pinned position), position None for the rederive
        # rule; see the module docstring for their lifetime.
        self._rules: dict[tuple[int, int | None], tuple[Atom, ...]] = {}
        self._planned_size = 0
        self._applied_since_planning = 0
        self.counters = MaintenanceCounters()

    # -- inspection ---------------------------------------------------------------

    @property
    def relevance(self) -> RelevanceIndex:
        """The body-relation → disjuncts index driving the delta routing."""
        return self._relevance

    @property
    def epoch(self) -> int | None:
        """The instance epoch of the last refresh (``None`` before the first)."""
        return self._epoch

    @property
    def tuples(self) -> frozenset[tuple]:
        """The combined (support > 0) answer set as of the last refresh."""
        return frozenset(self._support)

    def support(self, answer: tuple) -> int:
        """Number of disjuncts currently deriving *answer*."""
        return self._support.get(answer, 0)

    def describe(self) -> dict:
        """Counters + sizes, for stats endpoints."""
        return {
            "answers": len(self._support),
            "disjuncts": len(self._disjuncts),
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

    def _execute_disjunct(
        self, database: RelationalInstance, index: int
    ) -> frozenset[tuple]:
        if self._plan is not None:
            return self._plan.execute_disjunct(database, index)
        body, answer_terms = self._disjuncts[index]
        evaluator = QueryEvaluator(database)
        return evaluator.answers_for_order(evaluator.join_order(body), answer_terms)

    def _rule(
        self, database: RelationalInstance, index: int, position: int | None = None
    ) -> tuple[Atom, ...]:
        """The join order of one delta rule of disjunct *index*, planned on first use.

        Pinning rule *position*: the body without that atom, with its
        variables bound.  ``position=None``: the rederive rule, the whole
        body with the answer variables bound.
        """
        key = (index, position)
        order = self._rules.get(key)
        if order is None:
            body, answer_terms = self._disjuncts[index]
            if position is None:
                rest, seeded = body, answer_terms
            else:
                rest, seeded = _rest(body, position), body[position].terms
            order = (
                CardinalityEstimator(database)
                .plan_body(rest, (term for term in seeded if is_variable(term)))
                .order
            )
            self._rules[key] = order
            self.counters.delta_plans += 1
        return order

    def _drop_rules(self, database: RelationalInstance) -> None:
        self._rules.clear()
        self._planned_size = len(database)
        self._applied_since_planning = 0

    def _full_refresh(self, database: RelationalInstance) -> AnswerDelta:
        self._drop_rules(database)
        before = frozenset(self._support)
        self._per_disjunct = [
            set(self._execute_disjunct(database, index))
            for index in range(len(self._disjuncts))
        ]
        support: dict[tuple, int] = {}
        for answers in self._per_disjunct:
            for answer in answers:
                support[answer] = support.get(answer, 0) + 1
        self._support = support
        self._epoch = database.epoch
        self._instance = database
        self.counters.full_refreshes += 1
        self.counters.disjuncts_reevaluated += len(self._disjuncts)
        after = frozenset(support)
        return AnswerDelta(database.epoch, after - before, before - after, "full")

    def _add(self, index: int, answer: tuple) -> None:
        answers = self._per_disjunct[index]
        if answer not in answers:
            answers.add(answer)
            self._support[answer] = self._support.get(answer, 0) + 1

    def _discard(self, index: int, answer: tuple) -> None:
        answers = self._per_disjunct[index]
        if answer in answers:
            answers.discard(answer)
            remaining = self._support[answer] - 1
            if remaining:
                self._support[answer] = remaining
            else:
                del self._support[answer]

    def _incremental_refresh(
        self,
        database: RelationalInstance,
        changes: tuple[set[Atom], set[Atom]],
    ) -> AnswerDelta:
        added, removed = changes
        before = frozenset(self._support)
        affected = self._relevance.affected(
            {fact.predicate for fact in added} | {fact.predicate for fact in removed}
        )
        applied = len(added) + len(removed)
        self.counters.incremental_refreshes += 1
        self.counters.facts_applied += applied
        self.counters.disjuncts_reevaluated += len(affected)
        self.counters.disjuncts_skipped += len(self._disjuncts) - len(affected)
        self._applied_since_planning += applied
        if self._applied_since_planning > self._planned_size:
            self._drop_rules(database)  # the plans drifted from the data
        base_view = OverlayInstance(database, removed) if removed else None
        for index in affected:
            body, answer_terms = self._disjuncts[index]
            rule_order = partial(self._rule, database, index)
            body_predicates = {atom.predicate for atom in body}
            relevant_removed = [f for f in removed if f.predicate in body_predicates]
            if relevant_removed:
                # DRed over-delete: every answer with some derivation
                # through a removed fact, computed over the pre-deletion
                # view so joins against other removed facts still count.
                overdeleted: set[tuple] = set()
                for fact in relevant_removed:
                    overdeleted |= pinned_answers(
                        body, answer_terms, fact, base_view, rule_order
                    )
                lost = overdeleted & self._per_disjunct[index]
                for answer in lost:
                    self._discard(index, answer)
                    if derives(body, answer_terms, answer, database, rule_order(None)):
                        self._add(index, answer)
            for fact in added:
                if fact.predicate not in body_predicates:
                    continue
                for answer in pinned_answers(
                    body, answer_terms, fact, database, rule_order
                ):
                    self._add(index, answer)
        self._epoch = database.epoch
        after = frozenset(self._support)
        return AnswerDelta(database.epoch, after - before, before - after, "incremental")
