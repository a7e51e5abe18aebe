"""The frontier kernel behind ``TGD-rewrite``: explicit state, pure steps.

Algorithm 1 is a worklist fixpoint: take an unexplored CQ, apply every
factorisation (Definition 2) and rewriting (Definition 1) step it admits,
keep whatever is new, repeat.  The crucial structural fact — the one
QuOnto/Requiem-style rewriters exploit for parallelism — is that the two
steps only ever *read* the query being expanded: which candidates a CQ
produces depends on the CQ and the (immutable) rule set alone, never on
what else has been generated.  This module makes that explicit by
splitting the loop into three pieces:

* :class:`RewriteFrontier` — the pending CQs of the current *generation*
  plus a generation counter.  A generation is drained atomically
  (:meth:`~RewriteFrontier.take_generation`); its members can be expanded
  in any order, or all at once, because expansion is pure.
* **expansion** — :meth:`repro.core.rewriter.TGDRewriter.expand` turns one
  CQ into an :class:`Expansion`: the ordered tuple of
  :class:`CandidateQuery` results of every factorisation and rewriting
  step.  Each candidate is encoded from its :class:`Derivation` and keyed
  once, then reduced (query elimination) and marked if pruned by a
  negative constraint — unless the run's table already knows its exact
  key to eliminate nothing, in which case it keeps the table's pruning
  verdict and carries no query object at all.  A candidate whose
  encoding shows it to be a dead end over an internal predicate
  (:mod:`repro.core.dead_ends`) is marked before any of that, and
  carries no query object either.  No interning, no labels, no
  kernel-state mutation.
* **merge** — :func:`merge_expansion` folds one expansion into the
  :class:`KernelState` (interning store, labels, next frontier,
  statistics).  The merge is the *only* place results are deduplicated and
  labelled, and it always runs single-threaded in expansion order, which
  is what keeps the final rewriting byte-identical under every
  :class:`~repro.scheduling.SchedulingStrategy`.  Pruned candidates and
  dead ends are counted and dropped; any other candidate without a query
  object is interned by its exact key and built only if no variant is
  stored yet.

The kernel iterates generations breadth-first: generation ``n + 1`` is the
merge of the expansions of generation ``n``, in frontier order.  The set
of CQs reached — and therefore every pinned Table 1 size — is independent
of the exploration order (the steps of Algorithm 1 commute), and the
generation discipline additionally fixes the *representatives* and their
insertion order, so sequential, threaded and process-chunked schedules all
write the same bytes.

A :class:`KernelState` is also the unit of checkpointing: between
generations it fully describes the run, so
:class:`repro.cache.checkpoint.FrontierCheckpoint` can persist it and a
killed compilation can resume from the last completed generation instead
of restarting (the resumed run finishes with an identical result).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from ..logic.atoms import Atom
from ..logic.canonical import CanonicalFingerprint
from ..logic.substitution import Substitution
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import QuerySet

#: Labels of Algorithm 1: rewriting-step results are part of the final
#: rewriting, factorisation-step results only enable further steps.
LABEL_REWRITING = 1
LABEL_FACTORIZATION = 0


class Derivation(NamedTuple):
    """How a candidate derives from the query being expanded.

    The arguments of :meth:`ConjunctiveQuery.derive
    <repro.queries.conjunctive_query.ConjunctiveQuery.derive>` and of
    :func:`repro.logic.flat.encode_query`: the engine encodes and keys a
    candidate from them, and builds its query from them only when it has
    to (:meth:`CandidateQuery.build`).
    """

    source: ConjunctiveQuery
    substitution: Substitution | None
    removed: tuple[Atom, ...] = ()
    added: tuple[Atom, ...] = ()

    def build(
        self, fingerprint: CanonicalFingerprint | None = None
    ) -> ConjunctiveQuery:
        """The derived query (*fingerprint*, if given, becomes its cached key).

        Without a substitution the candidate is *source* itself: a member
        the engine unfolded from a union-CQ that is not uniform.
        """
        if self.substitution is None:
            if fingerprint is not None:
                self.source.__dict__["canonical_fingerprint"] = fingerprint
            return self.source
        return self.source.derive(
            self.substitution, self.removed, self.added, fingerprint
        )


@dataclass(frozen=True)
class CandidateQuery:
    """One candidate CQ produced by expanding a query.

    The candidate is already *reduced* (query elimination applied, when the
    engine runs ``TGD-rewrite*``) and carries everything the merge point
    needs to account for it without re-deriving anything:

    ``query``
        The candidate CQ, or ``None`` when it is a dead end (see
        ``dead_end``) or the run's table settled it: its exact canonical
        key is that of an earlier candidate of the run that eliminated
        nothing.  The key then decides interning alone, and the query is
        built only if no variant is stored when the candidate reaches the
        merge (:meth:`build`).
    ``label``
        :data:`LABEL_REWRITING` for rewriting-step results (they belong to
        the final rewriting), :data:`LABEL_FACTORIZATION` for
        factorisation-step results (kept only to enable further steps).
    ``pruned``
        ``True`` when a negative constraint proves the candidate can never
        be entailed by a consistent database (Section 5.1); the merge
        counts it and drops it.
    ``eliminated_atoms``
        How many atoms query elimination removed while reducing the
        candidate (0 when elimination is off).
    ``fingerprint`` and ``derivation``
        The canonical fingerprint of the raw candidate (before
        elimination) and how it derives from the expanded query; the
        engine sets both, and the merge needs them when ``query`` is
        ``None``.  A dead end has no fingerprint: the merge only counts
        it, so the engine never keys it.
    ``dead_end``
        ``True`` when the candidate has an atom over an internal
        predicate that no database can ever satisfy
        (:mod:`repro.core.dead_ends`): nothing derived from it reaches
        the final rewriting, so the merge counts it and drops it, and
        ``query`` and ``fingerprint`` are ``None``.
    """

    query: ConjunctiveQuery | None
    label: int
    pruned: bool = False
    eliminated_atoms: int = 0
    fingerprint: CanonicalFingerprint | None = None
    derivation: Derivation | None = None
    dead_end: bool = False

    def build(self) -> ConjunctiveQuery:
        """The candidate's query, built from its derivation if it carries none."""
        if self.query is not None:
            return self.query
        return self.derivation.build(self.fingerprint)


@dataclass(frozen=True)
class Expansion:
    """The complete, ordered result of expanding one query.

    ``candidates`` preserves the order Algorithm 1 generates them in —
    every factorisation step first, then every rewriting step, each in
    rule-index order — because the merge point replays them in this order
    to keep interning deterministic.  ``rules_considered`` /
    ``rules_skipped`` record how the head-predicate rule index behaved for
    this query (they feed the run statistics at merge time, so expansion
    stays free of shared mutation).
    """

    source: ConjunctiveQuery
    candidates: tuple[CandidateQuery, ...]
    rules_considered: int = 0
    rules_skipped: int = 0


class RewriteFrontier:
    """The pending CQs of the current generation, plus a generation counter.

    Queries join the frontier when the merge point interns them as new;
    :meth:`take_generation` drains the pending list atomically and bumps
    the counter.  Draining whole generations (instead of popping one query
    at a time) is what gives scheduling strategies a batch to spread over
    threads or worker processes.
    """

    __slots__ = ("_pending", "_generation")

    def __init__(
        self,
        pending: Iterator[ConjunctiveQuery] | list[ConjunctiveQuery] = (),
        generation: int = 0,
    ) -> None:
        self._pending: list[ConjunctiveQuery] = list(pending)
        self._generation = generation

    @property
    def generation(self) -> int:
        """Number of generations already drained."""
        return self._generation

    @property
    def pending(self) -> tuple[ConjunctiveQuery, ...]:
        """The queries awaiting expansion, in arrival order."""
        return tuple(self._pending)

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def add(self, query: ConjunctiveQuery) -> None:
        """Schedule *query* for expansion in the next generation."""
        self._pending.append(query)

    def take_generation(self) -> list[ConjunctiveQuery]:
        """Drain and return the current generation, advancing the counter."""
        batch = self._pending
        self._pending = []
        self._generation += 1
        return batch


@dataclass
class KernelState:
    """Everything the frontier kernel mutates between generations.

    ``store`` interns every CQ generated so far (modulo varianthood),
    ``labels`` carries the Algorithm 1 label of each representative,
    ``frontier`` holds the CQs not yet expanded, and ``statistics`` the
    deterministic run counters.  Between generations this tuple is the
    complete run state — which is exactly what
    :class:`repro.cache.checkpoint.FrontierCheckpoint` serialises.
    """

    store: QuerySet
    labels: dict[ConjunctiveQuery, int]
    frontier: RewriteFrontier
    statistics: "RewritingStatistics"  # noqa: F821 - import cycle (rewriter imports us)

    @classmethod
    def initial(cls, query: ConjunctiveQuery, statistics) -> "KernelState":
        """The state before the first generation: one pending label-1 query."""
        store = QuerySet()
        store.add(query)
        frontier = RewriteFrontier()
        frontier.add(query)
        return cls(
            store=store,
            labels={query: LABEL_REWRITING},
            frontier=frontier,
            statistics=statistics,
        )


def merge_expansion(state: KernelState, expansion: Expansion, max_queries: int) -> None:
    """Fold one expansion into the kernel state — the single merge point.

    Candidates are interned in expansion order; new representatives join
    the next generation's frontier, re-derivations of factorisation-only
    queries by a rewriting step are upgraded to label 1 (they become part
    of the final rewriting), and every statistics counter that the stored
    result depends on is accounted here, deterministically.  Raises
    :class:`repro.core.rewriter.RewritingBudgetExceeded` when the interned
    population passes *max_queries*.
    """
    from .rewriter import RewritingBudgetExceeded

    statistics = state.statistics
    statistics.processed_queries += 1
    statistics.rules_considered += expansion.rules_considered
    statistics.rules_skipped_by_index += expansion.rules_skipped
    for candidate in expansion.candidates:
        statistics.eliminated_atoms += candidate.eliminated_atoms
        if candidate.dead_end:
            statistics.pruned_dead_ends += 1
            continue
        if candidate.pruned:
            statistics.pruned_by_constraints += 1
            continue
        if candidate.query is not None:
            stored, inserted = state.store.intern(candidate.query)
        else:
            # A repeated exact key: the key decides the lookup, and the
            # query is built only if no variant is stored yet — which a
            # parallel strategy allows, when it expanded a later
            # candidate of this key before this one.
            stored, inserted = state.store.intern_exact(
                candidate.fingerprint[0], candidate.build
            )
        if candidate.label == LABEL_FACTORIZATION:
            if not inserted:
                continue
            state.labels[stored] = LABEL_FACTORIZATION
            state.frontier.add(stored)
            statistics.generated_by_factorization += 1
        else:
            if not inserted:
                if state.labels.get(stored) != LABEL_REWRITING:
                    # A factorization-only query re-derived by the
                    # rewriting step becomes part of the final rewriting.
                    state.labels[stored] = LABEL_REWRITING
                    statistics.generated_by_rewriting += 1
                continue
            state.labels[stored] = LABEL_REWRITING
            state.frontier.add(stored)
            statistics.generated_by_rewriting += 1
    if len(state.store) > max_queries:
        raise RewritingBudgetExceeded(
            f"rewriting exceeded the budget of {max_queries} queries; "
            "the rule set is probably not FO-rewritable"
        )
