"""The rewriting algorithms ``TGD-rewrite`` and ``TGD-rewrite*`` (Algorithm 1).

``TGD-rewrite`` compiles a (Boolean or non-Boolean) conjunctive query and a
set of TGDs into a union of conjunctive queries — the *perfect rewriting* —
such that evaluating the UCQ directly over any database returns exactly the
certain answers of the original query over the database plus the TGDs
(Theorem 6).  It alternates two steps until a fixpoint:

* the **factorization step** unifies sets of atoms whose shared existential
  variable provably originates from a single chase atom (Definition 2);
  factorized queries are kept with label ``0``: they are *not* part of the
  final rewriting, they only enable further rewriting steps (Example 4);
* the **rewriting step** resolves a set of body atoms against the head of an
  applicable TGD (Definition 1), replacing them with the TGD body; the
  resulting queries carry label ``1`` and form the final rewriting.

``TGD-rewrite*`` additionally applies **query elimination** (Section 6) after
every step, dropping body atoms covered by other atoms, and it can exploit
**negative constraints** (Section 5.1) to prune queries that can never be
entailed by a consistent database.

Termination is guaranteed for linear, sticky and sticky-join TGDs
(Theorem 7); a configurable budget protects against non-terminating inputs.

A :class:`TGDRewriter` is a *compilation engine*, built once per theory and
reused across queries: the head-predicate :class:`RuleIndex`, the
:class:`~repro.core.applicability.RenameApartCache` and (for
``TGD-rewrite*``) the coverage memo of the
:class:`~repro.core.coverage.CoverageChecker` all live on the rewriter
instance and keep learning across calls, so compiling a workload through
one rewriter (:meth:`repro.api.OBDASystem.compile_many`) is faster than
compiling each query in a fresh engine.  Every run's
:class:`RewritingStatistics` reports the per-run share of the rename-apart
pool's work.  Each rewriting step applies the unifier with which
Definition 1 found its rule applicable, so a step unifies once.

Structurally, :meth:`TGDRewriter.rewrite` is a *frontier kernel* (see
:mod:`repro.core.frontier`): the worklist is an explicit
:class:`~repro.core.frontier.RewriteFrontier` drained one generation at a
time, each pending CQ is turned into candidates by the pure step function
:meth:`TGDRewriter.expand`, and results are deduplicated, labelled and
scheduled at a single merge point.  Each generation is expanded in
order, one query at a time, in the calling thread.  Because expansion is
pure and the merge is ordered, how a generation is expanded cannot change
a byte of the output; tests hold the kernel to that by passing one of the
:mod:`repro.scheduling` strategies to a run, which expand a generation
across threads or processes.
Between generations the kernel state can be checkpointed
(:class:`repro.cache.checkpoint.FrontierCheckpoint`), so a killed
compilation resumes instead of restarting, and a caller's
``on_generation`` callback can cut the run (the serving tier's
deadlines, shutdown and injected faults).

A cold compile pays the full price only for candidates that are new to
the run and can reach its output.  :meth:`TGDRewriter.expand` encodes
every raw candidate straight from its unifier
(:func:`repro.logic.flat.encode_query`) and takes its canonical key once
from that encoding.  When the theory was normalised through internal
predicates, the same encoding then decides whether the candidate is a
*dead end* (:mod:`repro.core.dead_ends`): an atom over an internal
predicate that no database can satisfy, so that nothing derived from it
reaches the final rewriting.  A dead end is dropped at the merge point,
counted in ``pruned_dead_ends``, and never built, reduced or checked
against the negative constraints; the final rewriting is unchanged.
Each run keeps a table of the exact keys whose candidate eliminated
nothing, with the candidate's NC-pruning verdict
(:meth:`TGDRewriter.for_run`): a candidate whose key is in the table
skips query elimination and NC pruning and reaches the merge point
without a query object, built there only if its key is new
to the store.  Only the other candidates are built as ``Atom`` and
``ConjunctiveQuery`` objects and reduced; one that lost atoms is keyed a
second time, as its reduced form.  The table follows ``use_memoisation``
and lives exactly as long as the run; the dead-end verdict is taken with
memoisation on and off.

The CQs the kernel stores are *union-CQs* (:mod:`repro.core.closures`):
an atom over a predicate with subclasses under renaming rules stands for
the whole closure, so a hierarchy is rewritten once, not once per
subclass, and the final rewriting is the unfolding of the stored
union-CQs.  A union-CQ whose members would not all get the same
verdicts is unfolded into the members the per-CQ kernel builds; with
every closure trivial, the kernel is the per-CQ kernel.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, fields
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ..logic.atoms import Atom
from ..logic.flat import FlatQuery, encode_query
from ..dependencies.classifiers import is_linear
from ..dependencies.constraints import NegativeConstraint
from ..dependencies.normalization import is_normalized, normalize
from ..dependencies.tgd import TGD
from ..dependencies.theory import OntologyTheory
from ..queries.conjunctive_query import ConjunctiveQuery, encoded_fingerprint
from ..queries.ucq import QuerySet, UnionOfConjunctiveQueries
from .applicability import (
    RenameApartCache,
    RuleIndex,
    applicable_atom_sets,
    factorizable_sets,
)
from .closures import RenamingClosures, distinct_members
from .coverage import CoverageChecker
from .dead_ends import DeadEndFilter
from .elimination import QueryEliminator
from .frontier import (
    LABEL_FACTORIZATION,
    LABEL_REWRITING,
    CandidateQuery,
    Derivation,
    Expansion,
    KernelState,
    merge_expansion,
)
from .nc_pruning import NegativeConstraintPruner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.checkpoint import FrontierCheckpoint
    from ..scheduling import SchedulingStrategy


class RewritingBudgetExceeded(RuntimeError):
    """Raised when the rewriting exceeds its query budget.

    This only happens for rule sets outside the FO-rewritable fragments (or
    with an unreasonably small budget); linear, sticky and sticky-join sets
    always terminate (Theorem 7).
    """


@dataclass
class RewritingStatistics:
    """Counters describing a rewriting run.

    Beyond the Algorithm 1 counters (with ``pruned_dead_ends``, the
    candidates dropped as dead ends over internal predicates, see
    :mod:`repro.core.dead_ends`), the run records how the two indexes of
    the engine behaved: the canonical-key interning store (``variant_*`` and
    ``canonical_*`` fields, see :class:`repro.queries.ucq.QuerySet`) and the
    head-predicate rule index (``rules_*`` fields, see
    :class:`repro.core.applicability.RuleIndex`).
    """

    generated_by_rewriting: int = 0
    generated_by_factorization: int = 0
    pruned_by_constraints: int = 0
    pruned_dead_ends: int = 0
    eliminated_atoms: int = 0
    processed_queries: int = 0
    elapsed_seconds: float = 0.0
    # -- canonical-interning counters ------------------------------------
    interned_queries: int = 0
    canonical_buckets: int = 0
    canonical_collisions: int = 0
    variant_lookups: int = 0
    variant_cache_hits: int = 0
    variant_exact_hits: int = 0
    variant_confirmations: int = 0
    # -- rule-index counters ---------------------------------------------
    rules_considered: int = 0
    rules_skipped_by_index: int = 0
    # -- memoisation counters (this run's share of the rename-apart pool) --
    rename_cache_hits: int = 0
    rename_cache_misses: int = 0
    # -- persistent-cache counters (set by the serving layer) -------------
    persistent_cache_hits: int = 0
    persistent_cache_misses: int = 0

    #: Fields that vary between runs computing the *same* rewriting —
    #: wall-clock and the engine/serving cache shares.  Everything else is
    #: a deterministic function of ``(rules, options, query)``, which is
    #: what makes stored records and merged workload totals reproducible
    #: under any worker count.
    VOLATILE_FIELDS = frozenset(
        {
            "elapsed_seconds",
            "rename_cache_hits",
            "rename_cache_misses",
            "persistent_cache_hits",
            "persistent_cache_misses",
        }
    )

    def merge(self, other: "RewritingStatistics") -> "RewritingStatistics":
        """Return a new statistics object with every counter summed.

        Used to aggregate per-query statistics into per-workload totals —
        both by the sequential :meth:`repro.api.OBDASystem.compile_many`
        loop and by the parallel path when it folds per-worker results
        back together (``repro compile --stats`` prints the totals).
        """
        merged = RewritingStatistics()
        for field_ in fields(RewritingStatistics):
            setattr(
                merged,
                field_.name,
                getattr(self, field_.name) + getattr(other, field_.name),
            )
        return merged

    @classmethod
    def merge_all(
        cls, statistics: Iterable["RewritingStatistics"]
    ) -> "RewritingStatistics":
        """Fold many statistics objects into one total (order-independent)."""
        total = cls()
        for entry in statistics:
            total = total.merge(entry)
        return total


@dataclass
class RewritingResult:
    """The perfect rewriting of a query together with run statistics.

    ``auxiliary_queries`` are the stored union-CQs that are not part of
    the rewriting as such: the label-0 ones and those over internal
    predicates, in root form (a collapsed atom's predicate is marked
    ``⊔``, see :mod:`repro.core.closures`).
    """

    query: ConjunctiveQuery
    rules: tuple[TGD, ...]
    ucq: UnionOfConjunctiveQueries
    auxiliary_queries: tuple[ConjunctiveQuery, ...] = ()
    statistics: RewritingStatistics = field(default_factory=RewritingStatistics)

    @property
    def size(self) -> int:
        """Number of CQs in the perfect rewriting (Table 1 "Size")."""
        return len(self.ucq)

    def __iter__(self):
        return iter(self.ucq)

    def __len__(self) -> int:
        return len(self.ucq)


class TGDRewriter:
    """Backward-chaining rewriter for Datalog± ontological queries.

    Parameters
    ----------
    rules:
        The TGDs Σ.  They are normalised (Lemmas 1 and 2) automatically
        unless already in normal form.
    negative_constraints:
        Optional NCs Σ⊥ used for pruning (Section 5.1).
    use_elimination:
        Enable the query-elimination optimisation (``TGD-rewrite*``); requires
        the rule set to be linear.
    use_nc_pruning:
        Enable pruning with negative constraints; only meaningful when
        *negative_constraints* is non-empty.
    max_queries:
        Budget on the number of distinct CQs generated; exceeding it raises
        :class:`RewritingBudgetExceeded`.
    use_memoisation:
        Keep per-rule rename-apart pools and (with elimination)
        atom-coverage chains across the whole lifetime of the rewriter
        (default).  The coverage memo is keyed by the shape of the atoms
        checked (:func:`~repro.core.applicability.shape_key`), so it does
        not grow with constants the rules do not mention and is finite
        for a fixed theory.  Each run also keeps its own table of
        candidate keys that eliminate nothing (:meth:`for_run`).
        Disabling it reproduces the unmemoised engine, which builds and
        reduces every candidate that is not a dead end — useful for
        differential testing; the computed rewritings are identical either
        way.
    """

    def __init__(
        self,
        rules: Sequence[TGD] | OntologyTheory,
        negative_constraints: Iterable[NegativeConstraint] = (),
        use_elimination: bool = False,
        use_nc_pruning: bool = False,
        max_queries: int = 200_000,
        use_memoisation: bool = True,
    ) -> None:
        if isinstance(rules, OntologyTheory):
            theory = rules
            rules = theory.tgds
            if not negative_constraints:
                negative_constraints = theory.negative_constraints
        rules = list(rules)
        self._given_rules: tuple[TGD, ...] = tuple(rules)
        internal_predicates: frozenset = frozenset()
        if not is_normalized(rules):
            normalization = normalize(rules)
            rules = list(normalization.rules)
            internal_predicates = frozenset(normalization.auxiliary_predicates)
        self._rules: tuple[TGD, ...] = tuple(rules)
        self._rule_index = RuleIndex(self._rules)
        # Memo state shared across every rewrite() call of this engine.
        # Rules are keyed by their position in the (immutable) rule tuple;
        # id() is safe as the tuple keeps every rule alive.
        self._rule_keys = {id(rule): position for position, rule in enumerate(self._rules)}
        self._rename_cache = RenameApartCache() if use_memoisation else None
        # The run's table of candidate keys; only the copies for_run()
        # hands to a run have one.
        self._run_keys: dict | None = None
        # Auxiliary predicates introduced by the internal normalisation are
        # not part of the caller's schema: no database ever stores facts for
        # them, so rewritten CQs mentioning them are dropped from the output,
        # and candidates with an atom over one that no chase can hold are
        # dropped as soon as they are keyed.
        self._internal_predicates = internal_predicates
        self._closures = RenamingClosures(self._rules, internal_predicates)
        self._dead_ends = (
            DeadEndFilter(self._rules, internal_predicates)
            if internal_predicates
            else None
        )
        self._max_queries = max_queries
        self._negative_constraints = tuple(negative_constraints)
        self._pruner = (
            NegativeConstraintPruner(self._negative_constraints)
            if use_nc_pruning and self._negative_constraints
            else None
        )
        self._eliminator: QueryEliminator | None = None
        if use_elimination:
            if not is_linear(self._rules):
                raise ValueError(
                    "query elimination (TGD-rewrite*) requires linear TGDs"
                )
            self._eliminator = QueryEliminator(
                self._rules, CoverageChecker(self._rules, memoise=use_memoisation)
            )

    # -- public API ------------------------------------------------------------------

    @property
    def rules(self) -> tuple[TGD, ...]:
        """The (normalised) TGDs used for rewriting."""
        return self._rules

    @property
    def rule_index(self) -> RuleIndex:
        """The head-predicate index over the (normalised) TGDs."""
        return self._rule_index

    @property
    def uses_elimination(self) -> bool:
        """``True`` iff the query-elimination optimisation is active."""
        return self._eliminator is not None

    @property
    def eliminator(self) -> QueryEliminator | None:
        """The query eliminator of ``TGD-rewrite*`` (``None`` without elimination)."""
        return self._eliminator

    @property
    def negative_constraints(self) -> tuple[NegativeConstraint, ...]:
        """The negative constraints available for pruning."""
        return self._negative_constraints

    @property
    def uses_nc_pruning(self) -> bool:
        """``True`` iff negative-constraint pruning is active."""
        return self._pruner is not None

    @property
    def max_queries(self) -> int:
        """The budget on the number of distinct CQs generated."""
        return self._max_queries

    def specification(self) -> tuple:
        """The constructor arguments that rebuild an equal engine.

        The rules as given, before normalisation, so that the replica
        knows which predicates its own normalisation invents; then the
        negative constraints and the resolved options, in the
        constructor's order.  :meth:`from_specification` builds an engine
        that expands and rewrites every query to this engine's bytes.
        Worker processes of the per-query pool and of
        :class:`repro.scheduling.ChunkedProcessStrategy` are built so.
        """
        return (
            self._given_rules,
            self._negative_constraints,
            self._eliminator is not None,
            self._pruner is not None,
            self._max_queries,
            self._rename_cache is not None,
        )

    @classmethod
    def from_specification(cls, specification: tuple) -> "TGDRewriter":
        """Rebuild an equal engine from :meth:`specification`."""
        return cls(*specification)

    def for_run(self) -> "TGDRewriter":
        """The engine one :meth:`rewrite` run expands its generations with.

        With memoisation, a shallow copy that shares every memo layer of
        this engine, and its dead-end filter, and adds the run's own
        table: the exact canonical keys of candidates that eliminated
        nothing, each with its NC-pruning verdict (see :meth:`expand`).
        The table starts empty and is dropped with the copy when the run
        ends, so no run sees another's.  Without memoisation, the engine itself: every
        candidate that is not a dead end is built and reduced.
        """
        if self._rename_cache is None:
            return self
        run = copy.copy(self)
        run._run_keys = {}
        return run

    def rewrite(
        self,
        query: ConjunctiveQuery,
        strategy: "SchedulingStrategy | None" = None,
        checkpoint: "FrontierCheckpoint | None" = None,
        on_generation: Callable[[int], None] | None = None,
    ) -> RewritingResult:
        """Compute the perfect rewriting of *query* w.r.t. the rewriter's rules.

        The result is a pure function of ``(rules, options, query)``: the
        rename-apart pool mints deterministically and every memo returns
        what a fresh computation would, so a warmed-up engine produces
        the same bytes as a fresh one — the invariant that lets
        :func:`repro.parallel.compile_workloads` fan queries out to worker
        processes without changing what gets stored.

        Each generation is expanded with ``map(engine.expand, batch)``
        unless a *strategy* is given; the output is byte-identical either
        way.  The caller owns the strategy and closes it.  *checkpoint*
        saves the kernel state after every generation, so a killed run
        can be resumed from the last completed generation (the checkpoint
        file is removed once the rewriting completes).

        *on_generation*, if given, is called before each generation is
        drained, with the number of generations drained so far: ``0``
        first on a fresh run, the checkpointed generation first on a
        resumed one, and always after the previous generation was merged
        and checkpointed.  Whatever it raises cuts the run there, so a
        deadline, a shutdown or an injected fault loses at most the
        generation it stopped.
        """
        start = time.perf_counter()
        memo_snapshot = self._memo_counters()

        state: KernelState | None = None
        if checkpoint is not None:
            state = checkpoint.load(self, query)
        if state is None:
            statistics = RewritingStatistics()
            initial, pruned = self._initial(query, statistics)
            if pruned:
                # The input query itself violates a negative constraint: it
                # can never be entailed by a consistent database (§5.1).
                statistics.pruned_by_constraints += 1
                self._record_memo_counters(statistics, memo_snapshot)
                statistics.elapsed_seconds = time.perf_counter() - start
                return RewritingResult(
                    query=query,
                    rules=self._rules,
                    ucq=UnionOfConjunctiveQueries([]),
                    statistics=statistics,
                )
            state = KernelState.initial(initial, statistics)
        statistics = state.statistics

        # The kernel loop: drain a generation, expand it, merge in
        # frontier order — the single point where candidates are
        # interned, labelled and scheduled.
        engine = self.for_run()
        if strategy is not None:
            strategy.begin_run(engine, query, state.frontier.generation)
        while state.frontier:
            if on_generation is not None:
                on_generation(state.frontier.generation)
            batch = state.frontier.take_generation()
            if strategy is None:
                expansions = map(engine.expand, batch)
            else:
                expansions = strategy.expand_generation(engine, batch)
            for expansion in expansions:
                merge_expansion(state, expansion, self._max_queries)
            if checkpoint is not None:
                checkpoint.save(self, query, state)

        store, labels = state.store, state.labels
        final = self._unfold(store, labels)
        auxiliary = tuple(
            stored
            for stored in store
            if labels[stored] == LABEL_FACTORIZATION or self._mentions_internal(stored)
        )
        self._finalize_statistics(statistics, store)
        self._record_memo_counters(statistics, memo_snapshot)
        statistics.elapsed_seconds = time.perf_counter() - start
        if checkpoint is not None:
            checkpoint.clear()
        return RewritingResult(
            query=query,
            rules=self._rules,
            ucq=UnionOfConjunctiveQueries(final),
            auxiliary_queries=auxiliary,
            statistics=statistics,
        )

    @staticmethod
    def _finalize_statistics(
        statistics: RewritingStatistics, store: QuerySet
    ) -> None:
        """Copy the interning counters of the run's store into *statistics*."""
        interning = store.statistics
        statistics.interned_queries = len(store)
        statistics.canonical_buckets = store.bucket_count
        statistics.canonical_collisions = interning.collisions
        statistics.variant_lookups = interning.lookups
        statistics.variant_cache_hits = interning.hits
        statistics.variant_exact_hits = interning.exact_hits
        statistics.variant_confirmations = interning.confirmations

    def _memo_counters(self) -> tuple[int, int]:
        """Current absolute hit and miss counters of the rename-apart pool."""
        if self._rename_cache is None:
            return (0, 0)
        return (self._rename_cache.hits, self._rename_cache.misses)

    def _record_memo_counters(
        self, statistics: RewritingStatistics, snapshot: tuple[int, int]
    ) -> None:
        """Store this run's rename-apart counter deltas into *statistics*.

        The pool lives for the whole engine, so a run's share is the
        difference against the snapshot taken when the run started.
        """
        after = self._memo_counters()
        statistics.rename_cache_hits = after[0] - snapshot[0]
        statistics.rename_cache_misses = after[1] - snapshot[1]

    def _rename_apart(self, rule: TGD, query: ConjunctiveQuery) -> TGD:
        """A copy of *rule* with variables disjoint from *query*'s.

        Served from the rename-apart pool, or minted afresh without
        memoisation — the same copy either way, so the two engines write
        the same bytes.
        """
        rule_key = self._rule_keys[id(rule)]
        if self._rename_cache is None:
            return RenameApartCache.unpooled(rule_key, rule, query.variables)
        return self._rename_cache.rename(rule_key, rule, query.variables)

    def _mentions_internal(self, query: ConjunctiveQuery) -> bool:
        """``True`` iff the query uses an auxiliary predicate of the normalisation."""
        if not self._internal_predicates:
            return False
        return any(atom.predicate in self._internal_predicates for atom in query.body)

    def _unions(self) -> RenamingClosures | None:
        """The closures to collapse, or ``None`` when every closure is trivial."""
        closures = self._closures
        return closures if closures.table else None

    def _unfold(
        self, store: QuerySet, labels: dict[ConjunctiveQuery, int]
    ) -> list[ConjunctiveQuery]:
        """The final rewriting: the label-1 members of the stored union-CQs.

        Every member of a label-1 union-CQ is in it, and every member of
        a label-0 one but the member a factorisation step made (see
        :meth:`RenamingClosures.unfold`).  Members over internal
        predicates are dropped, and a member that is a variant of an
        earlier one is dropped too (:func:`distinct_members`): two
        union-CQs can share members.
        """
        members = [
            member
            for stored in store
            for member in self._closures.unfold(stored, labels[stored] != LABEL_REWRITING)
            if not self._mentions_internal(member)
        ]
        return distinct_members(members)

    # -- the pure step function of the frontier kernel ---------------------------------

    def expand(self, query: ConjunctiveQuery) -> Expansion:
        """All candidates one application of Algorithm 1's steps yields on *query*.

        The pure step function of the frontier kernel: factorization
        candidates first (Definition 2 — the rule is *not* renamed apart,
        it only contributes its head predicate and existential position,
        both invariant under renaming), then rewriting candidates
        (Definition 1), each in rule-index order.  Nothing is interned and
        no kernel state is touched, so expansions of one generation can
        run concurrently — on threads sharing this engine, or in worker
        processes holding a replica — without changing a byte of the
        merged result.

        *query* is a union-CQ (:mod:`repro.core.closures`): a step
        applies to any predicate of a collapsed atom's closure, the atoms
        a step adds (a rule body, a factorisation's merged atom) are
        collapsed, and a renaming rule is applied to a single collapsed
        atom never, as its result is a member of *query* itself.

        Each candidate is encoded straight from the step's unifier
        (:func:`repro.logic.flat.encode_query`).  The encoding first
        decides whether it is a dead end (:mod:`repro.core.dead_ends`); a
        dead end is never keyed, and reaches the merge as a
        :class:`Derivation` without a query object or a key, flagged to
        be dropped.  Every other candidate is keyed once from the same
        encoding.  On an engine from :meth:`for_run`, an
        exact key already in the run's table settles any other candidate
        from the table: it eliminates nothing, its pruning verdict is the
        table's, and it reaches the merge the same way — cover sets and
        constraint violations are the same for every variant of a query.
        Every other candidate is built, reduced (query elimination) and
        checked against the negative constraints, and enters the table if
        it eliminated nothing; the reduced form of a candidate that lost
        atoms is never reused, as Lemma 9 fixes how many atoms go, not
        which.

        A union-CQ candidate stays collapsed only when every member gets
        the same verdicts: it is distinct (no two atoms can coincide), and
        the dead-end verdict, query elimination and NC pruning treat its
        members alike.  Otherwise the members the per-CQ kernel would
        have made are built instead (:meth:`_unfolded`) and settled one by
        one.
        """
        unions = self._unions()
        candidate_rules = self._rule_index.candidate_rules(query, unions)
        candidates: list[CandidateQuery] = []

        for rule in candidate_rules:
            for factorizable in factorizable_sets(rule, query, unions):
                self._settle(
                    self._factorization(query, rule, factorizable, unions),
                    LABEL_FACTORIZATION,
                    candidates,
                )

        for rule in candidate_rules:
            renamed = self._rename_apart(rule, query)
            added = renamed.body if unions is None else unions.collapse_atoms(renamed.body)
            for atom_set, unifier in applicable_atom_sets(
                renamed,
                query,
                unions,
                renaming=unions is not None and id(rule) in unions.renaming_rules,
            ):
                # γ_{A ∪ {head(σ)}}(q[A / body(σ)]), the rewriting step.
                self._settle(
                    Derivation(query, unifier, atom_set, added),
                    LABEL_REWRITING,
                    candidates,
                )

        return Expansion(
            source=query,
            candidates=tuple(candidates),
            rules_considered=len(candidate_rules),
            rules_skipped=len(self._rules) - len(candidate_rules),
        )

    @staticmethod
    def _factorization(
        query: ConjunctiveQuery,
        rule: TGD,
        factorizable,
        unions: RenamingClosures | None,
    ) -> Derivation:
        """The factorisation step's derivation: the set merged into one atom.

        The merged atom ranges over the head predicate's closure.  When
        the head predicate has none and every atom of the set is over it,
        applying the unifier merges them in place; otherwise they are
        replaced by the merged atom, a new atom of the step.
        """
        head = rule.head[0].predicate
        merged = head if unions is None else unions.collapse(head)
        atoms = factorizable.atoms
        if merged == head and all(atom.predicate == head for atom in atoms):
            return Derivation(query, factorizable.unifier)
        return Derivation(
            query, factorizable.unifier, atoms, (Atom(merged, atoms[0].terms),)
        )

    def _settle(
        self, derivation: Derivation, label: int, candidates: list[CandidateQuery]
    ) -> None:
        """Append the candidates of one step to *candidates*.

        One candidate, unless the step made a union-CQ that is not
        uniform: then one per member the per-CQ kernel would have made.
        """
        flat = encode_query(*derivation)
        unions = self._unions()
        if unions is not None and not unions.has_collapsed(flat):
            unions = None
        candidate = self._candidate(derivation, label, flat, unions)
        if candidate is not None:
            candidates.append(candidate)
            return
        for member in self._unfolded(derivation, unions):
            candidates.append(self._candidate(Derivation(member, None), label))

    def _candidate(
        self,
        derivation: Derivation,
        label: int,
        flat: FlatQuery | None = None,
        unions: RenamingClosures | None = None,
    ) -> CandidateQuery | None:
        """Drop one raw candidate as a dead end, or key it, then settle or reduce it.

        With *unions* the candidate is a union-CQ, and ``None`` means
        that its members would not all get the same verdicts.
        """
        if flat is None:
            flat = encode_query(*derivation)
        if unions is not None:
            source, _, removed, added = derivation
            if not unions.distinct(flat, len(source.body) - len(removed) + len(added)):
                return None
        if self._dead_ends is not None:
            if unions is None:
                dead = self._dead_ends.is_dead_end(flat)
            else:
                dead = self._dead_ends.is_dead_end(flat, unions.key_members)
                if dead is None:
                    return None
            if dead:
                return CandidateQuery(None, label, False, 0, None, derivation, True)
        fingerprint = encoded_fingerprint(flat)
        key, exact = fingerprint
        keys = self._run_keys
        if exact and keys is not None:
            pruned = keys.get(key)
            if pruned is not None:
                return CandidateQuery(None, label, pruned, 0, fingerprint, derivation)
        query = derivation.build(fingerprint)
        if unions is None:
            verdict = self._verdict(query)
        else:
            verdict = self._union_verdict(query, unions)
            if verdict is None:
                return None
        query, eliminated, pruned = verdict
        if exact and keys is not None and not eliminated:
            keys[key] = pruned
        return CandidateQuery(query, label, pruned, eliminated, fingerprint, derivation)

    def _verdict(self, query: ConjunctiveQuery) -> tuple[ConjunctiveQuery, int, bool]:
        """Reduce a CQ: the reduced CQ, how many atoms went, and its NC verdict."""
        eliminated = 0
        if self._eliminator is not None:
            result = self._eliminator.eliminate_atoms(query)
            eliminated = result.removed_count
            query = result.reduced
        return query, eliminated, self._pruner is not None and self._pruner.is_unsatisfiable(
            query
        )

    def _union_verdict(
        self, query: ConjunctiveQuery, unions: RenamingClosures
    ) -> tuple[ConjunctiveQuery, int, bool] | None:
        """Reduce and judge a distinct union-CQ, or ``None`` if its members differ.

        Returns the reduced union-CQ, how many atoms went, and whether
        NC pruning drops every member.  Elimination must drop the same
        atoms from every member, and, when it drops any, leave a union-CQ
        that drops nothing more: the per-CQ kernel reaches the members of
        the reduced form by renaming steps, each reduced again.
        """
        eliminated = 0
        if self._eliminator is not None:
            dropped = self._eliminator.union_eliminated(query, unions)
            if dropped is None:
                return None
            if dropped:
                eliminated = len(dropped)
                query = query.drop_atoms(dropped)
                if self._eliminator.union_eliminated(query, unions) != ():
                    return None
        pruned = False
        if self._pruner is not None:
            pruned = self._pruner.union_verdict(query, unions)
            if pruned is None:
                return None
        return query, eliminated, pruned

    @staticmethod
    def _unfolded(
        derivation: Derivation, unions: RenamingClosures
    ) -> Iterator[ConjunctiveQuery]:
        """The members the per-CQ kernel makes by one step on a union-CQ's members.

        The atoms the step keeps from the expanded union-CQ range over
        their closures; the atoms it adds are at their root predicate (the
        per-CQ kernel reaches their subclasses by later renaming steps).
        """
        source, substitution, removed, added = derivation
        apply_atom = substitution.apply_atom
        kept = [apply_atom(atom) for atom in source.body if atom not in removed]
        new = [
            Atom(unions.root(atom.predicate), atom.terms)
            for atom in map(apply_atom, added)
        ]
        answer_terms = tuple(substitution.apply_term(t) for t in source.answer_terms)
        for predicates in product(*(unions.members(atom.predicate) for atom in kept)):
            body = [
                Atom(predicate, atom.terms) for predicate, atom in zip(predicates, kept)
            ]
            yield ConjunctiveQuery(body + new, answer_terms, source.head_name)

    def _initial(
        self, query: ConjunctiveQuery, statistics: RewritingStatistics
    ) -> tuple[ConjunctiveQuery, bool]:
        """The input query, reduced, collapsed if uniform, and its pruning verdict.

        An input query that loses atoms is not collapsed: its union-CQ
        would be uniform only if every member lost the same atoms, and
        the per-CQ start is exact either way.
        """
        initial, eliminated, pruned = self._verdict(query)
        statistics.eliminated_atoms += eliminated
        unions = self._unions()
        if unions is not None and not eliminated:
            collapsed = unions.collapse_query(query)
            if collapsed is not query and unions.distinct(
                encode_query(collapsed), len(collapsed.body)
            ):
                verdict = self._union_verdict(collapsed, unions)
                if verdict is not None:
                    return verdict[0], verdict[2]
        return initial, pruned


def rewrite(
    query: ConjunctiveQuery,
    rules: Sequence[TGD] | OntologyTheory,
    negative_constraints: Iterable[NegativeConstraint] = (),
    use_elimination: bool = False,
    use_nc_pruning: bool = False,
    max_queries: int = 200_000,
) -> RewritingResult:
    """One-shot perfect rewriting (``TGD-rewrite`` or, with elimination, ``TGD-rewrite*``)."""
    rewriter = TGDRewriter(
        rules,
        negative_constraints=negative_constraints,
        use_elimination=use_elimination,
        use_nc_pruning=use_nc_pruning,
        max_queries=max_queries,
    )
    return rewriter.rewrite(query)
