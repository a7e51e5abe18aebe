"""QuOnto-style rewriting: single-atom resolution with exhaustive factorisation.

This is the comparison system ``QO`` of Table 1.  It reimplements the
PerfectRef-style algorithm of Calvanese et al. (JAR'07) in the generalised
TGD setting of Calì, Gottlob & Pieris (AMW'10) — the algorithm the paper's
``TGD-rewrite`` improves upon.  The two differences that make its output
larger are exactly the weaknesses discussed in Section 2:

* the **reduce step** (factorisation) is *exhaustive*: any two body atoms
  over the same predicate that unify are unified, and every query produced
  this way is kept **in the final rewriting** (TGD-rewrite instead restricts
  factorisation to Definition 2 and excludes factorised queries from the
  output);
* no redundancy elimination is performed: existential joins that the
  constraints render superfluous stay in every generated query, so whole
  families of redundant CQs are expanded.

The algorithm remains sound and complete (it explores a superset of the
queries explored by TGD-rewrite), which the integration tests verify against
the chase; it is simply wasteful — that waste is what Table 1 quantifies.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterable, Sequence

from ..core.applicability import applicable_unifier
from ..core.rewriter import RewritingResult, RewritingStatistics
from ..dependencies.normalization import is_normalized, normalize
from ..dependencies.tgd import TGD
from ..dependencies.theory import OntologyTheory
from ..logic.terms import VariableFactory
from ..logic.unification import mgu
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import QuerySet, UnionOfConjunctiveQueries


class QuOntoStyleRewriter:
    """Single-atom backward-chaining rewriter with exhaustive factorisation."""

    def __init__(
        self,
        rules: Sequence[TGD] | OntologyTheory,
        max_queries: int = 200_000,
    ) -> None:
        if isinstance(rules, OntologyTheory):
            rules = rules.tgds
        rules = list(rules)
        internal_predicates: frozenset = frozenset()
        if not is_normalized(rules):
            normalization = normalize(rules)
            rules = list(normalization.rules)
            internal_predicates = frozenset(normalization.auxiliary_predicates)
        self._rules: tuple[TGD, ...] = tuple(rules)
        # CQs over auxiliary predicates invented by the internal normalisation
        # can never match stored facts and are excluded from the output.
        self._internal_predicates = internal_predicates
        self._fresh = VariableFactory(prefix="QV")
        self._max_queries = max_queries

    @property
    def rules(self) -> tuple[TGD, ...]:
        """The (normalised) TGDs used for rewriting."""
        return self._rules

    def rewrite(self, query: ConjunctiveQuery) -> RewritingResult:
        """Compute the QuOnto-style perfect rewriting of *query*."""
        start = time.perf_counter()
        statistics = RewritingStatistics()
        store = QuerySet()
        store.add(query)
        worklist: list[ConjunctiveQuery] = [query]

        while worklist:
            current = worklist.pop()
            statistics.processed_queries += 1
            for candidate in self._rewriting_candidates(current):
                if store.add(candidate):
                    worklist.append(candidate)
                    statistics.generated_by_rewriting += 1
            for candidate in self._factorization_candidates(current):
                if store.add(candidate):
                    worklist.append(candidate)
                    statistics.generated_by_factorization += 1
            if len(store) > self._max_queries:
                raise RuntimeError(
                    f"QuOnto-style rewriting exceeded the budget of "
                    f"{self._max_queries} queries"
                )

        statistics.elapsed_seconds = time.perf_counter() - start
        visible = [
            stored
            for stored in store
            if not any(atom.predicate in self._internal_predicates for atom in stored.body)
        ]
        return RewritingResult(
            query=query,
            rules=self._rules,
            ucq=UnionOfConjunctiveQueries(visible),
            statistics=statistics,
        )

    # -- the two steps -------------------------------------------------------

    def _rewriting_candidates(
        self, query: ConjunctiveQuery
    ) -> Iterable[ConjunctiveQuery]:
        """Single-atom resolution against every applicable rule."""
        for rule in self._rules:
            renamed = rule.rename_apart(query.variables, self._fresh)
            head_atom = renamed.head[0]
            for atom in query.body:
                if atom.predicate != head_atom.predicate:
                    continue
                unifier = applicable_unifier(renamed, (atom,), query)
                if unifier is None:
                    continue
                # Assemble the resolved query in one go: the intermediate
                # query q[a / body(σ)] may temporarily drop an answer
                # variable that the unifier reintroduces via the frontier.
                new_body = [
                    unifier.apply_atom(other) for other in query.body if other != atom
                ]
                new_body.extend(unifier.apply_atom(other) for other in renamed.body)
                new_answer = tuple(
                    unifier.apply_term(term) for term in query.answer_terms
                )
                yield ConjunctiveQuery(new_body, new_answer, query.head_name)

    def _factorization_candidates(
        self, query: ConjunctiveQuery
    ) -> Iterable[ConjunctiveQuery]:
        """Exhaustive reduce step: unify every unifiable pair of body atoms."""
        for left, right in combinations(query.body, 2):
            if left.predicate != right.predicate:
                continue
            unifier = mgu([left, right])
            if unifier is None:
                continue
            # PerfectRef's reduce step applies the unifier to the whole query
            # (head included); answer variables may get renamed or merged,
            # which is harmless because head and body are substituted
            # consistently.
            yield query.apply(unifier)


def quonto_rewrite(
    query: ConjunctiveQuery,
    rules: Sequence[TGD] | OntologyTheory,
    max_queries: int = 200_000,
) -> RewritingResult:
    """One-shot QuOnto-style rewriting."""
    return QuOntoStyleRewriter(rules, max_queries=max_queries).rewrite(query)
