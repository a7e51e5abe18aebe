"""Rewriting quality metrics: size, length and width (Table 1).

The paper argues that the number of CQs alone is not enough to judge a
rewriting and uses three structural metrics:

* **size** — the number of CQs in the perfect UCQ rewriting;
* **length** — the total number of atoms across all CQs of the rewriting;
* **width** — the total number of joins to be performed when the rewriting is
  executed.  For a single CQ we count, for every variable occurring more than
  once in the query (head included), one join per occurrence beyond the
  first; the width of a UCQ is the sum over its members.

These metrics are machine-independent, which is what makes the qualitative
comparison with the paper's Table 1 meaningful even though our ontologies are
reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .logic.terms import is_variable
from .queries.conjunctive_query import ConjunctiveQuery
from .queries.ucq import UnionOfConjunctiveQueries


@dataclass(frozen=True)
class RewritingMetrics:
    """The (size, length, width) triple reported in Table 1."""

    size: int
    length: int
    width: int

    def as_row(self) -> tuple[int, int, int]:
        """The metrics as a plain tuple (size, length, width)."""
        return (self.size, self.length, self.width)

    def __repr__(self) -> str:
        return f"size={self.size} length={self.length} width={self.width}"


def query_length(query: ConjunctiveQuery) -> int:
    """Number of body atoms of a CQ."""
    return len(query.body)


def query_width(query: ConjunctiveQuery) -> int:
    """Number of joins performed when executing a CQ.

    Every variable occurring ``k > 1`` times in the **body** contributes
    ``k - 1`` joins: its body occurrences must be pairwise equated when the
    query is executed.  Head occurrences are projections, not joins, so a
    single-atom query such as ``q1(A) ← Location(A)`` has width 0 (as in
    Table 1 of the paper).
    """
    body_occurrences: dict = {}
    for atom in query.body:
        for term in atom.terms:
            if is_variable(term):
                body_occurrences[term] = body_occurrences.get(term, 0) + 1
    return sum(count - 1 for count in body_occurrences.values() if count > 1)


def ucq_metrics(
    ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery],
) -> RewritingMetrics:
    """Compute (size, length, width) for a UCQ rewriting."""
    queries = list(ucq)
    return RewritingMetrics(
        size=len(queries),
        length=sum(query_length(q) for q in queries),
        width=sum(query_width(q) for q in queries),
    )
