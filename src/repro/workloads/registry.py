"""Workload registry: ontology + query sets used by the evaluation (Section 7).

A :class:`Workload` bundles everything one of the Table 1 test cases needs:

* the ontological theory Σ (TGDs, NCs, KDs) — either translated from a
  DL-Lite_R TBox or written directly as Datalog± rules;
* the five conjunctive queries of Table 2 (``q1`` … ``q5``);
* an ABox generator for end-to-end query answering tests.

The ``*X`` variants of Table 1 (``UX``, ``AX``, ``P5X``) are the same
ontologies after normalisation (Lemmas 1 and 2) *with the auxiliary
predicates considered part of the schema*: CQs of the rewriting that mention
auxiliary predicates are then counted (they could match database facts),
whereas in the plain variants they can be discarded because the auxiliary
relations are internal and always empty in the stored database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..database.generator import DatabaseGenerator
from ..database.instance import RelationalInstance
from ..dependencies.theory import OntologyTheory
from ..logic.atoms import Predicate
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries


@dataclass
class Workload:
    """One evaluation scenario: a theory, its queries and an ABox generator."""

    name: str
    theory: OntologyTheory
    queries: dict[str, ConjunctiveQuery]
    description: str = ""
    auxiliary_public: bool = False
    abox_factory: Callable[[int, int], RelationalInstance] | None = None

    @property
    def query_names(self) -> tuple[str, ...]:
        """The query identifiers, in Table 2 order."""
        return tuple(sorted(self.queries))

    def query(self, name: str) -> ConjunctiveQuery:
        """The query registered under *name* (e.g. ``"q2"``)."""
        return self.queries[name]

    def abox(self, seed: int = 0, facts_per_relation: int = 10) -> RelationalInstance:
        """A synthetic ABox for end-to-end answering tests.

        Uses the workload-specific factory when one is registered, otherwise a
        generic random instance over the theory's schema.
        """
        if self.abox_factory is not None:
            return self.abox_factory(seed, facts_per_relation)
        generator = DatabaseGenerator(seed=seed)
        return generator.populate_for_rules(
            list(self.theory.tgds), facts_per_relation=facts_per_relation
        )

    def normalized_variant(self, suffix: str = "X") -> "Workload":
        """The ``*X`` variant: normalised rules with public auxiliary predicates."""
        normalized = self.theory.normalized(keep_auxiliary_in_schema=True)
        return Workload(
            name=f"{self.name}{suffix}",
            theory=normalized.theory,
            queries=dict(self.queries),
            description=(
                f"{self.description} (normalised; auxiliary predicates are part "
                "of the schema)"
            ),
            auxiliary_public=True,
            abox_factory=self.abox_factory,
        )

    def __repr__(self) -> str:
        return (
            f"Workload({self.name!r}: {len(self.theory.tgds)} TGDs, "
            f"{len(self.queries)} queries)"
        )


def restrict_to_schema(
    ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery],
    schema_predicates: Iterable[Predicate],
) -> UnionOfConjunctiveQueries:
    """Drop CQs that mention predicates outside the public schema.

    Auxiliary predicates introduced by normalisation never hold facts in the
    stored database, so a CQ mentioning one can never produce answers and can
    be removed from the rewriting without changing its certain answers.  This
    is how the plain ``U``/``A``/``P5`` numbers of Table 1 are obtained from a
    rewriting computed over the normalised rules.
    """
    allowed = set(schema_predicates)
    kept = [
        query
        for query in ucq
        if all(atom.predicate in allowed for atom in query.body)
    ]
    return UnionOfConjunctiveQueries(kept)


@dataclass
class WorkloadRegistry:
    """A name-indexed collection of workloads."""

    _workloads: dict[str, Workload] = field(default_factory=dict)

    def register(self, workload: Workload) -> Workload:
        """Add a workload (overwriting any previous one with the same name)."""
        self._workloads[workload.name] = workload
        return workload

    def get(self, name: str) -> Workload:
        """The workload registered under *name*."""
        return self._workloads[name]

    def __contains__(self, name: str) -> bool:
        return name in self._workloads

    def __iter__(self):
        return iter(self._workloads.values())

    def __len__(self) -> int:
        return len(self._workloads)

    def names(self) -> tuple[str, ...]:
        """All registered workload names."""
        return tuple(sorted(self._workloads))
