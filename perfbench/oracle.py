"""Expected answers, computed without the server's rewriting engine.

The server answers with ``TGD-rewrite`` (:mod:`repro.core.rewriter` and
the flattened kernels under it) and its in-memory backend.  The oracle
here rewrites with the Requiem-style resolution baseline of Table 1
(:class:`~repro.baselines.resolution.ResolutionRewriter`: Skolemised
Horn clauses, its own unifier, no subsumption sweep) and evaluates the
rewriting on the SQLite backend, so a fault in the engine's expansion,
merge, MGU or subsumption steps shows up as a disagreement instead of
being repeated on both sides.

Both rewritings give the certain answers only when the ABox is
consistent with the ontology's negative constraints — the engine prunes
queries that embed a constraint body (Section 5.1) under exactly that
assumption.  :meth:`Oracle.admits` therefore keeps every seeded ABox
consistent: a fact is admitted only if no rewriting of a constraint body
then maps into the facts.  A query whose answers need facts that no
consistent ABox holds then has no answers.
"""

from __future__ import annotations

from repro.backends import create_backend
from repro.baselines.resolution import ResolutionRewriter
from repro.database.instance import RelationalInstance
from repro.logic.terms import Constant, Variable
from repro.queries.parser import parse_query
from repro.serving.app import encode_answers
from repro.workloads import get_workload


def _bind(atom, row, binding):
    """*binding* extended so that *atom* maps onto *row*, or ``None``."""
    extended = binding
    for term, value in zip(atom.terms, row):
        if isinstance(term, Variable):
            bound = extended.get(term)
            if bound is None:
                if extended is binding:
                    extended = dict(binding)
                extended[term] = value
            elif bound != value:
                return None
        elif not isinstance(term, Constant) or term.value != value:
            return None
    return extended


def _maps(body, present, binding) -> bool:
    """Whether *body* maps into ``present`` (relation -> rows) extending *binding*."""
    if not body:
        return True
    atom, rest = body[0], body[1:]
    for row in present.get(atom.predicate.name, ()):
        extended = _bind(atom, row, binding)
        if extended is not None and _maps(rest, present, extended):
            return True
    return False


class Oracle:
    """Consistency checks and certain answers for one Table 1 ontology."""

    def __init__(self, ontology: str) -> None:
        self.ontology = ontology
        theory = get_workload(ontology).theory
        self._rewriter = ResolutionRewriter(theory.tgds, prune_subsumed=False)
        #: Every rewriting of every constraint body: the ABox patterns
        #: that would make it inconsistent.
        self._violations = [
            query.body
            for constraint in theory.negative_constraints
            for query in self._rewriter.rewrite(constraint.as_query()).ucq
        ]

    def admits(self, present: dict[str, set[tuple]], relation: str, row: tuple) -> bool:
        """Whether ``relation(row)`` is new to *present* and keeps it consistent."""
        rows = present.setdefault(relation, set())
        if row in rows:
            return False
        rows.add(row)
        try:
            for body in self._violations:
                for index, atom in enumerate(body):
                    if atom.predicate.name != relation:
                        continue
                    binding = _bind(atom, row, {})
                    rest = body[:index] + body[index + 1 :]
                    if binding is not None and _maps(rest, present, binding):
                        return False
            return True
        finally:
            rows.discard(row)

    def answers(self, facts: list[list], texts) -> dict[str, list]:
        """Encoded certain answers of each query text over *facts*."""
        instance = RelationalInstance()
        for relation, values in facts:
            instance.add_tuple(relation, values)
        backend = create_backend("sqlite")
        try:
            expected = {}
            for text in texts:
                ucq = self._rewriter.rewrite(parse_query(text)).ucq
                tuples = (
                    backend.prepare(ucq).execute(instance) if len(ucq) else frozenset()
                )
                expected[text] = encode_answers(tuples)
            return expected
        finally:
            backend.close()
