"""Seeded synthetic Datalog± workload generation.

A :class:`WorkloadGenerator` emits random-but-reproducible ``(theory,
query, instance)`` triples parameterised by fragment (linear / sticky /
sticky-join — the FO-rewritable classes of Theorem 7), predicate count,
arity, rule fan-out, existential density and ABox scale.  Every emitted
theory is *validated* against :mod:`repro.dependencies.classifiers`: a
triple labelled ``linear`` is accepted by :func:`~repro.dependencies.
classifiers.is_linear`, and so on — the generator never hands the oracles
a theory outside the fragment it claims.

Determinism is a hard contract, in two layers:

* the same ``(seed, config)`` always yields the same triple — every
  random draw goes through :class:`random.Random` streams seeded from
  the case's coordinates (one for the schema, rules and query, one for
  the linear fragment's qualified existentials, one for the instance),
  and
* the emitted rule order, variable names and fact order are independent
  of ``PYTHONHASHSEED``: the generator only ever iterates lists it built
  itself (never sets or dicts), so re-running under a different hash
  seed prints byte-identical theories (pinned by
  ``tests/fuzzing/test_hashseed_determinism.py``).

Rules are generated in the normal form the rewriting engine assumes
(single head atom, at most one existential variable occurring once),
except the linear fragment's qualified existentials: a rule whose head
invents a value may carry a second head atom sharing it, shaped like
P5's ``Start(X) → ∃Y edge(X, Y), Target(Y)``.  The engine normalises
those through an internal predicate (Lemma 1), which is what puts its
dead-end verdict (:mod:`repro.core.dead_ends`) in front of the chase and
elimination oracles; the chase runs the rules as generated.

Fragment strategies:

* ``linear`` — one body atom per rule; repeated body variables,
  arbitrary recursion and two-atom heads sharing the invented value
  allowed (membership is purely syntactic, and the rewriting of a linear
  set always terminates: bodies never grow, so the variant-interned
  query space is finite);
* ``sticky`` — up to ``fan_out`` body atoms; join variables are steered
  into the head (the marking procedure then leaves them unmarked) and
  every candidate rule is accepted only if the *whole set so far* stays
  sticky — stickiness is a property of the set, not of a rule, so an
  incremental check is the only sound filter;
* ``sticky-join`` — candidates alternate between the linear and sticky
  shapes and are accepted against :func:`~repro.dependencies.classifiers.
  is_sticky_join` (the paper's sound approximation ``linear ∨ sticky``),
  which exercises both branches of that recogniser.

The non-linear fragments are additionally *predicate-stratified*: every
rule's head predicate sits strictly above all its body predicates in a
fixed order.  Backward rewriting then strictly descends that order each
time a multi-atom body is substituted in, so query bodies stay bounded
and the rewriting terminates fast.  Without this, a recursive sticky set
can grow query bodies without bound (FO-rewritability of the *answers*
does not make the naive rewriting finite) — recursion coverage comes
from the linear fragment and the registry ontologies instead.

The module also scales the existing registry ontologies: LUBM-style
10–100× ABoxes for any registered workload via
:func:`scaled_registry_instance` / :func:`registry_cases`, built on
:class:`repro.database.generator.DatabaseGenerator`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..database.generator import DatabaseGenerator
from ..database.instance import RelationalInstance
from ..dependencies.classifiers import is_linear, is_sticky, is_sticky_join
from ..dependencies.tgd import TGD
from ..dependencies.theory import OntologyTheory
from ..logic.atoms import Atom, Predicate
from ..logic.terms import Constant, Variable
from ..queries.conjunctive_query import ConjunctiveQuery
from ..workloads import get_workload

#: The FO-rewritable fragments the generator can target (Theorem 7).
FRAGMENTS = ("linear", "sticky", "sticky-join")

#: Classifier deciding membership for each fragment label.
FRAGMENT_CLASSIFIERS = {
    "linear": is_linear,
    "sticky": is_sticky,
    "sticky-join": is_sticky_join,
}

#: Candidate-rule attempts before a rule slot is skipped (sticky sets can
#: reject many candidates late in generation; skipping keeps termination).
_MAX_ATTEMPTS_PER_RULE = 25


class GenerationError(RuntimeError):
    """Raised when a generated theory fails its own fragment validation."""


@dataclass(frozen=True)
class GeneratorConfig:
    """The axes of the synthetic workload space.

    Attributes
    ----------
    fragment:
        Target language fragment (``linear`` / ``sticky`` / ``sticky-join``).
    predicates:
        Number of schema predicates.
    max_arity:
        Maximum predicate arity (arities are drawn from ``1..max_arity``).
    rules:
        Number of TGDs to aim for (sticky rejection sampling may emit
        slightly fewer; never more).
    fan_out:
        Maximum body atoms per rule for the non-linear fragments.
    existential_density:
        Probability that a rule's head invents an existential value.
    query_atoms:
        Maximum body atoms of the generated conjunctive query.
    facts_per_relation:
        ABox scale: facts generated per schema predicate.
    domain_size:
        Number of distinct constants in the ABox domain.
    """

    fragment: str = "linear"
    predicates: int = 6
    max_arity: int = 3
    rules: int = 8
    fan_out: int = 2
    existential_density: float = 0.4
    query_atoms: int = 2
    facts_per_relation: int = 12
    domain_size: int = 18

    def __post_init__(self) -> None:
        if self.fragment not in FRAGMENTS:
            raise ValueError(
                f"unknown fragment {self.fragment!r}; choose from {FRAGMENTS}"
            )
        for name in ("predicates", "max_arity", "rules", "fan_out", "query_atoms",
                     "facts_per_relation", "domain_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.existential_density <= 1.0:
            raise ValueError(
                f"existential_density must be in [0, 1], got {self.existential_density}"
            )
        if self.fragment != "linear" and self.predicates < 2:
            raise ValueError(
                "non-linear fragments need predicates >= 2 "
                "(rules are predicate-stratified)"
            )


@dataclass(frozen=True)
class GeneratedCase:
    """One reproducible fuzzing triple plus its provenance."""

    seed: int
    config: GeneratorConfig
    theory: OntologyTheory
    query: ConjunctiveQuery
    instance: RelationalInstance = field(compare=False)

    @property
    def fragment(self) -> str:
        """The fragment label the theory was generated (and validated) for."""
        return self.config.fragment

    def with_rules(self, rules: Sequence[TGD]) -> "GeneratedCase":
        """A copy with a reduced rule set (used by the shrinker)."""
        theory = OntologyTheory(tgds=list(rules), name=self.theory.name)
        return replace(self, theory=theory)

    def with_query(self, query: ConjunctiveQuery) -> "GeneratedCase":
        """A copy with a reduced query (used by the shrinker)."""
        return replace(self, query=query)

    def with_facts(self, facts: Sequence[Atom]) -> "GeneratedCase":
        """A copy with a reduced fact set (used by the shrinker)."""
        return replace(self, instance=RelationalInstance(facts=list(facts)))

    def describe(self) -> str:
        """One line of provenance for logs and repro files."""
        return (
            f"{self.fragment} seed={self.seed}: {len(self.theory.tgds)} rules, "
            f"{len(self.query.body)} query atoms, {len(self.instance)} facts"
        )


class WorkloadGenerator:
    """Seeded generator of :class:`GeneratedCase` triples.

    One generator covers one point of the config space; :meth:`case`
    derives an independent deterministic sub-stream per case index, so
    ``WorkloadGenerator(seed, config).case(i)`` is a pure function of
    ``(seed, config, i)`` — cases can be regenerated individually (the
    repro files store exactly these coordinates).
    """

    def __init__(self, seed: int = 0, config: GeneratorConfig | None = None) -> None:
        self._seed = seed
        self._config = config if config is not None else GeneratorConfig()

    @property
    def seed(self) -> int:
        """The generator's base seed."""
        return self._seed

    @property
    def config(self) -> GeneratorConfig:
        """The generator's point in the workload space."""
        return self._config

    def case(self, index: int = 0) -> GeneratedCase:
        """The *index*-th triple of this generator's deterministic stream."""
        case_seed = self._case_seed(index)
        rng = random.Random(case_seed)
        schema = self._schema(rng)
        rules = self._rules(rng, schema)
        if not rules:  # pragma: no cover - only reachable with rules=1 + rejection
            rules = [self._linear_rule(rng, schema)]
        if self._config.fragment == "linear":
            # Qualified existentials draw from their own sub-stream, so
            # every other draw of the case stays where it was.
            rules = self._qualify(random.Random(case_seed ^ 0x0A0F), schema, rules)
        self._validate(rules)
        theory = OntologyTheory(
            tgds=rules,
            name=f"fuzz_{self._config.fragment.replace('-', '_')}_{case_seed}",
        )
        query = self._query(rng, schema, rules)
        instance = DatabaseGenerator(
            seed=case_seed ^ 0x5EED, domain_size=self._config.domain_size
        ).populate_for_rules(rules, facts_per_relation=self._config.facts_per_relation)
        return GeneratedCase(
            seed=self._seed, config=self._config, theory=theory,
            query=query, instance=instance,
        )

    def cases(self, count: int):
        """The first *count* triples of the stream."""
        return [self.case(index) for index in range(count)]

    # -- internals ---------------------------------------------------------

    def _case_seed(self, index: int) -> int:
        # Mix the base seed, the case index and the fragment so that two
        # fragments at the same seed do not share a stream.  Pure integer
        # arithmetic: no hash() anywhere (PYTHONHASHSEED independence).
        fragment_tag = FRAGMENTS.index(self._config.fragment) + 1
        return (self._seed * 1_000_003 + index * 7919 + fragment_tag) % (2**63)

    def _schema(self, rng: random.Random) -> list[Predicate]:
        """A fixed-order list of predicates (never a set: order matters)."""
        return [
            Predicate(f"p{i}", rng.randint(1, self._config.max_arity))
            for i in range(self._config.predicates)
        ]

    def _rules(self, rng: random.Random, schema: list[Predicate]) -> list[TGD]:
        accepted: list[TGD] = []
        classifier = FRAGMENT_CLASSIFIERS[self._config.fragment]
        for slot in range(self._config.rules):
            for _ in range(_MAX_ATTEMPTS_PER_RULE):
                candidate = self._candidate_rule(rng, schema, slot)
                if classifier(accepted + [candidate]):
                    accepted.append(candidate)
                    break
            # All attempts rejected: skip the slot.  Deterministic (the
            # stream advanced the same way) and always terminating.
        return accepted

    def _candidate_rule(
        self, rng: random.Random, schema: list[Predicate], slot: int
    ) -> TGD:
        fragment = self._config.fragment
        if fragment == "linear":
            return self._linear_rule(rng, schema, slot=slot)
        if fragment == "sticky":
            return self._joined_rule(rng, schema, slot=slot)
        # sticky-join: alternate the two shapes so both branches of the
        # ``linear ∨ sticky`` recogniser get exercised.  Both shapes stay
        # stratified here — a linear rule climbing the predicate order
        # would re-open the cycles stratification exists to rule out.
        if rng.random() < 0.5:
            return self._linear_rule(rng, schema, slot=slot, stratified=True)
        return self._joined_rule(rng, schema, slot=slot)

    def _linear_rule(
        self,
        rng: random.Random,
        schema: list[Predicate],
        slot: int = 0,
        stratified: bool = False,
    ) -> TGD:
        """A single-body-atom TGD; body variables may repeat."""
        if stratified:
            head_index = rng.randint(1, len(schema) - 1)
            head_predicate = schema[head_index]
            body_predicate = schema[rng.randrange(head_index)]
        else:
            head_predicate = rng.choice(schema)
            body_predicate = rng.choice(schema)
        variables = [Variable(f"X{i}") for i in range(body_predicate.arity)]
        body_terms: list[Variable] = []
        for position in range(body_predicate.arity):
            if body_terms and rng.random() < 0.15:
                body_terms.append(rng.choice(body_terms))  # a repeated variable
            else:
                body_terms.append(variables[position])
        body = Atom(body_predicate, tuple(body_terms))
        # Deduplicate while preserving first-occurrence order (no sets).
        body_variables: list[Variable] = []
        for term in body_terms:
            if term not in body_variables:
                body_variables.append(term)
        head = self._head_atom(rng, head_predicate, body_variables, slot)
        return TGD((body,), (head,), label=f"r{slot}")

    def _qualify(
        self, rng: random.Random, schema: list[Predicate], rules: list[TGD]
    ) -> list[TGD]:
        """Give half the linear rules that invent a value a second head atom.

        The second atom shares the invented value (a qualified
        existential), as ``Target(Y)`` does in P5's rule; its other terms
        are body variables.
        """
        qualified: list[TGD] = []
        for rule in rules:
            (body,) = rule.body
            (head,) = rule.head
            body_variables: list[Variable] = []
            for term in body.terms:
                if term not in body_variables:
                    body_variables.append(term)
            invented = [term for term in head.terms if term not in body_variables]
            if invented and rng.random() < 0.5:
                predicate = rng.choice(schema)
                position = rng.randrange(predicate.arity)
                second = Atom(
                    predicate,
                    tuple(
                        invented[0] if index == position else rng.choice(body_variables)
                        for index in range(predicate.arity)
                    ),
                )
                if second != head:
                    rule = TGD((body,), (head, second), label=rule.label)
            qualified.append(rule)
        return qualified

    def _joined_rule(
        self, rng: random.Random, schema: list[Predicate], slot: int = 0
    ) -> TGD:
        """A multi-body-atom, predicate-stratified TGD steered to stickiness.

        The head predicate is drawn first and every body predicate sits
        strictly below it in the schema order (see the module docstring
        for why).  Join variables (those occurring in more than one body
        atom) are propagated into the head whenever a head position is
        available: the marking procedure never base-marks a variable
        occurring in the (single) head atom, which is what keeps repeated
        body variables unmarked and the rule sticky-compatible.  The
        final word stays with the classifier in :meth:`_rules`.
        """
        head_index = rng.randint(1, len(schema) - 1)
        head_predicate = schema[head_index]
        atom_count = rng.randint(1, self._config.fan_out)
        pool = [Variable(f"X{i}") for i in range(2 * self._config.max_arity)]
        body: list[Atom] = []
        used: list[Variable] = []  # first-occurrence order, no sets
        for _ in range(atom_count):
            predicate = schema[rng.randrange(head_index)]
            terms: list[Variable] = []
            for _ in range(predicate.arity):
                if used and rng.random() < 0.5:
                    terms.append(rng.choice(used))  # share: creates joins
                else:
                    fresh = rng.choice(pool)
                    terms.append(fresh)
            body.append(Atom(predicate, tuple(terms)))
            for term in terms:
                if term not in used:
                    used.append(term)
        occurrences: dict[Variable, int] = {}
        for atom in body:
            for term in atom.terms:
                occurrences[term] = occurrences.get(term, 0) + 1
        joined = [variable for variable in used if occurrences[variable] > 1]
        head = self._head_atom(rng, head_predicate, used, slot, prefer=joined)
        return TGD(tuple(body), (head,), label=f"r{slot}")

    def _head_atom(
        self,
        rng: random.Random,
        predicate: Predicate,
        body_variables: list[Variable],
        slot: int,
        prefer: list[Variable] | None = None,
    ) -> Atom:
        """A normalised head: one atom, at most one existential, once.

        *prefer* lists variables that should reach the head first (the
        join variables of sticky candidates); remaining positions draw
        from all body variables, and at most one position becomes the
        existential ``Z`` with probability ``existential_density``.
        """
        existential_position = -1
        if rng.random() < self._config.existential_density:
            existential_position = rng.randrange(predicate.arity)
        terms: list[Variable] = []
        remaining_preferred = list(prefer or [])
        for position in range(predicate.arity):
            if position == existential_position:
                terms.append(Variable(f"Z{slot}"))
            elif remaining_preferred:
                terms.append(remaining_preferred.pop(0))
            else:
                terms.append(rng.choice(body_variables))
        return Atom(predicate, tuple(terms))

    def _query(
        self, rng: random.Random, schema: list[Predicate], rules: list[TGD]
    ) -> ConjunctiveQuery:
        """A CQ over the rule heads' predicates (so rewriting has work to do)."""
        head_predicates: list[Predicate] = []
        for rule in rules:
            predicate = rule.head[0].predicate
            if predicate not in head_predicates:
                head_predicates.append(predicate)
        candidates = head_predicates if head_predicates else schema
        atom_count = rng.randint(1, self._config.query_atoms)
        pool = [Variable(f"Q{i}") for i in range(2 * self._config.max_arity)]
        body: list[Atom] = []
        used: list[Variable] = []
        for _ in range(atom_count):
            predicate = rng.choice(candidates)
            terms: list = []
            for _ in range(predicate.arity):
                roll = rng.random()
                if roll < 0.15:
                    # A constant of the ABox domain, so selections are
                    # plausible on generated instances.
                    terms.append(
                        Constant(f"c{rng.randrange(self._config.domain_size)}")
                    )
                elif used and roll < 0.55:
                    terms.append(rng.choice(used))
                else:
                    terms.append(rng.choice(pool))
            body.append(Atom(predicate, tuple(terms)))
            for term in terms:
                if isinstance(term, Variable) and term not in used:
                    used.append(term)
        answer_count = rng.randint(0, min(2, len(used)))
        answer_terms = tuple(used[:answer_count])
        return ConjunctiveQuery(body, answer_terms)

    def _validate(self, rules: list[TGD]) -> None:
        """Assert the emitted set is inside the fragment it is labelled with."""
        classifier = FRAGMENT_CLASSIFIERS[self._config.fragment]
        if not classifier(rules):  # pragma: no cover - incremental check prevents it
            raise GenerationError(
                f"generated theory escaped fragment {self._config.fragment!r}"
            )


# ---------------------------------------------------------------------------
# Scaled registry ontologies (LUBM-style 10–100× ABoxes)
# ---------------------------------------------------------------------------


def scaled_registry_instance(
    name: str,
    scale: int = 10,
    seed: int = 0,
    base_facts_per_relation: int = 10,
) -> RelationalInstance:
    """A *scale*-times ABox for a registered workload (e.g. ``U`` at 10–100×).

    The workload's own ABox (hand-crafted for several registry
    ontologies, and deliberately tiny) seeds the instance so every
    registered query keeps its known non-empty answers; on top, a
    :class:`~repro.database.generator.DatabaseGenerator` adds
    ``base_facts_per_relation * scale`` random facts per schema relation
    with a domain that grows with the scale — the university workload at
    ``scale=10..100`` is the LUBM-style axis the scaling benchmark
    sweeps.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    workload = get_workload(name)
    facts_per_relation = base_facts_per_relation * scale
    generated = DatabaseGenerator(
        seed=seed, domain_size=max(20, 4 * facts_per_relation)
    ).populate_for_rules(
        list(workload.theory.tgds), facts_per_relation=facts_per_relation
    )
    instance = RelationalInstance(facts=workload.abox(seed=seed).facts)
    instance.add_all(sorted(generated.facts, key=repr))
    return instance


def registry_cases(
    name: str,
    scale: int = 10,
    seed: int = 0,
) -> list[GeneratedCase]:
    """Registry-ontology triples: one per workload query, on one scaled ABox.

    The returned cases carry the *registered* theory and queries (not
    synthetic ones) over a shared scaled instance, so the differential
    oracles can sweep the real Table 1 ontologies at 10–100× data sizes
    through exactly the same pipeline as the generated triples.
    """
    workload = get_workload(name)
    instance = scaled_registry_instance(name, scale=scale, seed=seed)
    config = GeneratorConfig(
        fragment="linear" if workload.theory.classification.linear else "sticky-join",
        facts_per_relation=10 * scale,
    )
    return [
        GeneratedCase(
            seed=seed,
            config=config,
            theory=workload.theory,
            query=workload.query(query_name),
            instance=instance,
        )
        for query_name in workload.query_names
    ]
