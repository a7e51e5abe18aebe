"""The hierarchy kernel: union-CQs over renaming closures.

The kernel (:mod:`repro.core.closures`) stores and expands union-CQs and
unfolds them at the end.  Its reference is the per-CQ kernel, which the
engine becomes when every closure is a one-predicate union (the
``table`` replaced by ``{}``, as ``tests/core/test_dead_ends.py``
replaces the dead-end reach table).  These tests pin the closures, the
expansions the kernel saves on Vicodi, the cases where a union must
split, and compare the two kernels as sets on seeded random hierarchies
and on the fuzzer's cases.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager

import pytest

from repro.core.closures import UNION_MARK, RenamingClosures, is_renaming
from repro.core.rewriter import TGDRewriter
from repro.dependencies.constraints import NegativeConstraint
from repro.dependencies.normalization import normalize
from repro.dependencies.tgd import TGD, tgd
from repro.dependencies.theory import OntologyTheory
from repro.fuzzing import FRAGMENTS, GeneratorConfig, WorkloadGenerator
from repro.logic.atoms import Atom, Predicate
from repro.logic.terms import Constant, Variable
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.parser import parse_query
from repro.queries.ucq import QuerySet
from repro.workloads import get_workload

ENGINES = {
    "NY": {},
    "NY*": {"use_elimination": True},
    "NY*nc": {"use_elimination": True, "use_nc_pruning": True},
}

X, Y = Variable("X"), Variable("Y")


@contextmanager
def reference_kernel():
    """Engines built and run inside are the per-CQ reference kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RenamingClosures, "table", {})
        yield


def reference_rewrite(theory, query, **options):
    with reference_kernel():
        return TGDRewriter(theory, **options).rewrite(query)


def same_members(left, right) -> bool:
    """``True`` iff two UCQs hold the same CQs up to variable renaming."""
    left, right = list(left), list(right)
    store = QuerySet(left)
    return len(store) == len(left) == len(right) and all(
        store.find_variant(member) is not None for member in right
    )


def set_digest(ucq) -> str:
    keys = sorted(repr(member.canonical_key) for member in ucq)
    return hashlib.sha256(repr(keys).encode()).hexdigest()


class TestClosures:
    def test_renaming_rules(self):
        internal = frozenset({Predicate("aux", 1)})
        assert is_renaming(tgd(Atom.of("p", X, Y), Atom.of("r", X, Y)), internal)
        # Another tuple, a repeated variable, an existential, an internal body.
        assert not is_renaming(tgd(Atom.of("p", X, Y), Atom.of("r", Y, X)), internal)
        assert not is_renaming(tgd(Atom.of("p", X, X), Atom.of("r", X, X)), internal)
        assert not is_renaming(tgd(Atom.of("p", X), Atom.of("r", X, Y)), internal)
        assert not is_renaming(tgd(Atom.of("aux", X), Atom.of("r", X)), internal)

    def test_closure_order_is_root_then_levels_in_rule_order(self):
        rules = [
            tgd(Atom.of("b", X), Atom.of("a", X)),
            tgd(Atom.of("d", X), Atom.of("b", X)),
            tgd(Atom.of("c", X), Atom.of("a", X)),
            tgd(Atom.of("d", X), Atom.of("c", X)),
            tgd(Atom.of("a", X), Atom.of("d", X)),  # a cycle back to a
        ]
        table = RenamingClosures(rules).table
        names = {root.name: [p.name for p in closure] for root, closure in table.items()}
        assert names["a"] == ["a", "b", "c", "d"]
        assert names["d"] == ["d", "a", "b", "c"]

    def test_p5_closures_skip_the_internal_rule(self):
        normalization = normalize(get_workload("P5").theory.tgds)
        closures = RenamingClosures(
            normalization.rules, normalization.auxiliary_predicates
        )
        names = {
            root.name: [p.name for p in closure]
            for root, closure in closures.table.items()
        }
        assert names == {
            "edge": ["edge", "rail"],
            "Start": ["Start", "Hub"],
            "Target": ["Target", "Terminal"],
        }

    def test_collapsed_atoms_unfold_in_closure_order(self):
        rules = [
            tgd(Atom.of("b", X), Atom.of("a", X)),
            tgd(Atom.of("s", X, Y), Atom.of("r", X, Y)),
        ]
        closures = RenamingClosures(rules)
        query = closures.collapse_query(parse_query("q(A) :- a(A), r(A, B)"))
        assert [atom.predicate.name for atom in query.body] == [
            UNION_MARK + "a",
            UNION_MARK + "r",
        ]
        members = [repr(member) for member in closures.unfold(query)]
        assert members == [
            "q(A) <- a(A), r(A, B)",
            "q(A) <- a(A), s(A, B)",
            "q(A) <- b(A), r(A, B)",
            "q(A) <- b(A), s(A, B)",
        ]
        assert len(list(closures.unfold(query, skip_root=True))) == 3

    def test_the_table_is_built_on_first_use(self, monkeypatch):
        builds = []
        table = RenamingClosures.table

        def counting(self):
            builds.append(1)
            return table.func(self)

        monkeypatch.setattr(RenamingClosures, "table", property(counting))
        workload = get_workload("V")
        engine = TGDRewriter(workload.theory)
        assert builds == []
        engine.rewrite(workload.query("q1"))
        assert builds


class TestVicodi:
    """Vicodi is all taxonomy: every rule is a renaming rule."""

    def test_q3_expands_one_union_cq(self):
        workload = get_workload("V")
        result = TGDRewriter(workload.theory).rewrite(workload.query("q3"))
        assert result.statistics.processed_queries == 1
        assert len(result.ucq) == 84

    def test_the_five_queries_expand_thirteen_union_cqs(self):
        workload = get_workload("V")
        for options in ENGINES.values():
            engine = TGDRewriter(workload.theory, **options)
            expansions = [
                engine.rewrite(workload.query(name)).statistics.processed_queries
                for name in workload.query_names
            ]
            assert expansions == [1, 1, 1, 5, 5]

    @pytest.mark.parametrize(
        "text, sizes, digests",
        [
            (
                "q(A) :- Flexible-Time-Unit(A), Event(A)",
                (96, 96, 81),
                (
                    "cc72c0b4c318fbbab6952ad7ac733e4f751dd70f2c0d44943625474c5079f4c9",
                    "cc72c0b4c318fbbab6952ad7ac733e4f751dd70f2c0d44943625474c5079f4c9",
                    "0167d1e79bb3b03d4390e054df3bb0d04bb2bb61ade5e31bd9f11f01b0734e6a",
                ),
            ),
            (
                "q(A) :- Individual(A), Individual(B), hasRole(A, B)",
                (142, 142, 142),
                (
                    "3deca43a5c84d80b877281061835165a45d43600f449bcfa48a1f958cac05574",
                )
                * 3,
            ),
        ],
    )
    def test_pinned_member_sets(self, text, sizes, digests):
        # Sizes and set digests recorded with the per-CQ kernel.  Under NC
        # pruning ``Location(A), Event(A)`` violates vicodi#55, and the 14
        # members below Location are never reached: a kernel that drops
        # only the violating member gives 95.
        workload = get_workload("V")
        query = parse_query(text)
        for options, size, digest in zip(ENGINES.values(), sizes, digests):
            result = TGDRewriter(workload.theory, **options).rewrite(query)
            assert (len(result.ucq), set_digest(result.ucq)) == (size, digest)
            assert same_members(
                result.ucq, reference_rewrite(workload.theory, query, **options).ucq
            )

    def test_nc_pruning_splits_the_union(self):
        workload = get_workload("V")
        engine = TGDRewriter(workload.theory, use_elimination=True, use_nc_pruning=True)
        result = engine.rewrite(parse_query("q(A) :- Flexible-Time-Unit(A), Event(A)"))
        assert not any(
            {"Location", "Event"} <= {atom.predicate.name for atom in member.body}
            for member in result.ucq
        )
        assert result.statistics.pruned_by_constraints >= 1


class TestUniformity:
    def test_atoms_a_unifier_merges_stay_two(self):
        # p and r share the closure member b: the member that picks b for
        # both atoms has one atom fewer, so the kernel falls back.
        rules = [
            tgd(Atom.of("b", X), Atom.of("p", X)),
            tgd(Atom.of("b", X), Atom.of("r", X)),
        ]
        query = parse_query("q(A) :- p(A), r(A)")
        result = TGDRewriter(rules).rewrite(query)
        assert same_members(result.ucq, reference_rewrite(rules, query).ucq)
        assert len(result.ucq) == 4

    def test_a_label_0_root_member_is_left_out(self):
        # Example 4's shape over a hierarchy: the factorised query is not
        # in the final rewriting, its subclass members are.
        rules = [
            tgd(Atom.of("s", X), Atom.of("t", X, Y)),
            tgd(Atom.of("u", X, Y), Atom.of("t", X, Y)),
        ]
        query = parse_query("q() :- t(A, B), t(C, B)")
        result = TGDRewriter(rules).rewrite(query)
        expected = reference_rewrite(rules, query).ucq
        assert same_members(result.ucq, expected)


# -- differential property test ------------------------------------------------

UNARY = [Predicate(f"c{i}", 1) for i in range(5)]
BINARY = [Predicate(f"r{i}", 2) for i in range(3)]


def random_theory(rng: random.Random) -> OntologyTheory:
    """A random hierarchy: chains, diamonds, cycles, plus a few other rules."""
    rules: list[TGD] = []
    for predicates, arity in ((UNARY, 1), (BINARY, 2)):
        terms = (X, Y)[:arity]
        for _ in range(rng.randint(1, 4)):
            body, head = rng.sample(predicates, 2)
            rules.append(tgd(Atom(body, terms), Atom(head, terms)))
    extra = rng.randint(0, 2)
    for _ in range(extra):
        kind = rng.choice(["down", "up", "inverse"])
        c, r = rng.choice(UNARY), rng.choice(BINARY)
        if kind == "down":  # r(X, Y) → c(X): linear, no existential
            rules.append(tgd(Atom(r, (X, Y)), Atom(c, (X,))))
        elif kind == "up":  # c(X) → ∃Y r(X, Y): linear, an existential
            rules.append(tgd(Atom(c, (X,)), Atom(r, (X, Y))))
        else:  # r(X, Y) → r'(Y, X): linear, not a renaming rule
            other = rng.choice(BINARY)
            rules.append(tgd(Atom(r, (X, Y)), Atom(other, (Y, X))))
    # NCs over hierarchy members: a subclass and another concept.
    subclasses = [rule.body[0].predicate for rule in rules if rule.body[0].arity == 1]
    constraints = []
    for _ in range(rng.randint(0, 2)):
        first = rng.choice(subclasses or UNARY)
        second = rng.choice([c for c in UNARY if c != first])
        constraints.append(NegativeConstraint([Atom(first, (X,)), Atom(second, (X,))]))
    return OntologyTheory(tgds=rules, negative_constraints=constraints)


def random_query(rng: random.Random) -> ConjunctiveQuery:
    """One to three atoms, repeated variables and a constant now and then."""
    terms = [Variable("A"), Variable("B"), Variable("C"), Constant("k")]
    weights = [4, 3, 2, 1]
    body = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.6:
            # Mostly over A, so that two concepts often meet an NC.
            body.append(Atom(rng.choice(UNARY), tuple(rng.choices(terms, [8, 2, 1, 1]))))
        else:
            body.append(
                Atom(rng.choice(BINARY), tuple(rng.choices(terms, weights, k=2)))
            )
    variables = sorted(
        {term for atom in body for term in atom.terms if isinstance(term, Variable)},
        key=str,
    )
    answers = variables[: rng.randint(0, len(variables))]
    return ConjunctiveQuery(body, answers)


#: Seeded random hierarchies the property test compares, per engine.
HIERARCHIES = 500


def test_random_hierarchies_give_the_reference_member_sets(monkeypatch):
    rng = random.Random(28)
    unfolded = 0
    unfold = TGDRewriter._unfolded

    def counting(derivation, unions):
        nonlocal unfolded
        unfolded += 1
        return unfold(derivation, unions)

    monkeypatch.setattr(TGDRewriter, "_unfolded", staticmethod(counting))
    collapsed = pruned = 0
    for case in range(HIERARCHIES):
        theory = random_theory(rng)
        query = random_query(rng)
        for name, options in ENGINES.items():
            result = TGDRewriter(theory, **options).rewrite(query)
            expected = reference_rewrite(theory, query, **options)
            assert same_members(result.ucq, expected.ucq), (case, name, theory, query)
            collapsed += result.statistics.processed_queries < (
                expected.statistics.processed_queries
            )
            pruned += expected.statistics.pruned_by_constraints > 0
    # Every path is taken: runs that expand fewer queries than the per-CQ
    # kernel, union-CQs that fall back to their members, and NC pruning.
    assert (collapsed, unfolded, pruned) == (887, 342, 8)


@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_the_fuzzers_cases_give_the_reference_member_sets(fragment):
    generator = WorkloadGenerator(seed=42, config=GeneratorConfig(fragment=fragment))
    for index in range(50):
        case = generator.case(index)
        engines = {"NY": {}}
        if fragment == "linear":
            engines["NY*"] = {"use_elimination": True}
        for name, options in engines.items():
            result = TGDRewriter(case.theory, **options).rewrite(case.query)
            expected = reference_rewrite(case.theory, case.query, **options)
            assert same_members(result.ucq, expected.ucq), (index, name)
