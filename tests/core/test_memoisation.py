"""Engine memoisation: identical rewritings, fewer unifications.

The rename-apart pool, the applicability memo and the coverage memo are
pure caches: with them on or off the engine must produce byte-identical
rewritings.  These tests pin that equivalence, the soundness of the
profile-keyed memo itself, and that the shape keys keep the memos bounded
when queries differ only in their constants.
"""

import pytest

from repro.core.applicability import (
    ApplicabilityMemo,
    RenameApartCache,
    applicable_atom_sets,
    is_applicable,
)
from repro.core.rewriter import TGDRewriter
from repro.dependencies.tgd import tgd
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable, VariableFactory
from repro.logic.unification import UnificationMemo, atom_sequence_profile
from repro.queries.parser import parse_query
from repro.workloads import get_workload, stock_exchange_example

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestAtomSequenceProfile:
    def test_invariant_under_renaming(self):
        first = [Atom.of("p", X, Y), Atom.of("q", Y, Z)]
        second = [Atom.of("p", Z, X), Atom.of("q", X, Y)]
        assert atom_sequence_profile(first) == atom_sequence_profile(second)

    def test_distinguishes_equality_patterns(self):
        joined = [Atom.of("p", X, X)]
        spread = [Atom.of("p", X, Y)]
        assert atom_sequence_profile(joined) != atom_sequence_profile(spread)

    def test_marked_variables_split_profiles(self):
        atoms = [Atom.of("p", X, Y)]
        assert atom_sequence_profile(atoms) != atom_sequence_profile(
            atoms, marked={Y}
        )

    def test_constants_kept_by_identity(self):
        acme = [Atom.of("p", X, Constant("acme"))]
        ibm = [Atom.of("p", X, Constant("ibm"))]
        assert atom_sequence_profile(acme) != atom_sequence_profile(ibm)

    def test_constants_outside_the_kept_set_are_kept_by_identity_only(self):
        acme = [Atom.of("p", X, Constant("acme")), Atom.of("q", Constant("acme"))]
        ibm = [Atom.of("p", X, Constant("ibm")), Atom.of("q", Constant("ibm"))]
        split = [Atom.of("p", X, Constant("acme")), Atom.of("q", Constant("ibm"))]
        kept = frozenset({Constant("nasdaq")})
        profile = atom_sequence_profile(acme, kept_constants=kept)
        assert atom_sequence_profile(ibm, kept_constants=kept) == profile
        # Which constants are equal to each other still matters.
        assert atom_sequence_profile(split, kept_constants=kept) != profile

    def test_kept_constants_keep_their_value(self):
        acme = [Atom.of("p", X, Constant("acme"))]
        ibm = [Atom.of("p", X, Constant("ibm"))]
        kept = frozenset({Constant("acme")})
        assert atom_sequence_profile(acme, kept_constants=kept) != atom_sequence_profile(
            ibm, kept_constants=kept
        )


class TestUnificationMemo:
    def test_lookup_computes_once(self):
        memo = UnificationMemo()
        calls = []
        for _ in range(3):
            outcome = memo.lookup("key", lambda: calls.append(1) or "value")
        assert outcome == "value"
        assert len(calls) == 1
        assert (memo.hits, memo.misses) == (2, 1)

    def test_false_outcomes_are_cached_too(self):
        memo = UnificationMemo()
        assert memo.lookup("key", lambda: False) is False
        assert memo.lookup("key", lambda: True) is False  # cached, not recomputed
        assert memo.hits == 1


class TestRenameApartCache:
    RULE = tgd(Atom.of("person", X), Atom.of("has_parent", X, Z))

    def test_returned_copy_avoids_the_query_variables(self):
        cache = RenameApartCache()
        query = parse_query("q(A) :- has_parent(A, B)")
        copy = cache.rename(0, self.RULE, query.variables)
        assert (copy.body_variables | copy.head_variables).isdisjoint(query.variables)

    def test_pool_is_reused_for_disjoint_queries(self):
        cache = RenameApartCache()
        first = cache.rename(0, self.RULE, parse_query("q(A) :- p(A)").variables)
        second = cache.rename(0, self.RULE, parse_query("q(B) :- p(B)").variables)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_clashing_copy_is_never_served(self):
        cache = RenameApartCache()
        first = cache.rename(0, self.RULE, frozenset({X}))
        clash = frozenset(first.body_variables)
        second = cache.rename(0, self.RULE, clash)
        assert (second.body_variables | second.head_variables).isdisjoint(clash)
        assert second is not first


class TestApplicabilityMemoSoundness:
    def test_memoised_answers_match_direct_answers(self):
        # Drive both the memoised and the direct check over every candidate
        # subset the running example's rewriting would enumerate.
        theory = stock_exchange_example.theory()
        rules = TGDRewriter(theory.tgds).rules
        memo = ApplicabilityMemo()
        fresh = VariableFactory(prefix="W")
        queries = [
            stock_exchange_example.running_query(),
            parse_query("q() :- stock_portf(B, A, D), has_stock(A, B), fin_ins(A)"),
        ]
        checked = 0
        for query in queries:
            for key, rule in enumerate(rules):
                renamed = rule.rename_apart(query.variables, fresh)
                direct = {
                    subset for subset in applicable_atom_sets(renamed, query)
                }
                memoised = {
                    subset
                    for subset in applicable_atom_sets(
                        renamed, query, memo=memo, rule_key=key
                    )
                }
                assert direct == memoised
                checked += 1
        assert checked == 2 * len(rules)

    def test_rule_constants_are_told_apart(self):
        # The head r(X, c) unifies with r(A, c) but not with r(A, d): the
        # memo keeps c, a rule constant, by value.  Other constants are
        # interchangeable, so d and e share one entry.
        rule = tgd(Atom.of("p", X), Atom.of("r", X, Constant("c")))
        memo = ApplicabilityMemo(rule.constants)
        outcomes = []
        for value in ("d", "c", "e"):
            query = parse_query(f"q(A) :- r(A, {value}), s(A)")
            direct = list(applicable_atom_sets(rule, query))
            assert list(applicable_atom_sets(rule, query, memo=memo, rule_key=0)) == direct
            outcomes.append(bool(direct))
        assert outcomes == [False, True, False]
        assert (memo.hits, memo.misses, len(memo)) == (1, 2, 2)


@pytest.mark.parametrize("workload_name", ["V", "S", "U", "A", "P5"])
class TestMemoisationPreservesSizes:
    def test_identical_rewriting_sizes_with_and_without_memo(self, workload_name):
        # Byte-identical, not only equal in size: members and auxiliaries,
        # under TGD-rewrite and TGD-rewrite* (where the coverage memo runs).
        workload = get_workload(workload_name)
        for elimination in (False, True):
            with_memo = TGDRewriter(
                workload.theory.tgds, use_elimination=elimination, use_memoisation=True
            )
            without_memo = TGDRewriter(
                workload.theory.tgds, use_elimination=elimination, use_memoisation=False
            )
            for name in workload.query_names:
                query = workload.query(name)
                memoised = with_memo.rewrite(query)
                plain = without_memo.rewrite(query)
                label = (name, elimination)
                assert len(memoised.ucq) == len(plain.ucq), label
                assert repr(memoised.ucq.queries) == repr(plain.ucq.queries), label
                assert repr(memoised.auxiliary_queries) == repr(
                    plain.auxiliary_queries
                ), label
                assert memoised.statistics.unification_memo_hits >= 0
                assert plain.statistics.unification_memo_hits == 0
                assert plain.statistics.rename_cache_hits == 0
            if elimination:
                assert without_memo.eliminator.checker.memo is None

    def test_memo_actually_fires_across_a_workload(self, workload_name):
        workload = get_workload(workload_name)
        rewriter = TGDRewriter(workload.theory.tgds)
        total_hits = 0
        for name in workload.query_names:
            statistics = rewriter.rewrite(workload.query(name)).statistics
            total_hits += statistics.unification_memo_hits
            total_hits += statistics.rename_cache_hits
        assert total_hits > 0


class TestMemosStayBounded:
    """Queries that differ only in their constants share every memo entry."""

    def test_constant_only_variants_add_no_entries(self):
        # Adolena q5 with its existential variable B bound to 30 different
        # constants: keying constants by value would add a full set of
        # applicability entries per constant (27 -> 810).
        workload = get_workload("A")
        query = workload.query("q5")
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        coverage_memo = engine.eliminator.checker.memo
        sizes = []
        for index in range(30):
            variant = query.apply({Variable("B"): Constant(f"device_{index}")})
            result = engine.rewrite(variant)
            sizes.append(
                (len(engine.applicability_memo), len(coverage_memo), len(result.ucq))
            )
        assert sizes[0][0] > 0 and sizes[0][1] > 0
        assert sizes == [sizes[0]] * len(sizes)
