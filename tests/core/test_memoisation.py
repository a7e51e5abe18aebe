"""Engine memoisation: identical rewritings, and work that depends only on the query.

The rename-apart pool and the coverage memo are pure caches: with them on
or off the engine must produce byte-identical rewritings.  These tests pin
that equivalence, that the shape keys keep the coverage memo bounded when
queries differ only in their constants, and that a compile unifies as
often on a fresh engine as on a warm one.
"""

import pytest

from repro.api import resolve_engine_options
from repro.core.applicability import RenameApartCache
from repro.core.rewriter import TGDRewriter
from repro.dependencies.tgd import tgd
from repro.logic import unification
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.logic.unification import atom_sequence_profile
from repro.queries.parser import parse_query
from repro.workloads import get_workload

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
                assert plain.statistics.rename_cache_hits == 0
            if elimination:
                assert without_memo.eliminator.checker.memo is None

    def test_memo_actually_fires_across_a_workload(self, workload_name):
        workload = get_workload(workload_name)
        rewriter = TGDRewriter(workload.theory.tgds)
        total_hits = 0
        for name in workload.query_names:
            statistics = rewriter.rewrite(workload.query(name)).statistics
            total_hits += statistics.rename_cache_hits
        assert total_hits > 0


class TestMemosStayBounded:
    """Queries that differ only in their constants share every memo entry."""

    def test_constant_only_variants_add_no_entries(self):
        # Adolena q5 with its existential variable B bound to 30 different
        # constants: keying constants by value would add a set of coverage
        # entries per constant.
        workload = get_workload("A")
        query = workload.query("q5")
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        coverage_memo = engine.eliminator.checker.memo
        sizes = []
        for index in range(30):
            variant = query.apply({Variable("B"): Constant(f"device_{index}")})
            result = engine.rewrite(variant)
            sizes.append((len(coverage_memo), len(result.ucq)))
        assert sizes[0][0] > 0
        assert sizes == [sizes[0]] * len(sizes)


def test_a_compiles_unifications_depend_only_on_its_query(monkeypatch):
    # Each rewriting step unifies once, in Definition 1, so P5 q5 makes
    # the same MGU calls whatever its engine compiled before.
    calls = []
    flat_mgu = unification.flat_mgu

    def counted(atoms):
        calls.append(1)
        return flat_mgu(atoms)

    monkeypatch.setattr(unification, "flat_mgu", counted)
    workload = get_workload("P5")
    options = resolve_engine_options(workload.theory)

    def engine():
        return TGDRewriter(
            workload.theory,
            use_elimination=options.use_elimination,
            use_nc_pruning=options.use_nc_pruning,
        )

    fresh = engine()
    fresh.rewrite(workload.query("q5"))
    on_a_fresh_engine = len(calls)
    warm = engine()
    for name in ("q1", "q2", "q3", "q4"):
        warm.rewrite(workload.query(name))
    calls.clear()
    warm.rewrite(workload.query("q5"))
    assert (on_a_fresh_engine, len(calls)) == (409, 409)
