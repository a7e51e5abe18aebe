"""Flat-kernel agreement properties over generated workload triples.

PR 10 rewrote the three hot paths of the rewriting kernel — WL
canonical-key refinement, homomorphism backtracking and the MGU — on a
tuple-encoded atom representation (:mod:`repro.logic.flat`), keeping the
object-walking implementations as executable references
(``canonical_fingerprint_reference``, ``homomorphisms_reference``,
``mgu_reference``).  These tests pin the contract the substitution
relies on: on ≥100 :class:`~repro.fuzzing.WorkloadGenerator` triples per
fragment (linear, sticky, sticky-join) the flat and reference
implementations must agree exactly —

* canonical fingerprints are byte-identical, and so are the variable
  colourings they are built from,
* homomorphism enumerations yield the same mappings in the same order
  (hence identical verdicts), and
* MGUs are equal substitutions (including the non-unifiable verdict).

The corpus mixes raw generated queries with the CQs of a sample of their
NY rewritings, so renamed-apart variables, shared-variable joins and
multi-atom bodies are all represented.

The engine also encodes every rewriting and factorisation candidate
straight from its unifier, and keeps that encoding's key as the key of
the query it builds (if it builds one).  So for every candidate of the
25 Table 1 compiles and of the generated cases, the encoding of the
derivation must equal the encoding of the built query, and its key the
built query's key — flat and reference.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.api import resolve_engine_options
from repro.core.closures import RenamingClosures
from repro.core.dead_ends import DeadEndFilter
from repro.core.rewriter import TGDRewriter
from repro.fuzzing import FRAGMENTS, GeneratorConfig, WorkloadGenerator
from repro.logic.canonical import (
    canonical_fingerprint,
    canonical_fingerprint_reference,
    refine_variable_colors,
    refine_variable_colors_reference,
)
from repro.logic.flat import FlatQuery, encode_query
from repro.workloads import get_workload
from repro.logic.homomorphism import homomorphisms, homomorphisms_reference
from repro.logic.unification import mgu, mgu_reference

CASES_PER_FRAGMENT = 100
#: Every REWRITE_STRIDE-th case also contributes its full NY rewriting.
REWRITE_STRIDE = 10
#: Rewriting CQs kept per sampled case (bounds the quadratic hom sweep).
REWRITE_CAP = 25


@lru_cache(maxsize=None)
def corpus(fragment: str):
    """Deterministic CQ corpus for *fragment* (queries + sampled rewritings)."""
    generator = WorkloadGenerator(seed=7, config=GeneratorConfig(fragment=fragment))
    queries = []
    for position, case in enumerate(generator.cases(CASES_PER_FRAGMENT)):
        queries.append(case.query)
        if position % REWRITE_STRIDE == 0:
            result = TGDRewriter(case.theory.tgds).rewrite(case.query)
            queries.extend(list(result.ucq)[:REWRITE_CAP])
    return tuple(queries)


@pytest.mark.parametrize("fragment", FRAGMENTS)
class TestFlatAgreement:
    def test_corpus_spans_the_required_triples(self, fragment):
        assert len(corpus(fragment)) >= CASES_PER_FRAGMENT

    def test_canonical_keys_byte_identical(self, fragment):
        for query in corpus(fragment):
            assert canonical_fingerprint(query) == canonical_fingerprint_reference(
                query
            )
            assert refine_variable_colors(query) == refine_variable_colors_reference(
                query
            )

    def test_homomorphism_enumerations_identical(self, fragment):
        queries = corpus(fragment)
        # Pair each body with its successor (and itself): the self-pair
        # exercises the identity homomorphism, the successor pair the
        # mixed found/not-found verdicts.
        for position, source in enumerate(queries):
            for target in (source, queries[(position + 1) % len(queries)]):
                flat = list(homomorphisms(source.body, target.body))
                reference = list(
                    homomorphisms_reference(source.body, target.body)
                )
                assert flat == reference

    def test_mgus_equal(self, fragment):
        problems = 0
        for query in corpus(fragment):
            atoms = query.body
            for i, left in enumerate(atoms):
                for right in atoms[i + 1 :]:
                    if left.predicate != right.predicate:
                        continue
                    problems += 1
                    assert mgu([left, right]) == mgu_reference([left, right])
        # The generated fragments join atoms over shared predicates, so an
        # empty problem set would mean the sweep silently tested nothing.
        assert problems > 0


#: The Table 1 ontologies whose 25 queries the candidate sweep compiles.
TABLE1 = ("V", "S", "U", "A", "P5")
#: Candidates checked per generated case (bounds the sweep's time).
CANDIDATE_CAP = 200


def collect_candidates(engine: TGDRewriter, query) -> list:
    """Every candidate of *engine*'s run of the per-CQ reference kernel.

    With every renaming closure a one-predicate union
    (:mod:`repro.core.closures`), the corpus is the one the sweep was
    sized on.
    """
    candidates = []
    expand = TGDRewriter.expand

    def collecting(engine, query):
        expansion = expand(engine, query)
        candidates.extend(expansion.candidates)
        return expansion

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RenamingClosures, "table", {})
        patch.setattr(TGDRewriter, "expand", collecting)
        engine.rewrite(query)
    return candidates


def encoding(flat: FlatQuery) -> tuple:
    return tuple(getattr(flat, name) for name in FlatQuery.__slots__)


def assert_derived_encoding_agrees(candidate) -> None:
    derivation = candidate.derivation
    flat = encode_query(*derivation)
    built = derivation.build()
    assert encoding(flat) == encoding(encode_query(built)), built
    key = canonical_fingerprint(flat)
    # A dead end is dropped unkeyed; every other candidate carries its key.
    assert candidate.fingerprint == (None if candidate.dead_end else key)
    assert key == canonical_fingerprint(built)
    assert key == canonical_fingerprint_reference(built)


@lru_cache(maxsize=None)
def table1_candidates() -> tuple:
    """Every candidate of the 25 Table 1 compiles, engines as serving builds them.

    Collected with the dead-end verdict off (an empty reach table): dead
    ends and everything derived from them stay in the corpus, as their
    encodings exercise the kernel like any other candidate's.
    """
    found = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeadEndFilter, "reach", {})
        for name in TABLE1:
            workload = get_workload(name)
            options = resolve_engine_options(workload.theory)
            engine = TGDRewriter(
                workload.theory,
                use_elimination=options.use_elimination,
                use_nc_pruning=options.use_nc_pruning,
            )
            for query_name in workload.query_names:
                found.extend(collect_candidates(engine, workload.query(query_name)))
    return tuple(found)


class TestDerivedEncodingAgreement:
    def test_every_table1_candidate(self):
        candidates = table1_candidates()
        assert len(candidates) > 5000
        # Both kinds of candidate, and both ways a candidate reaches the
        # merge: built, or as its key alone.
        assert any(not c.derivation.added for c in candidates)
        assert any(c.query is None for c in candidates)
        for candidate in candidates:
            assert_derived_encoding_agrees(candidate)

    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_generated_candidates(self, fragment):
        generator = WorkloadGenerator(seed=7, config=GeneratorConfig(fragment=fragment))
        cases = checked = 0
        for case in generator.cases(CASES_PER_FRAGMENT):
            engine = TGDRewriter(case.theory.tgds)
            candidates = collect_candidates(engine, case.query)[:CANDIDATE_CAP]
            for candidate in candidates:
                assert_derived_encoding_agrees(candidate)
            cases += 1
            checked += len(candidates)
        assert cases >= CASES_PER_FRAGMENT and checked >= CASES_PER_FRAGMENT
