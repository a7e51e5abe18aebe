"""Theory fingerprints: invariance under presentation, sensitivity to semantics."""

import pytest

from repro.api import OBDASystem, resolve_engine_options
from repro.cache.fingerprint import (
    constraint_signature,
    rule_signature,
    theory_fingerprint,
)
from repro.dependencies.constraints import NegativeConstraint
from repro.dependencies.tgd import tgd
from repro.logic.atoms import Atom
from repro.logic.terms import Variable
from repro.serving.tenants import TenantRegistry
from repro.workloads import get_workload

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

SIGMA_1 = tgd(Atom.of("project", X), Atom.of("has_leader", X, Z))
SIGMA_2 = tgd(Atom.of("has_leader", X, Y), Atom.of("leader", Y))
SIGMA_3 = tgd(Atom.of("leader", X), Atom.of("person", X))


class TestRuleSignature:
    def test_invariant_under_variable_renaming(self):
        renamed = tgd(Atom.of("project", Y), Atom.of("has_leader", Y, X))
        assert rule_signature(SIGMA_1) == rule_signature(renamed)

    def test_invariant_under_label(self):
        labelled = tgd(Atom.of("project", X), Atom.of("has_leader", X, Z), label="s1")
        assert rule_signature(SIGMA_1) == rule_signature(labelled)

    def test_distinguishes_different_rules(self):
        assert rule_signature(SIGMA_1) != rule_signature(SIGMA_2)

    def test_distinguishes_variable_sharing_patterns(self):
        joined = tgd(Atom.of("has_leader", X, X), Atom.of("leader", X))
        assert rule_signature(SIGMA_2) != rule_signature(joined)


class TestTheoryFingerprint:
    def test_invariant_under_rule_order(self):
        assert theory_fingerprint([SIGMA_1, SIGMA_2]) == theory_fingerprint(
            [SIGMA_2, SIGMA_1]
        )

    def test_changes_when_tgd_added(self):
        assert theory_fingerprint([SIGMA_1, SIGMA_2]) != theory_fingerprint(
            [SIGMA_1, SIGMA_2, SIGMA_3]
        )

    def test_changes_when_tgd_removed(self):
        assert theory_fingerprint([SIGMA_1, SIGMA_2]) != theory_fingerprint([SIGMA_1])

    def test_changes_with_engine_options(self):
        base = theory_fingerprint([SIGMA_1])
        assert theory_fingerprint([SIGMA_1], use_elimination=True) != base
        assert theory_fingerprint([SIGMA_1], use_nc_pruning=True) != base

    def test_changes_with_engine_version(self):
        assert theory_fingerprint([SIGMA_1], engine_version=1) != theory_fingerprint(
            [SIGMA_1], engine_version=2
        )

    def test_constraints_only_matter_when_pruning(self):
        nc = NegativeConstraint([Atom.of("leader", X), Atom.of("project", X)])
        assert theory_fingerprint([SIGMA_1], [nc]) == theory_fingerprint([SIGMA_1])
        assert theory_fingerprint(
            [SIGMA_1], [nc], use_nc_pruning=True
        ) != theory_fingerprint([SIGMA_1], use_nc_pruning=True)

    def test_constraint_signature_is_renaming_invariant(self):
        first = NegativeConstraint([Atom.of("leader", X), Atom.of("project", X)])
        second = NegativeConstraint([Atom.of("leader", Z), Atom.of("project", Z)])
        assert constraint_signature(first) == constraint_signature(second)


class TestResolvedEngineOptions:
    """One fingerprint per theory, whoever builds the engine."""

    @pytest.mark.parametrize("name", ["V", "S", "U", "A", "P5"])
    def test_registry_keys_a_theory_like_the_library_default(self, name):
        theory = get_workload(name).theory
        system = OBDASystem(theory)
        registry = TenantRegistry()
        try:
            tenant, _ = registry.register("t", theory)
            assert tenant.fingerprint == system.theory_fingerprint
            assert resolve_engine_options(theory).fingerprint == (
                system.theory_fingerprint
            )
        finally:
            registry.close()
            system.close()

    @pytest.mark.parametrize("name, pruning", [("P5", False), ("S", True)])
    def test_pruning_is_on_exactly_when_the_theory_has_constraints(
        self, name, pruning
    ):
        theory = get_workload(name).theory
        assert resolve_engine_options(theory).use_nc_pruning is pruning
        unpruned = OBDASystem(theory, use_nc_pruning=False).theory_fingerprint
        assert (OBDASystem(theory).theory_fingerprint == unpruned) is not pruning
