"""The seeded workload generator: reproducibility, validity, scaling."""

import pytest

from repro.dependencies.classifiers import classify
from repro.fuzzing.generator import (
    FRAGMENT_CLASSIFIERS,
    FRAGMENTS,
    GeneratedCase,
    GeneratorConfig,
    WorkloadGenerator,
    registry_cases,
    scaled_registry_instance,
)
from repro.logic.terms import Variable


def _theory_repr(case: GeneratedCase) -> str:
    return "\n".join(repr(rule) for rule in case.theory.tgds)


class TestReproducibility:
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_same_seed_same_triple(self, fragment):
        config = GeneratorConfig(fragment=fragment)
        first = WorkloadGenerator(seed=11, config=config).case(3)
        second = WorkloadGenerator(seed=11, config=config).case(3)
        assert _theory_repr(first) == _theory_repr(second)
        assert repr(first.query) == repr(second.query)
        assert first.instance.facts == second.instance.facts

    def test_different_seeds_differ(self):
        first = WorkloadGenerator(seed=1).case(0)
        second = WorkloadGenerator(seed=2).case(0)
        assert (
            _theory_repr(first) != _theory_repr(second)
            or repr(first.query) != repr(second.query)
            or first.instance.facts != second.instance.facts
        )

    def test_case_is_pure_function_of_index(self):
        generator = WorkloadGenerator(seed=5)
        stream = [generator.case(i) for i in range(4)]
        # Regenerating a single index (out of order) gives the same case.
        assert _theory_repr(generator.case(2)) == _theory_repr(stream[2])

    def test_fragments_do_not_share_streams(self):
        linear = WorkloadGenerator(seed=9, config=GeneratorConfig()).case(0)
        sticky = WorkloadGenerator(
            seed=9, config=GeneratorConfig(fragment="sticky")
        ).case(0)
        assert _theory_repr(linear) != _theory_repr(sticky)

    def test_cases_returns_count(self):
        assert len(WorkloadGenerator(seed=0).cases(5)) == 5


class TestFragmentValidity:
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_emitted_theory_passes_its_classifier(self, fragment, seed):
        config = GeneratorConfig(fragment=fragment)
        classifier = FRAGMENT_CLASSIFIERS[fragment]
        for case in WorkloadGenerator(seed=seed, config=config).cases(5):
            assert classifier(list(case.theory.tgds)), case.describe()

    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_emitted_theory_is_fo_rewritable_per_classification(self, fragment):
        case = WorkloadGenerator(
            seed=3, config=GeneratorConfig(fragment=fragment)
        ).case(0)
        assert classify(list(case.theory.tgds)).fo_rewritable

    def test_normal_form_single_head_single_existential(self):
        qualified = 0
        for fragment in FRAGMENTS:
            config = GeneratorConfig(fragment=fragment, existential_density=1.0)
            for case in WorkloadGenerator(seed=1, config=config).cases(3):
                for rule in case.theory.tgds:
                    body_variables = set()
                    for atom in rule.body:
                        body_variables.update(atom.variables())
                    existentials = [
                        term
                        for atom in rule.head
                        for term in atom.terms
                        if isinstance(term, Variable)
                        and term not in body_variables
                    ]
                    if len(rule.head) == 1:
                        assert len(existentials) <= 1
                        continue
                    # The linear fragment's qualified existential: a second
                    # head atom shares the one invented value, once per atom.
                    assert fragment == "linear" and len(rule.head) == 2
                    assert len(existentials) == 2 and len(set(existentials)) == 1
                    qualified += 1
        assert qualified

    def test_stratified_rules_descend_the_predicate_order(self):
        config = GeneratorConfig(fragment="sticky")
        for case in WorkloadGenerator(seed=13, config=config).cases(3):
            for rule in case.theory.tgds:
                head_index = int(rule.head[0].predicate.name[1:])
                for atom in rule.body:
                    assert int(atom.predicate.name[1:]) < head_index


class TestConfigValidation:
    def test_unknown_fragment_rejected(self):
        with pytest.raises(ValueError, match="fragment"):
            GeneratorConfig(fragment="weakly-acyclic")

    @pytest.mark.parametrize(
        "field", ["predicates", "max_arity", "rules", "fan_out", "query_atoms",
                  "facts_per_relation", "domain_size"]
    )
    def test_nonpositive_axes_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            GeneratorConfig(**{field: 0})

    def test_density_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="existential_density"):
            GeneratorConfig(existential_density=1.5)

    def test_nonlinear_needs_two_predicates(self):
        with pytest.raises(ValueError, match="stratified"):
            GeneratorConfig(fragment="sticky", predicates=1)
        GeneratorConfig(fragment="linear", predicates=1)  # fine


class TestScaledRegistry:
    def test_scaled_instance_grows_with_scale(self):
        small = scaled_registry_instance("U", scale=1, seed=0)
        large = scaled_registry_instance("U", scale=10, seed=0)
        assert len(large) > 2 * len(small)

    def test_scaled_instance_keeps_the_sample_abox(self):
        from repro.workloads import get_workload

        sample = get_workload("U").abox(seed=0)
        scaled = scaled_registry_instance("U", scale=5, seed=0)
        assert sample.facts <= scaled.facts

    def test_scaled_instance_is_deterministic(self):
        first = scaled_registry_instance("U", scale=3, seed=4)
        second = scaled_registry_instance("U", scale=3, seed=4)
        assert first.facts == second.facts

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            scaled_registry_instance("U", scale=0)

    def test_registry_cases_one_per_query(self):
        from repro.workloads import get_workload

        cases = registry_cases("U", scale=2, seed=0)
        workload = get_workload("U")
        assert len(cases) == len(workload.query_names)
        shared = cases[0].instance
        for case in cases:
            assert case.instance is shared
            assert case.theory is workload.theory
