"""End-to-end OBDA tests: the public :class:`repro.OBDASystem` facade."""

import pytest

from repro.api import ConflictingKeysError, InconsistentTheoryError, OBDASystem
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.dependencies.constraints import KeyDependency, NegativeConstraint
from repro.dependencies.tgd import tgd
from repro.dependencies.theory import OntologyTheory
from repro.logic.atoms import Predicate
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.workloads import get_workload, stock_exchange_example

A, B, C = Variable("A"), Variable("B"), Variable("C")
X, Y = Variable("X"), Variable("Y")


class TestStockExchangeOBDA:
    """The Section 1 scenario run through the high-level facade."""

    def setup_method(self):
        self.system = OBDASystem(
            stock_exchange_example.theory(),
            database=stock_exchange_example.sample_database(),
            schema=stock_exchange_example.SCHEMA,
        )

    def test_answers_the_running_query(self):
        answers = self.system.answer(stock_exchange_example.running_query())
        assert (Constant("ibm_s1"), Constant("ibm"), Constant("nasdaq")) in answers
        assert len(answers) == 2

    def test_answers_match_the_chase_oracle(self):
        query = stock_exchange_example.running_query()
        assert self.system.answer(query).tuples == self.system.answer_via_chase(query)

    def test_compilation_is_cached(self):
        query = stock_exchange_example.running_query()
        first = self.system.compile(query)
        second = self.system.compile(query)
        assert first is second

    def test_rewriting_cache_info_counts_hits_and_misses(self):
        query = stock_exchange_example.running_query()
        self.system.compile(query)
        self.system.compile(query)
        info = self.system.rewriting_cache_info()
        assert info.misses == 1
        assert info.hits == 1
        assert info.size == 1

    def test_rewriting_statistics_expose_index_counters(self):
        query = stock_exchange_example.running_query()
        statistics = self.system.rewriting_statistics(query)
        assert statistics.interned_queries > 0
        assert statistics.variant_lookups >= statistics.variant_cache_hits
        assert statistics.rules_skipped_by_index > 0
        assert statistics.canonical_collisions == 0

    def test_sql_export_is_a_union_of_selects(self):
        sql = self.system.to_sql(stock_exchange_example.running_query())
        assert "SELECT DISTINCT" in sql
        assert "stock_portf" in sql
        assert "UNION" in sql

    def test_consistency_of_the_sample_database(self):
        assert self.system.is_consistent()

    def test_inferred_constraint_violation_is_detected(self):
        # legal_person is derived for 'ibm' through σ9; asserting fin_ins(ibm)
        # then violates δ1 even though no explicit legal_person fact exists.
        self.system.add_fact("fin_ins", ("ibm",))
        assert not self.system.is_consistent()
        with pytest.raises(InconsistentTheoryError):
            self.system.check_consistency()


class TestWorkloadOBDA:
    @pytest.mark.parametrize("name", ("S", "U", "A", "P5"))
    def test_answers_match_the_chase_on_sample_aboxes(self, name):
        workload = get_workload(name)
        system = OBDASystem(workload.theory, database=workload.abox())
        for query_name in ("q1", "q2"):
            query = workload.query(query_name)
            rewriting_answers = system.answer(query).tuples
            chase_answers = system.answer_via_chase(query, max_depth=6)
            assert rewriting_answers == chase_answers

    def test_stockexchange_answers_are_plausible(self):
        workload = get_workload("S")
        system = OBDASystem(workload.theory, database=workload.abox())
        answers = system.answer(workload.query("q2"))
        assert (Constant("bob"), Constant("acme_common")) in answers


class TestConsistencyChecking:
    def test_key_violation_is_reported(self):
        theory = OntologyTheory(
            tgds=[tgd(Atom.of("employee", X), Atom.of("works_for", X, Y))],
            key_dependencies=[KeyDependency(Predicate("works_for", 2), (1,))],
        )
        system = OBDASystem(theory)
        system.add_fact("works_for", ("ann", "acme"))
        system.add_fact("works_for", ("ann", "initech"))
        with pytest.raises(InconsistentTheoryError):
            system.check_consistency()

    def test_conflicting_keys_are_refused(self):
        # A role specialising a functional role: the chase derives
        # employedBy(ann, globex) from worksFor(ann, globex), which breaks
        # the key against employedBy(ann, acme), and no check on the
        # stored facts would see it.
        from repro.ontology.parser import parse_ontology
        from repro.ontology.translation import to_theory

        theory = to_theory(parse_ontology("worksFor [= employedBy\nfunct employedBy"))
        assert not theory.keys_are_non_conflicting()
        with pytest.raises(ConflictingKeysError) as refused:
            OBDASystem(theory)
        assert isinstance(refused.value, ValueError)
        assert refused.value.key == theory.key_dependencies[0]
        assert refused.value.rule == theory.tgds[0]
        assert "key(employedBy)" in str(refused.value)

    def test_direct_negative_constraint_violation(self):
        theory = OntologyTheory(
            tgds=[],
            negative_constraints=[
                NegativeConstraint((Atom.of("student", X), Atom.of("professor", X)),)
            ],
        )
        system = OBDASystem(theory)
        system.add_facts([("student", ("kim",)), ("professor", ("kim",))])
        assert not system.is_consistent()

    def test_consistent_database_passes(self):
        theory = OntologyTheory(
            tgds=[tgd(Atom.of("student", X), Atom.of("person", X))],
            negative_constraints=[
                NegativeConstraint((Atom.of("student", X), Atom.of("professor", X)),)
            ],
        )
        system = OBDASystem(theory)
        system.add_facts([("student", ("kim",)), ("professor", ("lee",))])
        system.check_consistency()
        assert system.is_consistent()


class TestAnswerSet:
    def test_answer_set_protocols(self):
        theory = OntologyTheory(tgds=[tgd(Atom.of("student", X), Atom.of("person", X))])
        system = OBDASystem(theory)
        system.add_fact("student", ("kim",))
        answers = system.answer(ConjunctiveQuery([Atom.of("person", A)], (A,)))
        assert len(answers) == 1
        assert (Constant("kim"),) in answers
        assert list(answers) == [(Constant("kim"),)]
        assert answers.rewriting.size == 2
