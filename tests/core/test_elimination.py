"""Tests for query elimination (Section 6, Example 7, Lemma 9)."""

import itertools

import pytest

from repro.core.elimination import QueryEliminator, eliminate
from repro.logic.atoms import Atom
from repro.logic.terms import Variable
from repro.dependencies.normalization import normalize
from repro.dependencies.tgd import tgd
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.workloads.paper_examples import example6_rules, example7_query
from repro.workloads import stock_exchange_example

A, B, C = Variable("A"), Variable("B"), Variable("C")
X, Y = Variable("X"), Variable("Y")


class TestExample7:
    def test_only_the_r_atom_is_eliminated(self):
        eliminator = QueryEliminator(example6_rules())
        query = example7_query()
        result = eliminator.eliminate_atoms(query)
        assert [atom.name for atom in result.eliminated] == ["r"]
        assert {atom.name for atom in result.reduced.body} == {"p", "s"}
        assert result.removed_count == 1

    def test_one_shot_helper(self):
        reduced = eliminate(example7_query(), example6_rules())
        assert {atom.name for atom in reduced.body} == {"p", "s"}


class TestLemma9:
    """Every elimination strategy removes the same number of atoms."""

    def test_all_permutations_of_example7_remove_one_atom(self):
        eliminator = QueryEliminator(example6_rules())
        query = example7_query()
        counts = set()
        for order in itertools.permutations(query.body):
            counts.add(eliminator.eliminate_atoms(query, strategy=order).removed_count)
        assert counts == {1}

    def test_mutual_cover_keeps_exactly_one_atom(self):
        # p(A, B) and q(A, B) cover each other; exactly one survives whatever
        # the strategy.
        rules = [
            tgd(Atom.of("p", X, Y), Atom.of("q", X, Y)),
            tgd(Atom.of("q", X, Y), Atom.of("p", X, Y)),
        ]
        query = ConjunctiveQuery([Atom.of("p", A, B), Atom.of("q", A, B)], ())
        eliminator = QueryEliminator(rules)
        for order in itertools.permutations(query.body):
            result = eliminator.eliminate_atoms(query, strategy=order)
            assert result.removed_count == 1
            assert len(result.reduced.body) == 1

    def test_all_permutations_on_the_running_example(self):
        rules = list(normalize(stock_exchange_example.tgds()).rules)
        eliminator = QueryEliminator(rules)
        query = stock_exchange_example.running_query()
        counts = {
            eliminator.eliminate_atoms(query, strategy=order).removed_count
            for order in itertools.permutations(query.body)
        }
        assert counts == {3}


class TestRunningExample:
    def test_section1_reduction(self):
        """fin_ins, company and fin_idx are dropped; stock_portf and list_comp remain."""
        rules = list(normalize(stock_exchange_example.tgds()).rules)
        reduced = eliminate(stock_exchange_example.running_query(), rules)
        assert {atom.name for atom in reduced.body} == {"stock_portf", "list_comp"}
        expected = stock_exchange_example.reduced_query()
        assert reduced.is_variant_of(expected)


class TestEliminatorValidation:
    def test_strategy_must_be_a_permutation_of_the_body(self):
        eliminator = QueryEliminator(example6_rules())
        query = example7_query()
        with pytest.raises(ValueError):
            eliminator.eliminate_atoms(query, strategy=query.body[:1])

    def test_strategy_repeating_an_atom_is_rejected(self):
        # (r, r, p, s) covers the body as a set but is no permutation of it;
        # accepting it would report r as eliminated twice.
        eliminator = QueryEliminator(example6_rules())
        query = example7_query()
        p_atom, r_atom, s_atom = query.body
        with pytest.raises(ValueError):
            eliminator.eliminate_atoms(query, strategy=(r_atom, r_atom, p_atom, s_atom))

    def test_query_without_redundancy_is_unchanged(self):
        # The arguments of r are swapped w.r.t. what σ1 would produce, and the
        # equality type of body(σ2) requires the constant c at r[3], so no
        # atom covers any other.
        eliminator = QueryEliminator(example6_rules())
        query = ConjunctiveQuery([Atom.of("p", A, B), Atom.of("r", B, A, C)], ())
        result = eliminator.eliminate_atoms(query)
        assert result.removed_count == 0
        assert result.reduced.body == query.body

    def test_answer_variables_survive_elimination(self):
        rules = [tgd(Atom.of("has_stock", X, Y), Atom.of("stock", Y))]
        query = ConjunctiveQuery([Atom.of("has_stock", A, B), Atom.of("stock", B)], (A, B))
        reduced = eliminate(query, rules)
        assert reduced.body == (Atom.of("has_stock", A, B),)
        assert set(reduced.answer_terms) <= reduced.variables
