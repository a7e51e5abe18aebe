"""Tests for the Requiem-style resolution rewriter and its Skolem-term layer."""

from repro.baselines.resolution import (
    FunctionalTerm,
    HornClause,
    Literal,
    ResolutionRewriter,
    requiem_rewrite,
    term_depth,
    unify_literals,
)
from repro.core.rewriter import rewrite
from repro.database.evaluator import evaluate_ucq
from repro.database.instance import RelationalInstance
from repro.logic.atoms import Atom, Predicate
from repro.logic.terms import Constant, Variable
from repro.dependencies.tgd import tgd
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.workloads.paper_examples import (
    example2_query,
    example2_rules,
    example4_completeness_witness,
    example4_query,
    example4_rules,
)

A, B, C = Variable("A"), Variable("B"), Variable("C")
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a = Constant("a")
P2 = Predicate("p", 2)


class TestSkolemTerms:
    def test_term_depth(self):
        nested = FunctionalTerm("f", (FunctionalTerm("g", (X,)),))
        assert term_depth(X) == 0
        assert term_depth(nested) == 2

    def test_unify_variable_with_function(self):
        left = Literal(P2, (X, FunctionalTerm("f", (X,))))
        right = Literal(P2, (a, Y))
        unifier = unify_literals(left, right)
        assert unifier is not None
        assert unifier[X] == a
        assert unifier[Y] == FunctionalTerm("f", (a,))

    def test_occurs_check_blocks_cyclic_bindings(self):
        left = Literal(P2, (X, X))
        right = Literal(P2, (Y, FunctionalTerm("f", (Y,))))
        assert unify_literals(left, right) is None

    def test_function_symbols_must_match(self):
        left = Literal(P2, (FunctionalTerm("f", (X,)), X))
        right = Literal(P2, (FunctionalTerm("g", (Y,)), Y))
        assert unify_literals(left, right) is None

    def test_predicates_must_match(self):
        assert unify_literals(Literal(P2, (X, Y)), Literal(Predicate("q", 2), (X, Y))) is None

    def test_constant_clash(self):
        assert unify_literals(Literal(P2, (a, X)), Literal(P2, (Constant("b"), Y))) is None


class TestSkolemization:
    def test_existential_variable_becomes_a_function_of_the_frontier(self):
        rewriter = ResolutionRewriter([tgd(Atom.of("p", X), Atom.of("q", X, Y))])
        clause = rewriter.rule_clauses[0]
        assert clause.head.predicate.name == "q"
        assert isinstance(clause.head.terms[1], FunctionalTerm)
        assert clause.head.terms[1].arguments == (X,)

    def test_full_rules_have_no_functions(self):
        rewriter = ResolutionRewriter([tgd(Atom.of("p", X), Atom.of("q", X))])
        assert not rewriter.rule_clauses[0].has_functions()

    def test_clause_rename_is_consistent(self):
        clause = HornClause(
            Literal(P2, (X, Y)), (Literal(Predicate("q", 1), (X,)),)
        )
        renamed = clause.rename("7")
        assert renamed.head.terms[0] == renamed.body[0].terms[0]
        assert renamed.head.terms[0] != X


class TestRewriting:
    def test_example2_key_queries_are_produced(self):
        result = requiem_rewrite(example2_query(), example2_rules(), prune_subsumed=False)
        assert result.ucq.contains_variant(ConjunctiveQuery([Atom.of("s", A)], ()))

    def test_example4_functional_terms_replace_factorisation(self):
        result = requiem_rewrite(example4_query(), example4_rules(), prune_subsumed=False)
        assert result.ucq.contains_variant(example4_completeness_witness())

    def test_function_clauses_are_excluded_from_the_output(self):
        result = requiem_rewrite(example4_query(), example4_rules(), prune_subsumed=False)
        for cq in result.ucq:
            for atom in cq.body:
                assert all(not isinstance(t, FunctionalTerm) for t in atom.terms)

    def test_prune_subsumed_never_increases_the_size(self):
        plain = requiem_rewrite(example2_query(), example2_rules(), prune_subsumed=False)
        pruned = requiem_rewrite(example2_query(), example2_rules(), prune_subsumed=True)
        assert len(pruned.ucq) <= len(plain.ucq)

    def test_answers_match_tgd_rewrite_on_a_database(self):
        database = RelationalInstance()
        database.add(Atom.of("p", a))
        nyaya = rewrite(example4_query(), example4_rules())
        requiem = requiem_rewrite(example4_query(), example4_rules())
        answers = evaluate_ucq(nyaya.ucq, database)
        assert answers == evaluate_ucq(requiem.ucq, database) == {()}

    def test_hierarchy_enumeration(self):
        rules = [
            tgd(Atom.of("undergrad", X), Atom.of("student", X)),
            tgd(Atom.of("student", X), Atom.of("person", X)),
        ]
        result = requiem_rewrite(ConjunctiveQuery([Atom.of("person", A)], (A,)), rules)
        assert len(result.ucq) == 3

    def test_non_boolean_answer_variables_are_preserved(self):
        rules = [tgd(Atom.of("employee", X), Atom.of("works_for", X, Y))]
        query = ConjunctiveQuery([Atom.of("works_for", A, B)], (A,))
        result = requiem_rewrite(query, rules, prune_subsumed=False)
        assert all(cq.arity == 1 for cq in result.ucq)
        assert len(result.ucq) == 2

    def test_dead_clause_pruning_keeps_completeness(self):
        # The hierarchy below stock would explode without pruning; with it the
        # rewriting is still complete w.r.t. the chase-entailed answers.
        rules = [
            tgd(Atom.of("investor", X), Atom.of("has_stock", X, Y)),
            tgd(Atom.of("has_stock", X, Y), Atom.of("stock", Y)),
            tgd(Atom.of("common", X), Atom.of("stock", X)),
        ]
        query = ConjunctiveQuery([Atom.of("has_stock", A, B), Atom.of("stock", B)], (A,))
        database = RelationalInstance()
        database.add_tuple("investor", ("ann",))
        database.add_tuple("has_stock", ("bob", "acme"))
        database.add_tuple("common", ("acme",))
        result = requiem_rewrite(query, rules)
        answers = evaluate_ucq(result.ucq, database)
        assert answers == {(Constant("ann"),), (Constant("bob"),)}
