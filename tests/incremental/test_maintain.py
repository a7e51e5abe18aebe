"""Unit tests for delta maintenance of UCQ answer sets.

Covers the building blocks (overlay view, net-change collapse, pinning
over plain and union atoms, rederivation), the delta rules' seeded
searches and plan lifetime (made on first use, reused, dropped by full
refreshes and by drift), and the :class:`MaintainedAnswerSet` refresh
modes: initial full computation through the plan's ``execute``,
incremental insert/delete maintenance of one answer set over the factored
joins, routed to the joins a changed predicate occurs in, and every
fallback (truncated log, oversize delta, instance swap, noop).
"""

import pytest

from repro.database.evaluator import evaluate_ucq
from repro.database.instance import RelationalInstance, net_changes
from repro.incremental import (
    MaintainedAnswerSet,
    OverlayInstance,
    derives,
    pinned_answers,
    unify_fact,
)
from repro.logic.atoms import Atom, Predicate
from repro.logic.terms import Constant, Variable
from repro.queries.ucq import UnionAtom

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def cq(body, answer_terms):
    from repro.queries.conjunctive_query import ConjunctiveQuery

    return ConjunctiveQuery(body, answer_terms)


#: q(X) :- person(X)  ∪  q(X) :- employee(X)  — overlapping disjuncts, so
#: a deletion must not drop an answer the other disjunct still derives.
PERSON = cq([Atom.of("person", X)], (X,))
EMPLOYEE = cq([Atom.of("employee", X)], (X,))
#: join disjunct: q(X) :- works(X, Y), dept(Y)
WORKS_IN_DEPT = cq([Atom.of("works", X, Y), Atom.of("dept", Y)], (X,))


class TestOverlayInstance:
    def test_unbound_probe_is_the_union(self):
        base = RelationalInstance()
        base.add(Atom.of("p", a))
        view = OverlayInstance(base, [Atom.of("p", b), Atom.of("q", c)])
        assert set(view.probe(Predicate("p", 1), ())) == {
            Atom.of("p", a),
            Atom.of("p", b),
        }
        assert set(view.probe(Predicate("q", 1), ())) == {Atom.of("q", c)}

    def test_probe_filters_extras_by_zero_based_position(self):
        base = RelationalInstance()
        base.add(Atom.of("r", a, b))
        view = OverlayInstance(base, [Atom.of("r", a, c), Atom.of("r", b, c)])
        r = Predicate("r", 2)
        assert set(view.probe(r, [(0, a)])) == {Atom.of("r", a, b), Atom.of("r", a, c)}
        assert set(view.probe(r, [(1, c)])) == {Atom.of("r", a, c), Atom.of("r", b, c)}
        assert set(view.probe(r, [(0, c)])) == set()


class TestNetChanges:
    def test_insert_then_delete_cancels(self):
        fact = Atom.of("p", a)
        assert net_changes([(True, fact), (False, fact)]) == (set(), set())

    def test_delete_then_reinsert_cancels(self):
        fact = Atom.of("p", a)
        assert net_changes([(False, fact), (True, fact)]) == (set(), set())

    def test_net_sets_are_disjoint(self):
        added, removed = net_changes(
            [(True, Atom.of("p", a)), (False, Atom.of("p", b))]
        )
        assert added == {Atom.of("p", a)}
        assert removed == {Atom.of("p", b)}


class TestUnifyFact:
    def test_binds_variables(self):
        assert unify_fact(Atom.of("r", X, Y), Atom.of("r", a, b)) == {X: a, Y: b}

    def test_repeated_variable_must_agree(self):
        assert unify_fact(Atom.of("r", X, X), Atom.of("r", a, a)) == {X: a}
        assert unify_fact(Atom.of("r", X, X), Atom.of("r", a, b)) is None

    def test_constant_mismatch(self):
        assert unify_fact(Atom.of("r", a), Atom.of("r", b)) is None
        assert unify_fact(Atom.of("r", a), Atom.of("s", a)) is None


class TestPinnedAnswers:
    def test_residual_join_over_the_view(self):
        instance = RelationalInstance()
        instance.add(Atom.of("works", a, b))
        instance.add(Atom.of("works", c, b))
        instance.add(Atom.of("dept", b))
        body, answer_terms = WORKS_IN_DEPT.body, WORKS_IN_DEPT.answer_terms
        # Pinning the dept fact recovers every worker joined through it.
        assert pinned_answers(body, answer_terms, Atom.of("dept", b), instance) == {
            (a,),
            (c,),
        }
        # Pinning one works fact yields only that worker.
        assert pinned_answers(
            body, answer_terms, Atom.of("works", a, b), instance
        ) == {(a,)}

    def test_irrelevant_fact_pins_nothing(self):
        instance = RelationalInstance()
        instance.add(Atom.of("works", a, b))
        body, answer_terms = WORKS_IN_DEPT.body, WORKS_IN_DEPT.answer_terms
        assert pinned_answers(body, answer_terms, Atom.of("other", a), instance) == frozenset()

    def test_union_atom_pins_a_fact_of_its_second_predicate(self):
        # q(X) :- {works|manages}(X, Y), dept(Y): the factored join of
        # WORKS_IN_DEPT and its manages twin.
        union = UnionAtom((Predicate("works", 2), Predicate("manages", 2)), (X, Y))
        body, answer_terms = (union, Atom.of("dept", Y)), (X,)
        instance = RelationalInstance(
            [Atom.of("works", a, b), Atom.of("manages", c, b), Atom.of("dept", b)]
        )
        fact = Atom.of("manages", c, b)
        assert unify_fact(union, fact) == {X: c, Y: b}
        assert pinned_answers(body, answer_terms, fact, instance) == {(c,)}
        # Pinning dept(b) reaches the workers through both predicates.
        assert pinned_answers(body, answer_terms, Atom.of("dept", b), instance) == {
            (a,),
            (c,),
        }
        assert unify_fact(union, Atom.of("owns", c, b)) is None


class TestDerives:
    def test_rederivation_check(self):
        instance = RelationalInstance()
        instance.add(Atom.of("works", a, b))
        instance.add(Atom.of("dept", b))
        body, answer_terms = WORKS_IN_DEPT.body, WORKS_IN_DEPT.answer_terms
        assert derives(body, answer_terms, (a,), instance)
        assert not derives(body, answer_terms, (c,), instance)


class TestDeltaRules:
    """Seeded delta rules: their answers, and the lifetime of their plans."""

    def test_fact_absent_from_the_view_pins_nothing(self):
        instance = RelationalInstance([Atom.of("works", a, b), Atom.of("dept", b)])
        body, answer_terms = WORKS_IN_DEPT.body, WORKS_IN_DEPT.answer_terms
        absent = Atom.of("works", c, b)
        # The rest of the body, dept(b), holds: only the membership check
        # keeps the absent fact from pinning (c,).
        assert pinned_answers(body, answer_terms, absent, instance) == frozenset()
        view = OverlayInstance(instance, [absent])
        assert pinned_answers(body, answer_terms, absent, view) == {(c,)}

    def test_self_join_pinned_through_one_fact(self):
        # q(X, Z) :- r(X, Y), r(Y, Z): r(a, a) matches either atom.
        self_join = cq([Atom.of("r", X, Y), Atom.of("r", Y, Z)], (X, Z))
        body, answer_terms = self_join.body, self_join.answer_terms
        instance = RelationalInstance(
            [Atom.of("r", a, a), Atom.of("r", a, b), Atom.of("r", c, a)]
        )
        pinned = {(a, a), (a, b), (c, a)}  # (c, b) does not use r(a, a)
        fact = Atom.of("r", a, a)
        assert pinned_answers(body, answer_terms, fact, instance) == pinned
        # The maintainer runs the same rules with its planned orders.
        maintained = MaintainedAnswerSet((self_join,))
        maintained.refresh(instance)
        instance.remove(fact)
        delta = maintained.refresh(instance)
        assert delta.mode == "incremental"
        assert delta.removed == pinned and not delta.added
        instance.add(fact)
        delta = maintained.refresh(instance)
        assert delta.added == pinned and not delta.removed
        assert maintained.tuples == evaluate_ucq((self_join,), instance)

    def _works_in_dept(self, padding: int, **instance_kwargs):
        """WORKS_IN_DEPT over a few facts plus *padding* unrelated ones."""
        instance = RelationalInstance(
            [Atom.of("works", a, b), Atom.of("dept", b), Atom.of("dept", c)]
            + [Atom.of("other", Constant(f"o{i}")) for i in range(padding)],
            **instance_kwargs,
        )
        maintained = MaintainedAnswerSet((WORKS_IN_DEPT,))
        maintained.refresh(instance)
        return instance, maintained

    def assert_current(self, instance, maintained):
        assert maintained.tuples == evaluate_ucq((WORKS_IN_DEPT,), instance)

    def test_plans_are_made_on_first_use_and_reused(self):
        instance, maintained = self._works_in_dept(padding=10)
        counters = maintained.counters
        assert counters.delta_plans == 0  # subscribing plans nothing
        instance.add(Atom.of("works", c, c))
        maintained.refresh(instance)
        assert counters.delta_plans == 1  # the rule pinning works(X, Y)
        instance.add(Atom.of("works", b, c))
        maintained.refresh(instance)
        assert counters.delta_plans == 1  # same rule, same plan
        instance.remove(Atom.of("dept", c))
        maintained.refresh(instance)
        # The rule pinning dept(Y), plus the rederive rule for the
        # over-deleted answers.
        assert counters.delta_plans == 3
        instance.add(Atom.of("dept", c))
        instance.remove(Atom.of("works", b, c))
        maintained.refresh(instance)
        assert counters.delta_plans == 3
        assert counters.incremental_refreshes == 4
        self.assert_current(instance, maintained)

    def test_full_refresh_drops_the_plans(self):
        # A log too short for two mutations between polls.
        instance, maintained = self._works_in_dept(padding=10, max_tracked_changes=1)
        instance.add(Atom.of("works", c, c))
        maintained.refresh(instance)
        assert maintained.counters.delta_plans == 1
        instance.add(Atom.of("works", b, c))
        instance.add(Atom.of("works", b, b))
        maintained.refresh(instance)
        assert maintained.counters.truncation_fallbacks == 1
        instance.add(Atom.of("works", c, b))
        maintained.refresh(instance)
        # The truncation fallback emptied the cache: the rule is re-planned.
        assert maintained.counters.delta_plans == 2
        self.assert_current(instance, maintained)

    def test_drift_drops_the_plans(self):
        # 4 facts at the full refresh; one fact per incremental poll.
        instance, maintained = self._works_in_dept(padding=1)
        assert len(instance) == 4
        for index in range(4):
            instance.add(Atom.of("works", Constant(f"w{index}"), c))
            assert maintained.refresh(instance).mode == "incremental"
        assert maintained.counters.delta_plans == 1
        # The fifth applied fact outnumbers the instance the plans were
        # made on: the cache is emptied and the rule re-planned.
        instance.add(Atom.of("works", Constant("w4"), c))
        assert maintained.refresh(instance).mode == "incremental"
        assert maintained.counters.delta_plans == 2
        assert maintained.counters.full_refreshes == 1
        self.assert_current(instance, maintained)


class TestMaintainedAnswerSet:
    def make(self, *facts, **instance_kwargs):
        instance = RelationalInstance(**instance_kwargs)
        for fact in facts:
            instance.add(fact)
        maintained = MaintainedAnswerSet((PERSON, EMPLOYEE))
        return instance, maintained

    def test_initial_refresh_is_full(self):
        instance, maintained = self.make(Atom.of("person", a))
        delta = maintained.refresh(instance)
        assert delta.mode == "full"
        assert delta.added == {(a,)} and not delta.removed
        assert maintained.tuples == {(a,)}
        assert maintained.epoch == instance.epoch

    def test_insert_is_maintained_incrementally(self):
        instance, maintained = self.make(Atom.of("person", a))
        maintained.refresh(instance)
        instance.add(Atom.of("employee", b))
        delta = maintained.refresh(instance)
        assert delta.mode == "incremental"
        assert delta.added == {(b,)} and not delta.removed
        assert maintained.tuples == {(a,), (b,)}

    def test_delete_is_maintained_incrementally(self):
        instance, maintained = self.make(Atom.of("person", a), Atom.of("person", b))
        maintained.refresh(instance)
        instance.remove(Atom.of("person", b))
        delta = maintained.refresh(instance)
        assert delta.mode == "incremental"
        assert delta.removed == {(b,)} and not delta.added
        assert maintained.tuples == {(a,)}

    def test_answer_derived_by_another_disjunct_survives_deletion(self):
        # a is both a person and an employee: losing one derivation must
        # not drop the answer.
        instance, maintained = self.make(
            Atom.of("person", a), Atom.of("employee", a)
        )
        maintained.refresh(instance)
        instance.remove(Atom.of("employee", a))
        delta = maintained.refresh(instance)
        assert delta.mode == "incremental" and delta.empty
        assert maintained.tuples == {(a,)}
        instance.remove(Atom.of("person", a))
        delta = maintained.refresh(instance)
        assert delta.removed == {(a,)}
        assert maintained.tuples == frozenset()

    def test_answer_derived_by_another_join_survives_deletion(self):
        # person(X) and works(X, Y), dept(Y) are two joins: the rederive
        # step checks both, not only the join the deletion touched.
        instance = RelationalInstance(
            [Atom.of("person", a), Atom.of("works", a, b), Atom.of("dept", b)]
        )
        maintained = MaintainedAnswerSet((PERSON, WORKS_IN_DEPT))
        maintained.refresh(instance)
        instance.remove(Atom.of("dept", b))
        delta = maintained.refresh(instance)
        assert delta.mode == "incremental" and delta.empty
        assert maintained.tuples == {(a,)}
        instance.remove(Atom.of("person", a))
        assert maintained.refresh(instance).removed == {(a,)}

    def test_join_disjunct_delete_rederives_survivors(self):
        instance = RelationalInstance()
        for fact in (
            Atom.of("works", a, b),
            Atom.of("works", a, c),
            Atom.of("dept", b),
            Atom.of("dept", c),
        ):
            instance.add(fact)
        maintained = MaintainedAnswerSet((WORKS_IN_DEPT,))
        maintained.refresh(instance)
        assert maintained.tuples == {(a,)}
        # Losing dept(b) over-deletes (a,), but works(a,c) ∧ dept(c)
        # rederives it — DRed's second pass.
        instance.remove(Atom.of("dept", b))
        delta = maintained.refresh(instance)
        assert delta.empty
        assert maintained.tuples == {(a,)}
        instance.remove(Atom.of("dept", c))
        delta = maintained.refresh(instance)
        assert delta.removed == {(a,)}

    def test_noop_when_epoch_unchanged(self):
        instance, maintained = self.make(Atom.of("person", a))
        maintained.refresh(instance)
        delta = maintained.refresh(instance)
        assert delta.mode == "noop" and delta.empty
        assert maintained.counters.noop_refreshes == 1

    def test_truncated_log_falls_back_to_full(self):
        instance, maintained = self.make(
            Atom.of("person", a), max_tracked_changes=2
        )
        maintained.refresh(instance)
        for index in range(5):
            instance.add(Atom.of("person", Constant(f"p{index}")))
        assert instance.changes_since(maintained.epoch) is None
        delta = maintained.refresh(instance)
        assert delta.mode == "full"
        assert maintained.counters.truncation_fallbacks == 1
        assert maintained.tuples == evaluate_ucq((PERSON, EMPLOYEE), instance)

    def test_oversize_delta_falls_back_to_full(self):
        instance, maintained = self.make(Atom.of("person", a))
        maintained.refresh(instance)
        # Churn 3 facts in and out: the 6-entry log outweighs the
        # 1-fact database, so replaying it is a loss.
        for value in (b, c, Constant("d")):
            instance.add(Atom.of("person", value))
        for value in (b, c, Constant("d")):
            instance.remove(Atom.of("person", value))
        delta = maintained.refresh(instance)
        assert delta.mode == "full" and delta.empty
        assert maintained.counters.oversize_fallbacks == 1

    def test_instance_swap_forces_full_refresh(self):
        first, maintained = self.make(Atom.of("person", a))
        maintained.refresh(first)
        second = RelationalInstance()
        second.add(Atom.of("employee", b))
        delta = maintained.refresh(second)
        assert delta.mode == "full"
        assert delta.added == {(b,)} and delta.removed == {(a,)}

    def test_describe_reports_counters(self):
        instance = RelationalInstance([Atom.of("person", a)])
        # person and employee factor into one join; works/dept is another.
        maintained = MaintainedAnswerSet((PERSON, EMPLOYEE, WORKS_IN_DEPT))
        maintained.refresh(instance)
        instance.add(Atom.of("person", b))
        maintained.refresh(instance)
        report = maintained.describe()
        assert report["answers"] == 2
        assert report["joins"] == 2
        assert report["full_refreshes"] == 1
        assert report["incremental_refreshes"] == 1
        # The full refresh ran both joins, the person insert only the
        # join with a person atom: the works/dept join was skipped.
        assert report["joins_reevaluated"] == 3
        assert report["joins_skipped"] == 1
        # A fact over a predicate no join mentions skips every join.
        instance.add(Atom.of("other", a))
        assert maintained.refresh(instance).empty
        assert maintained.counters.joins_reevaluated == 3
        assert maintained.counters.joins_skipped == 3


class TestPreparedQueryMaintenance:
    @pytest.mark.parametrize("backend", ("memory", "sqlite"))
    def test_poll_tracks_mutations(self, backend):
        from repro.api import OBDASystem
        from repro.dependencies.tgd import tgd
        from repro.dependencies.theory import OntologyTheory

        theory = OntologyTheory(
            tgds=[tgd(Atom.of("employee", X), Atom.of("person", X))],
            name="maintain",
        )
        system = OBDASystem(theory)
        system.add_facts([("person", ("ann",)), ("employee", ("bob",))])
        prepared = system.prepare(cq([Atom.of("person", X)], (X,)), backend)
        delta = prepared.poll()
        assert delta.mode == "full"
        assert prepared.maintained_answers == {
            (Constant("ann"),),
            (Constant("bob"),),
        }
        system.add_fact("employee", ("carol",))
        delta = prepared.poll()
        assert delta.mode == "incremental"
        assert delta.added == {(Constant("carol"),)}
        # The maintained set matches a from-scratch execution exactly.
        assert prepared.maintained_answers == prepared.execute().tuples
        system.close()

    @pytest.mark.parametrize("backend", ("memory", "sqlite"))
    def test_full_refresh_executes_the_plan_once(self, backend, monkeypatch):
        from repro.api import OBDASystem
        from repro.dependencies.tgd import tgd
        from repro.dependencies.theory import OntologyTheory

        theory = OntologyTheory(
            tgds=[tgd(Atom.of("employee", X), Atom.of("person", X))],
            name="refresh",
        )
        system = OBDASystem(theory)
        system.add_facts([("person", ("ann",)), ("employee", ("bob",))])
        prepared = system.prepare(cq([Atom.of("person", X)], (X,)), backend)
        plan_class = type(prepared.plan)
        executed = []
        execute = plan_class.execute

        def counting(self, database, bindings=None):
            executed.append(bindings)
            return execute(self, database, bindings)

        def forbidden(*args, **kwargs):
            raise AssertionError("a poll ran one disjunct alone")

        monkeypatch.setattr(plan_class, "execute", counting)
        monkeypatch.setattr(plan_class, "execute_disjunct", forbidden)
        delta = prepared.poll()
        assert delta.mode == "full"
        assert executed == [None]
        assert prepared.maintained_answers == {
            (Constant("ann"),),
            (Constant("bob"),),
        }
        system.add_fact("employee", ("carol",))
        assert prepared.poll().mode == "incremental"
        assert executed == [None]
        system.close()

    def test_insert_reevaluates_only_the_joins_over_its_predicate(self):
        from repro.api import OBDASystem
        from repro.workloads import get_workload

        workload = get_workload("V")
        names = ("q1", "q2", "q3", "q4")
        with OBDASystem(workload.theory, database=workload.abox()) as system:
            prepared = [system.prepare(workload.query(name)) for name in names]
            for handle in prepared:
                handle.poll()
            system.add_fact("hasRole", ("fresh_object", "fresh_symbol"))
            reevaluated, skipped = [], []
            for handle in prepared:
                assert handle.poll().mode == "incremental"
                joins = handle.rewriting.ucq.factored()
                counters = handle.maintainer().counters
                # The first poll's full refresh ran every join.
                reevaluated.append(counters.joins_reevaluated - len(joins))
                skipped.append(counters.joins_skipped)
                with_role = sum(
                    any(
                        predicate.name == "hasRole"
                        for atom in join.body
                        for predicate in atom.predicates
                    )
                    for join in joins
                )
                assert reevaluated[-1] == with_role
                assert skipped[-1] == len(joins) - with_role
                assert handle.maintained_answers == handle.execute().tuples
        # q1 (Location) and q3 (relation members) have no hasRole atom; q2
        # has one join with it, q4 two.
        assert reevaluated == [0, 1, 0, 2]
        assert skipped == [1, 0, 1, 0]

    def test_invalidate_resets_the_maintainer(self):
        from repro.api import OBDASystem
        from repro.dependencies.theory import OntologyTheory

        system = OBDASystem(OntologyTheory(tgds=[], name="reset"))
        system.add_fact("person", ("ann",))
        prepared = system.prepare(cq([Atom.of("person", X)], (X,)))
        maintainer = prepared.maintainer()
        prepared.poll()
        prepared.invalidate()
        assert prepared.maintainer() is not maintainer
        assert prepared.poll().mode == "full"
        system.close()
