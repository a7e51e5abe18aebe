"""Per-disjunct plan execution: the backend hook behind full refreshes.

``ExecutionPlan.execute_disjunct`` must partition ``execute``: the union
of the per-disjunct answer sets over all indexes equals the full
execution, on both backends, with and without constant bindings.
"""

import pytest

from repro.backends.base import BackendError, ExecutionPlan
from repro.backends.memory import InMemoryBackend
from repro.backends.sqlite import SQLiteBackend
from repro.database.instance import RelationalInstance
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries

X, Y = Variable("X"), Variable("Y")

UCQ = UnionOfConjunctiveQueries(
    [
        ConjunctiveQuery([Atom.of("person", X)], (X,)),
        ConjunctiveQuery([Atom.of("works", X, Y), Atom.of("dept", Y)], (X,)),
    ]
)


def make_instance() -> RelationalInstance:
    instance = RelationalInstance()
    for name, values in (
        ("person", ("ann",)),
        ("person", ("bob",)),
        ("works", ("bob", "sales")),
        ("works", ("carol", "sales")),
        ("dept", ("sales",)),
    ):
        instance.add_tuple(name, values)
    return instance


def make_backend(name):
    return {"memory": InMemoryBackend, "sqlite": SQLiteBackend}[name]()


@pytest.mark.parametrize("backend_name", ("memory", "sqlite"))
class TestExecuteDisjunct:
    def test_disjuncts_partition_the_full_execution(self, backend_name):
        backend = make_backend(backend_name)
        instance = make_instance()
        plan = backend.prepare(UCQ, schema=instance.schema)
        per_disjunct = [
            plan.execute_disjunct(instance, index) for index in range(len(UCQ))
        ]
        assert per_disjunct[0] == {(Constant("ann"),), (Constant("bob"),)}
        assert per_disjunct[1] == {(Constant("bob"),), (Constant("carol"),)}
        union = frozenset().union(*per_disjunct)
        assert union == plan.execute(instance)
        backend.close()

    def test_disjunct_execution_tracks_mutations(self, backend_name):
        backend = make_backend(backend_name)
        instance = make_instance()
        plan = backend.prepare(UCQ, schema=instance.schema)
        plan.execute_disjunct(instance, 1)
        instance.add_tuple("works", ("dave", "sales"))
        instance.remove_tuple("works", ("bob", "sales"))
        assert plan.execute_disjunct(instance, 1) == {
            (Constant("carol"),),
            (Constant("dave"),),
        }
        backend.close()

    def test_bindings_apply_to_the_selected_disjunct(self, backend_name):
        backend = make_backend(backend_name)
        instance = make_instance()
        instance.add_tuple("works", ("erin", "hr"))
        instance.add_tuple("dept", ("hr",))
        placeholder = Constant("$dept")
        bound_ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery(
                    [Atom.of("works", X, placeholder), Atom.of("dept", placeholder)],
                    (X,),
                )
            ]
        )
        plan = backend.prepare(bound_ucq, schema=instance.schema)
        answers = plan.execute_disjunct(
            instance, 0, bindings={placeholder: Constant("hr")}
        )
        assert answers == {(Constant("erin"),)}
        backend.close()

    def test_out_of_range_index_raises(self, backend_name):
        backend = make_backend(backend_name)
        instance = make_instance()
        plan = backend.prepare(UCQ, schema=instance.schema)
        with pytest.raises((IndexError, KeyError, BackendError)):
            plan.execute_disjunct(instance, 99)
        backend.close()


def test_plans_must_execute_single_disjuncts():
    class OpaquePlan(ExecutionPlan):
        def execute(self, database, bindings=None):
            return frozenset()

        @property
        def description(self):
            return "opaque"

    with pytest.raises(TypeError, match="execute_disjunct"):
        OpaquePlan()
