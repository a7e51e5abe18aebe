"""repro — ontological query rewriting and optimisation for Datalog±.

A from-scratch reproduction of *Gottlob, Orsi & Pieris, "Ontological Queries:
Rewriting and Optimization", ICDE 2011* (extended version arXiv:1112.0343):

* the ``TGD-rewrite`` backward-chaining UCQ rewriting algorithm with its
  restricted factorisation step (Section 5);
* the query-elimination optimisation for linear TGDs (``TGD-rewrite*``,
  Section 6), built on dependency graphs, equality types and atom coverage;
* the supporting substrates: first-order terms and unification, conjunctive
  queries and containment, TGDs / negative constraints / key dependencies,
  Datalog± language classifiers, the chase, an in-memory relational engine
  with SQL export, DL-Lite_R translation, and the baseline rewriters
  (QuOnto-style, Requiem-style, chase & back-chase) used in the evaluation.

Quick start::

    from repro import Atom, ConjunctiveQuery, Variable, tgd, rewrite

    X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
    sigma = tgd(Atom.of("project", X), Atom.of("has_leader", X, Z))
    query = ConjunctiveQuery([Atom.of("has_leader", X, Y)], answer_terms=(X,))
    print(rewrite(query, [sigma]).ucq)
"""

from .api import (
    AnswerSet,
    ConflictingKeysError,
    ExecutionCacheInfo,
    InconsistentTheoryError,
    OBDASystem,
    PreparedCacheInfo,
    PreparedQuery,
    RewritingCacheInfo,
)
from .backends import (
    BACKENDS,
    BackendError,
    ExecutionBackend,
    ExecutionPlan,
    InMemoryBackend,
    SQLiteBackend,
    create_backend,
)
from .cache import FrontierCheckpoint, RewritingStore, theory_fingerprint
from .parallel import compile_workloads
from .baselines import (
    ChaseBackchase,
    QuOntoStyleRewriter,
    ResolutionRewriter,
    quonto_rewrite,
    requiem_rewrite,
)
from .evaluation import (
    ANSWER_BACKENDS,
    SYSTEMS,
    AnswerMeasurement,
    AnsweringEvaluator,
    Table1Evaluator,
    evaluate_workload,
    format_rows,
)
from .ontology import DLLiteOntology, parse_ontology, to_theory
from .workloads import Workload, get_workload, workload_names
from .core import (
    CoverageChecker,
    DependencyGraph,
    QueryEliminator,
    RewritingBudgetExceeded,
    RewritingResult,
    RewritingStatistics,
    RuleIndex,
    TGDRewriter,
    eliminate,
    rewrite,
)
from .chase import ChaseEngine, ChaseResult, certain_answers, chase
from .database import (
    QueryEvaluator,
    Relation,
    RelationalInstance,
    RelationalSchema,
    cq_to_sql,
    database_from_tuples,
    evaluate,
    evaluate_ucq,
    random_database,
    ucq_to_sql,
)
from .dependencies import (
    KeyDependency,
    NegativeConstraint,
    OntologyTheory,
    TGD,
    classify,
    normalize,
    tgd,
    theory,
)
from .logic import Atom, Constant, Null, Predicate, Substitution, Variable
from .metrics import RewritingMetrics, ucq_metrics
from .queries import ConjunctiveQuery, UnionOfConjunctiveQueries, boolean_query, parse_query

__version__ = "1.0.0"

__all__ = [
    "ANSWER_BACKENDS",
    "AnswerMeasurement",
    "AnsweringEvaluator",
    "AnswerSet",
    "Atom",
    "BACKENDS",
    "BackendError",
    "ExecutionBackend",
    "ExecutionCacheInfo",
    "ExecutionPlan",
    "InMemoryBackend",
    "PreparedQuery",
    "SQLiteBackend",
    "create_backend",
    "ChaseBackchase",
    "ChaseEngine",
    "DLLiteOntology",
    "FrontierCheckpoint",
    "PreparedCacheInfo",
    "QuOntoStyleRewriter",
    "ResolutionRewriter",
    "SYSTEMS",
    "Table1Evaluator",
    "Workload",
    "evaluate_workload",
    "format_rows",
    "get_workload",
    "parse_ontology",
    "parse_query",
    "quonto_rewrite",
    "requiem_rewrite",
    "to_theory",
    "workload_names",
    "ChaseResult",
    "ConjunctiveQuery",
    "Constant",
    "CoverageChecker",
    "DependencyGraph",
    "ConflictingKeysError",
    "InconsistentTheoryError",
    "KeyDependency",
    "NegativeConstraint",
    "Null",
    "OBDASystem",
    "OntologyTheory",
    "Predicate",
    "QueryEliminator",
    "QueryEvaluator",
    "Relation",
    "RelationalInstance",
    "RelationalSchema",
    "RewritingBudgetExceeded",
    "RewritingCacheInfo",
    "RewritingMetrics",
    "RewritingStore",
    "theory_fingerprint",
    "RewritingResult",
    "RewritingStatistics",
    "RuleIndex",
    "Substitution",
    "TGD",
    "TGDRewriter",
    "UnionOfConjunctiveQueries",
    "Variable",
    "boolean_query",
    "certain_answers",
    "chase",
    "classify",
    "compile_workloads",
    "cq_to_sql",
    "database_from_tuples",
    "eliminate",
    "evaluate",
    "evaluate_ucq",
    "normalize",
    "random_database",
    "rewrite",
    "tgd",
    "theory",
    "ucq_metrics",
    "ucq_to_sql",
]
