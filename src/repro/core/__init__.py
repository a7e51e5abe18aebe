"""The paper's contribution: TGD-rewrite, query elimination and their building blocks."""

from .applicability import (
    FactorizableSet,
    RuleIndex,
    applicable_atom_sets,
    factorizable_sets,
    is_applicable,
    is_factorizable,
)
from .coverage import CoverageChecker, CoverageWitness, covers
from .dependency_graph import DependencyEdge, DependencyGraph
from .elimination import EliminationResult, QueryEliminator, eliminate
from .frontier import (
    CandidateQuery,
    Derivation,
    Expansion,
    KernelState,
    RewriteFrontier,
    merge_expansion,
)
from .equality_types import (
    ConstantEquality,
    EqualityType,
    PositionEquality,
    eq_subset,
    equality_type,
)
from .nc_pruning import NegativeConstraintPruner, prune_unsatisfiable
from .rewriter import (
    RewritingBudgetExceeded,
    RewritingResult,
    RewritingStatistics,
    TGDRewriter,
    rewrite,
)

__all__ = [
    "CandidateQuery",
    "ConstantEquality",
    "CoverageChecker",
    "CoverageWitness",
    "DependencyEdge",
    "DependencyGraph",
    "Derivation",
    "EliminationResult",
    "EqualityType",
    "Expansion",
    "FactorizableSet",
    "KernelState",
    "RewriteFrontier",
    "merge_expansion",
    "NegativeConstraintPruner",
    "PositionEquality",
    "QueryEliminator",
    "RewritingBudgetExceeded",
    "RewritingResult",
    "RewritingStatistics",
    "RuleIndex",
    "TGDRewriter",
    "applicable_atom_sets",
    "covers",
    "eliminate",
    "eq_subset",
    "equality_type",
    "factorizable_sets",
    "is_applicable",
    "is_factorizable",
    "prune_unsatisfiable",
    "rewrite",
]
