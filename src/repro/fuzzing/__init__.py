"""Seeded Datalog± workload generation and differential fuzzing.

The paper's evaluation covers five fixed ontologies; this package sweeps
the *fragments* its Theorem 7 covers — linear, sticky and sticky-join —
across size, arity and fan-out axes, and holds the whole stack to three
oracles per generated ``(theory, query, instance)`` triple:

1. **chase agreement** — rewrite-then-evaluate must return exactly the
   certain answers the (depth-bounded) chase computes;
2. **backend agreement** — every :class:`~repro.backends.base.
   ExecutionBackend` must return the same answer set;
3. **determinism** — sequential, threaded and ``auto`` scheduling and a
   persistent-store round-trip must produce byte-identical rewritings.

Entry points: :class:`~repro.fuzzing.generator.WorkloadGenerator` (seeded
triples), :class:`~repro.fuzzing.oracle.DifferentialOracle` (the three
checks), :func:`~repro.fuzzing.shrink.shrink_case` (failure minimisation)
and ``repro fuzz`` (the CLI driver; see ``docs/FUZZING.md``).
"""

from .generator import (
    FRAGMENTS,
    GeneratedCase,
    GenerationError,
    GeneratorConfig,
    WorkloadGenerator,
    registry_cases,
    scaled_registry_instance,
)
from .oracle import (
    DifferentialOracle,
    OracleFailure,
    OracleVerdict,
    answer_diff,
    format_answer_diff,
)
from .shrink import load_repro, shrink_case, write_repro

__all__ = [
    "DifferentialOracle",
    "FRAGMENTS",
    "GeneratedCase",
    "GenerationError",
    "GeneratorConfig",
    "OracleFailure",
    "OracleVerdict",
    "WorkloadGenerator",
    "answer_diff",
    "format_answer_diff",
    "load_repro",
    "registry_cases",
    "scaled_registry_instance",
    "shrink_case",
    "write_repro",
]
