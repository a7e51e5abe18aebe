"""Scheduling strategies for the frontier rewriting kernel: test instruments.

The kernel of :class:`repro.core.rewriter.TGDRewriter` drains the
:class:`~repro.core.frontier.RewriteFrontier` one *generation* at a time
and merges the expansions in frontier order (see
:mod:`repro.core.frontier`).  Because expansion is a pure function of the
query and the rule set, *how* a generation's expansions are computed
cannot change a byte of the rewriting.  Every compile path expands
sequentially (``map(engine.expand, batch)``); the strategies here exist
to hold the kernel to that order-independence.  A caller passes one to
:meth:`TGDRewriter.rewrite(query, strategy=...)
<repro.core.rewriter.TGDRewriter.rewrite>` and owns it: it closes the
strategy (``with strategy:``) when done.

* :class:`SequentialStrategy` — expand one query at a time in the calling
  thread; what the kernel does without a strategy.
* :class:`ThreadedStrategy` — expand a whole generation across a thread
  pool that shares the engine, so any hidden order-dependence in the
  kernel would surface as a byte difference (``make strategy-smoke``).
* :class:`ChunkedProcessStrategy` — expand a generation in chunks across
  worker processes, each holding a deterministic replica of the engine
  built from the rewriter's pickled specification.
* :class:`AutoStrategy` — pick one of the above per generation from
  observable telemetry (worker count, frontier width, rule fan-out).

Every strategy must yield expansions **in batch order** — the merge point
replays them in that order, which (together with the determinism of the
engine: pooled rename-apart copies are a pure function of ``(rule, query
variables)``) makes the final rewriting byte-identical under every
strategy and worker/thread count.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .core.frontier import Expansion
from .parallel import resolve_workers
from .queries.conjunctive_query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.rewriter import TGDRewriter

__all__ = [
    "AutoStrategy",
    "ChunkedProcessStrategy",
    "SchedulingStrategy",
    "SequentialStrategy",
    "ThreadedStrategy",
]


class SchedulingStrategy(ABC):
    """How one frontier generation's expansions are computed.

    Implementations receive the rewriting engine and a generation batch
    and must yield one :class:`~repro.core.frontier.Expansion` per batch
    member, **in batch order**.  They never touch the kernel state: the
    merge point stays single-threaded in the caller.
    """

    #: Short name (``"sequential"``, ``"threaded"``, ``"chunked"``,
    #: ``"auto"``) for test and gate messages.
    name: str = "?"

    @abstractmethod
    def expand_generation(
        self, engine: "TGDRewriter", batch: Sequence[ConjunctiveQuery]
    ) -> Iterable[Expansion]:
        """Expansions of *batch*, in batch order."""

    def begin_run(
        self, engine: "TGDRewriter", query: ConjunctiveQuery, generation: int = 0
    ) -> None:
        """Hook called once per :meth:`TGDRewriter.rewrite`, before the kernel loop.

        *generation* is the frontier generation the run starts from (non-zero
        when resuming a checkpoint).  The default does nothing; adaptive
        strategies use it to observe per-query telemetry (rule fan-out)
        before the first batch arrives.
        """

    def close(self) -> None:
        """Release pools or other resources; the default holds none."""

    def __enter__(self) -> "SchedulingStrategy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialStrategy(SchedulingStrategy):
    """Expand one query at a time in the calling thread.

    Yields lazily, so the kernel merges each expansion before the next one
    is computed — exactly what the kernel does when no strategy is
    passed.  Every other strategy is pinned (``tests/integration/
    test_strategy_determinism.py``) to reproduce this output byte for
    byte.
    """

    name = "sequential"

    def expand_generation(
        self, engine: "TGDRewriter", batch: Sequence[ConjunctiveQuery]
    ) -> Iterator[Expansion]:
        return map(engine.expand, batch)


class ThreadedStrategy(SchedulingStrategy):
    """Expand a whole generation across a thread pool.

    Expansion is pure CPU work on small structures, so threads only help
    on GIL-free interpreters; the strategy's day job is differential
    testing — it shares the *same* engine (rule index, rename-apart pool
    and coverage memo) across threads, so any hidden order-dependence in
    the kernel would surface as a byte difference against
    :class:`SequentialStrategy`.  The engine's memo layers are safe to
    share: the rename-apart pool takes a lock around minting, and the
    coverage memo's entries are deterministic values keyed by
    renaming-invariant shapes (a racing double-compute stores the same
    outcome).  So are the
    run's candidate keys (:meth:`~repro.core.rewriter.TGDRewriter.for_run`):
    a thread may settle a candidate from a key that a later member of
    the batch put there, and the merge then builds the candidate itself.

    The pool is created lazily and reused across generations; ``close()``
    shuts it down.
    """

    name = "threaded"

    def __init__(self, threads: int | None = None) -> None:
        self._threads = resolve_workers(threads)
        self._executor: ThreadPoolExecutor | None = None

    @property
    def threads(self) -> int:
        """Number of worker threads the pool uses."""
        return self._threads

    def expand_generation(
        self, engine: "TGDRewriter", batch: Sequence[ConjunctiveQuery]
    ) -> Iterator[Expansion]:
        if len(batch) <= 1 or self._threads <= 1:
            return map(engine.expand, batch)
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._threads,
                thread_name_prefix="rewrite-expand",
            )
        # Executor.map yields results in input order regardless of
        # completion order — exactly the merge contract.
        return self._executor.map(engine.expand, batch)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


# -- process-chunked expansion ----------------------------------------------
#
# Worker processes hold one deterministic replica of the rewriting engine,
# rebuilt from the engine's pickled specification by the pool initializer.
# Replicas expand independently warmed memo layers, which cannot change a
# byte of output: pooled rename-apart copies are minted per (rule,
# position) and served as a pure function of (rule, query variables), so a
# replica's expansion equals the parent's regardless of what either has
# expanded before.

_EXPANSION_ENGINE = None


def _initialize_expansion_worker(specification: tuple) -> None:
    """Pool initializer: build this worker's engine replica once."""
    global _EXPANSION_ENGINE
    from .core.rewriter import TGDRewriter

    _EXPANSION_ENGINE = TGDRewriter.from_specification(specification)


def _expand_chunk(queries: list[ConjunctiveQuery]) -> list[Expansion]:
    """Expand one chunk of a generation in the worker's engine replica."""
    return [_EXPANSION_ENGINE.expand(query) for query in queries]


class ChunkedProcessStrategy(SchedulingStrategy):
    """Expand a generation in chunks across worker processes.

    This is the intra-query parallelism strategy: one slow query's
    frontier generations are split into chunks and expanded by a process
    pool, sidestepping the GIL.  The pool is created lazily on first use
    and bound to the engine's specification; expanding with a different
    engine rebinds (recreating the pool), so one strategy instance can be
    reused across the systems of a workload batch.

    Parameters
    ----------
    workers:
        Pool size (default: one per usable CPU).
    chunk_size:
        Queries per worker task.  The default splits each generation into
        about ``4 × workers`` chunks (at least :attr:`MIN_CHUNK` queries
        each) — small enough for dynamic balance, large enough that IPC
        does not dominate.
    min_batch:
        Generations smaller than this are expanded in the parent (the
        pickling round-trip would cost more than it buys).
    """

    name = "chunked"

    #: Smallest chunk worth shipping to a worker.
    MIN_CHUNK = 4

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        min_batch: int | None = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._workers = resolve_workers(workers)
        self._chunk_size = chunk_size
        self._min_batch = (
            min_batch if min_batch is not None else max(2, 2 * self.MIN_CHUNK)
        )
        self._pool: ProcessPoolExecutor | None = None
        self._bound_specification: tuple | None = None

    @property
    def workers(self) -> int:
        """Number of worker processes the pool uses."""
        return self._workers

    def _ensure_pool(self, engine: "TGDRewriter") -> ProcessPoolExecutor:
        specification = engine.specification()
        if self._pool is not None and self._bound_specification != specification:
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_initialize_expansion_worker,
                initargs=(specification,),
            )
            self._bound_specification = specification
        return self._pool

    def _chunks(
        self, batch: Sequence[ConjunctiveQuery]
    ) -> list[list[ConjunctiveQuery]]:
        size = self._chunk_size
        if size is None:
            size = max(self.MIN_CHUNK, math.ceil(len(batch) / (4 * self._workers)))
        return [list(batch[i : i + size]) for i in range(0, len(batch), size)]

    def expand_generation(
        self, engine: "TGDRewriter", batch: Sequence[ConjunctiveQuery]
    ) -> Iterator[Expansion]:
        if self._workers <= 1 or len(batch) < self._min_batch:
            yield from map(engine.expand, batch)
            return
        pool = self._ensure_pool(engine)
        futures = [pool.submit(_expand_chunk, chunk) for chunk in self._chunks(batch)]
        for future in futures:  # in submission order == batch order
            yield from future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._bound_specification = None


class AutoStrategy(SchedulingStrategy):
    """Pick sequential/threaded/chunked per generation from observable telemetry.

    The inputs are facts the kernel already has in hand — no trial runs, no
    timing feedback loops, so the choice (and therefore the byte-identical
    output guarantee) is deterministic for a given machine shape:

    * **workers** — the usable-CPU count (affinity-aware).  With one worker
      no parallel strategy can win, so auto degenerates to sequential.
    * **frontier width** — ``len(batch)``.  Generations below
      :attr:`SMALL_GENERATION` cannot amortise any dispatch overhead.
    * **rule fan-out** — :meth:`repro.core.applicability.RuleIndex.fan_out`
      of the query being rewritten, captured by :meth:`begin_run`: how many
      rule applications a frontier query can trigger, i.e. how much CPU one
      batch member represents.  Combined with width it gates the expensive
      process pool, whose spin-up only pays off on wide, busy frontiers
      (``width × fan-out`` ≥ :attr:`CHUNK_WORK_THRESHOLD`).

    The hard invariant — auto never loses to sequential by more than
    :attr:`EPSILON` — holds by construction on the common shapes: every
    guard falls through to :class:`SequentialStrategy` (zero added overhead
    beyond one integer comparison per generation), threads are only used on
    GIL-free builds where they can actually win, and processes only when a
    generation carries enough work to cover the pool.  ``make perf-smoke``
    and ``benchmarks/bench_hotpaths.py`` measure the invariant rather than
    trusting it.
    """

    name = "auto"

    #: Auto may not lose to sequential by more than this fraction.
    EPSILON = 0.15
    #: Generations narrower than this always run sequentially.
    SMALL_GENERATION = 8
    #: Minimum ``width × fan-out`` before the process pool is worth it.
    CHUNK_WORK_THRESHOLD = 4096

    def __init__(self, workers: int | None = None) -> None:
        self._workers = resolve_workers(workers)
        self._sequential = SequentialStrategy()
        self._threaded: ThreadedStrategy | None = None
        self._chunked: ChunkedProcessStrategy | None = None
        self._fan_out = 0

    @property
    def workers(self) -> int:
        """Usable worker count the tuner plans against."""
        return self._workers

    def begin_run(
        self, engine: "TGDRewriter", query: ConjunctiveQuery, generation: int = 0
    ) -> None:
        self._fan_out = engine.rule_index.fan_out(query)

    def _choose(self, width: int) -> SchedulingStrategy:
        if self._workers <= 1 or width < self.SMALL_GENERATION:
            return self._sequential
        if width * max(1, self._fan_out) >= self.CHUNK_WORK_THRESHOLD:
            if self._chunked is None:
                self._chunked = ChunkedProcessStrategy(self._workers)
            return self._chunked
        if not _gil_enabled():
            # Threads share the engine's warm memo layers at zero pickling
            # cost, but under the GIL they cannot beat sequential on pure
            # CPU expansion — so they are reserved for free-threaded builds.
            if self._threaded is None:
                self._threaded = ThreadedStrategy(self._workers)
            return self._threaded
        return self._sequential

    def expand_generation(
        self, engine: "TGDRewriter", batch: Sequence[ConjunctiveQuery]
    ) -> Iterable[Expansion]:
        return self._choose(len(batch)).expand_generation(engine, batch)

    def close(self) -> None:
        self._sequential.close()
        if self._threaded is not None:
            self._threaded.close()
            self._threaded = None
        if self._chunked is not None:
            self._chunked.close()
            self._chunked = None


def _gil_enabled() -> bool:
    """``True`` on interpreters where the GIL serialises pure-Python CPU work."""
    try:
        return sys._is_gil_enabled()
    except AttributeError:  # pragma: no cover - pre-3.13 interpreters
        return True
