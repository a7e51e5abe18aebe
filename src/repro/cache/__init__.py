"""Persistent compile-once/serve-many layer for perfect rewritings.

``TGD-rewrite`` pays its cost once per query, but a production OBDA
deployment re-rewrites the same or structurally identical queries across
processes and restarts.  The canonical keys of :mod:`repro.logic.canonical`
make rewritings *content-addressable*: two variant queries (equal modulo a
head-preserving bijective variable renaming) share one canonical key, and
the perfect rewriting of a CQ — viewed as the set of certain answers it
produces on every database — depends only on the query *up to varianthood*
and on the ontological theory.  A finished rewriting can therefore be
persisted under ``(canonical query key, theory fingerprint)`` and served to
any later process that asks for a variant of the same query against the
same theory.

The package provides three pieces:

* :mod:`repro.cache.fingerprint` — a renaming- and order-invariant SHA-256
  fingerprint of everything the rewriting output depends on: the TGDs, the
  negative constraints, the engine options (elimination, NC pruning) and an
  engine version constant.  Any theory change — adding or removing a TGD,
  toggling an optimisation — changes the fingerprint, which *is* the cache
  invalidation mechanism: stale entries simply never match again.
* :mod:`repro.cache.serialization` — a JSON encoding of terms, atoms,
  conjunctive queries and :class:`~repro.core.rewriter.RewritingResult`
  objects that round-trips exactly (a reloaded rewriting is ``==`` to, and
  prints byte-identically to, the one that was stored).
* :mod:`repro.cache.store` — :class:`RewritingStore`, an append-only
  JSON-lines store with an in-memory index, format versioning, explicit
  pruning of stale fingerprints, and hit/miss/collision counters that
  :class:`repro.api.OBDASystem` merges into its cache info.
* :mod:`repro.cache.checkpoint` — :class:`FrontierCheckpoint`, which
  persists the frontier kernel's state between rewriting generations so
  a killed compilation resumes from its last completed generation (with
  a byte-identical final result) instead of restarting.  In a checkpoint
  directory each file is named by ``compile_digest`` (fingerprint +
  canonical key), the one naming the serving tier and
  ``OBDASystem.compile_many(checkpoint_dir=...)`` share.

Cache-key invariants
--------------------

The correctness of serving a stored rewriting for a *different* query rests
on two documented invariants:

1. **Key equality proves varianthood only for discrete colourings.**
   ``canonical_key(q) == canonical_key(p)`` is guaranteed when ``q`` and
   ``p`` are variants, but the converse only holds when colour refinement
   separated every variable (the ``exact`` flag of
   :func:`repro.logic.canonical.canonical_fingerprint`).  The store records
   the flag and the original query with every entry: an exact-key lookup
   against an exact entry is served straight from the index, while a
   non-exact lookup re-parses the stored query and confirms
   :meth:`~repro.queries.conjunctive_query.ConjunctiveQuery.is_variant_of`
   before serving — a failed confirmation is counted as a collision and
   treated as a miss.
2. **The theory fingerprint covers everything else the output depends
   on** — the TGD set (modulo rule order and variable naming), the negative
   constraints, whether query elimination and NC pruning are enabled, and
   the engine version (bumped whenever the algorithm's output changes).
   Two systems with equal fingerprints produce interchangeable rewritings;
   two systems with different fingerprints never share entries.
"""

from .checkpoint import FrontierCheckpoint
from .fingerprint import ENGINE_VERSION, theory_fingerprint
from .serialization import (
    UnserializableQueryError,
    query_from_json,
    query_to_json,
    result_from_json,
    result_to_json,
)
from .store import CacheStatistics, RewritingStore

__all__ = [
    "ENGINE_VERSION",
    "CacheStatistics",
    "FrontierCheckpoint",
    "RewritingStore",
    "UnserializableQueryError",
    "query_from_json",
    "query_to_json",
    "result_from_json",
    "result_to_json",
    "theory_fingerprint",
]
