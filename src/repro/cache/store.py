"""The persistent rewriting store: compile once, serve many.

:class:`RewritingStore` persists finished perfect rewritings to disk so
that later processes — or later runs of a whole workload — skip
``TGD-rewrite`` entirely for queries they have already compiled, including
queries that are merely *variants* (equal modulo bijective variable
renaming) of compiled ones.

Storage format
--------------

One append-only JSON-lines file, ``rewritings.jsonl``, inside the store
directory.  Each line is a self-contained record::

    {"format": 1, "digest": "...", "fingerprint": "...", "exact": true,
     "result": {"query": ..., "ucq": [...], "auxiliary": [...],
                "statistics": {...}}}

* ``digest`` is :func:`~repro.cache.checkpoint.compile_digest`, the
  SHA-256 of ``(canonical query key, theory fingerprint)`` — the content
  address of the entry.  All records sharing a digest form one bucket
  (buckets exceed one entry only when two non-variant queries collide on
  a non-exact canonical key).
* ``format`` is the store's on-disk version; records written by an
  incompatible version are skipped (and counted) at load time, never
  misread.
* ``fingerprint`` ties the entry to the exact theory + engine
  configuration that produced it (see :mod:`repro.cache.fingerprint`).
  A theory change gives new queries a new fingerprint, so stale entries
  are unreachable by construction; :meth:`RewritingStore.prune` physically
  removes them.

Appends are flushed line-by-line, so concurrent readers in other
processes pick up completed entries on their next load and a crash can at
worst lose the final line (which the loader then skips as corrupt).

Serving guarantees
------------------

A hit returns a result that is byte-identical (same ``repr``, same SQL)
to the one stored.  Serving it for a *variant* of the original query is
sound because certain answers are invariant under variant rewritings; the
varianthood proof follows the invariants documented in
:mod:`repro.cache`: exact canonical keys prove varianthood by equality
alone, non-exact keys are confirmed against the stored query with
:meth:`~repro.queries.conjunctive_query.ConjunctiveQuery.is_variant_of`.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from ..core.rewriter import RewritingResult
from ..dependencies.tgd import TGD
from ..queries.conjunctive_query import ConjunctiveQuery
from .checkpoint import compile_digest
from .serialization import (
    UnserializableQueryError,
    query_from_json,
    result_from_json,
    result_to_json,
)

logger = logging.getLogger(__name__)


@dataclass
class CacheStatistics:
    """Counters describing a :class:`RewritingStore`'s behaviour.

    ``exact_hits`` counts hits proven by digest equality alone (both the
    probe and the entry had discrete canonical colourings);
    ``confirmations`` counts explicit variant checks against stored
    queries; ``collisions`` counts probes whose bucket was non-empty yet
    held no variant; ``skipped_records`` counts on-disk records ignored at
    load time (corrupt or written by another format version).
    """

    lookups: int = 0
    hits: int = 0
    exact_hits: int = 0
    confirmations: int = 0
    collisions: int = 0
    misses: int = 0
    stores: int = 0
    uncacheable: int = 0
    skipped_records: int = 0
    pruned: int = 0
    evicted: int = 0


class RewritingStore:
    """A disk-backed map ``(canonical query key, theory fingerprint) → rewriting``.

    Parameters
    ----------
    directory:
        The store directory (created if missing).  Several theories may
        share one store: entries are segregated by fingerprint.
    max_entries:
        Optional LRU bound on the number of stored records.  When an
        append pushes the store past the bound, the least-recently-served
        entries are evicted from the in-memory index immediately; the
        file itself is rewritten (atomically) only once it holds twice
        the bound, so a workload of M puts costs O(M) amortised writes
        instead of one full rewrite per put.  Between rewrites the file
        may transiently hold up to ``2 * max_entries`` records; reopening
        the store re-applies the bound.  One caveat: re-putting an entry
        whose evicted record still sits in the file forces an immediate
        purge, so a workload *cycling* through a working set larger than
        the bound thrashes (as any LRU does) — pick a bound that covers
        the hot set.  Recency is *persistent*: every serve appends a
        ``timestamp digest`` line to a sidecar ``recency.log``, so a later
        process — e.g. ``repro cache compact`` — evicts true-LRU across
        process boundaries.  Entries never recorded in the log rank by
        their position in the JSON-lines file (oldest-first), below every
        logged entry.
    """

    #: On-disk format version; bump on any incompatible record change.
    FORMAT_VERSION = 1
    #: Name of the JSON-lines file inside the store directory.
    FILENAME = "rewritings.jsonl"
    #: Sidecar append-only log of serve times (``"<unix-time> <digest>"``
    #: lines); best-effort — losing it only degrades eviction to
    #: oldest-first, never correctness.
    RECENCY_FILENAME = "recency.log"

    def __init__(
        self, directory: str | os.PathLike, max_entries: int | None = None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._path = self._directory / self.FILENAME
        self._index: dict[str, list[dict]] = {}
        # Re-entrant: put() holds it across _touch, which may fold the
        # recency log back and needs it too.
        self._lock = threading.RLock()
        self.statistics = CacheStatistics()
        self._needs_newline = False
        # Byte length of a torn trailing record found during load; the
        # next put() truncates it away (it must never become a trusted
        # interior line once a newline lands after it).
        self._torn_tail_bytes = 0
        self._max_entries = max_entries
        # Recency rank per digest: ``(persisted timestamp, sequence)``.
        # Unlogged entries carry timestamp 0.0 and rank by file position,
        # so any entry with a persisted serve time outranks all of them.
        self._recency: dict[str, tuple[float, int]] = {}
        self._ticks = 0
        self._file_records = 0
        self._recency_path = self._directory / self.RECENCY_FILENAME
        self._recency_handle = None
        self._recency_lines = 0
        # Digests evicted from the index whose records still sit in the
        # (lazily rewritten) file; re-appending one of these without a
        # purge first would leave duplicate records on disk.
        self._ghost_digests: set[str] = set()
        self._load()
        self._load_recency()
        self._file_records = len(self)
        if max_entries is not None:
            with self._lock:
                self.statistics.evicted += self._evict_locked(max_entries)

    # -- basic accessors ---------------------------------------------------

    @property
    def path(self) -> Path:
        """Path of the underlying JSON-lines file."""
        return self._path

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._index.values())

    def __iter__(self) -> Iterator[dict]:
        """Iterate over the raw records (diagnostics and tooling)."""
        for digest in list(self._index):
            yield from self._bucket(digest)

    def results_for(
        self, fingerprint: str, rules: Sequence[TGD] = ()
    ) -> Iterator[tuple[ConjunctiveQuery, RewritingResult]]:
        """Yield ``(query, result)`` for every record under *fingerprint*.

        Oldest first, in file order.  Records that no longer decode are
        skipped.  *rules* is attached to each result, as in :meth:`get`.
        """
        for record in self:
            if record.get("fingerprint") != fingerprint:
                continue
            try:
                query = query_from_json(record["result"]["query"])
                result = result_from_json(record["result"], rules)
            except (KeyError, ValueError, TypeError):
                continue
            yield query, result

    @property
    def fingerprints(self) -> frozenset[str]:
        """The distinct theory fingerprints present in the store."""
        return frozenset(record["fingerprint"] for record in self)

    @property
    def max_entries(self) -> int | None:
        """The LRU bound on stored records (``None`` = unbounded)."""
        return self._max_entries

    def _touch(self, digest: str) -> None:
        """Mark *digest* as most recently served/stored, and persist it.

        The serve time is appended to ``recency.log`` so the LRU order
        survives the process — a store opened later (another worker,
        ``repro cache compact``) evicts what *actually* went unserved
        longest, not merely what was written first.
        """
        self._ticks += 1
        stamp = time.time()
        self._recency[digest] = (stamp, self._ticks)
        try:
            if self._recency_handle is None:
                self._recency_handle = self._recency_path.open("a", encoding="utf-8")
            self._recency_handle.write(f"{stamp:.6f} {digest}\n")
            self._recency_handle.flush()
            self._recency_lines += 1
        except OSError:  # pragma: no cover - recency is best-effort
            self._recency_handle = None
        if self._recency_lines > max(256, 4 * len(self)):
            # Fold the log back to one line per entry.  Serve-only (fully
            # warm) workloads never append records, so the growth bound
            # must live here on the serve path, not just in put().
            with self._lock:
                self._rewrite_recency_locked()

    def _rank(self, digest: str) -> None:
        """Baseline recency of an on-disk record: its file position."""
        self._ticks += 1
        self._recency[digest] = (0.0, self._ticks)

    # -- the map interface -------------------------------------------------

    def get(
        self,
        query: ConjunctiveQuery,
        fingerprint: str,
        rules: Sequence[TGD] = (),
    ) -> RewritingResult | None:
        """Return the stored rewriting of a variant of *query*, if any.

        *rules* is attached to the reloaded result (the store itself only
        certifies them through *fingerprint*).  Returns ``None`` on a
        miss — including the collision case where the bucket holds only
        non-variants of *query*.
        """
        statistics = self.statistics
        statistics.lookups += 1
        exact = query.canonical_fingerprint[1]
        digest = compile_digest(query, fingerprint)
        bucket = self._bucket(digest)
        for record in bucket:
            record_exact = bool(record["exact"])
            if exact and record_exact:
                statistics.hits += 1
                statistics.exact_hits += 1
                self._touch(digest)
                return result_from_json(record["result"], rules)
            if exact != record_exact:
                # Exactness is a variant invariant: a mismatch proves
                # non-varianthood without deserialising the stored query.
                continue
            statistics.confirmations += 1
            stored_query = query_from_json(record["result"]["query"])
            if stored_query.is_variant_of(query):
                statistics.hits += 1
                self._touch(digest)
                return result_from_json(record["result"], rules)
        if bucket:
            statistics.collisions += 1
        statistics.misses += 1
        return None

    def put(
        self, query: ConjunctiveQuery, fingerprint: str, result: RewritingResult
    ) -> bool:
        """Persist *result* under *query*'s canonical key and *fingerprint*.

        Returns ``True`` when a new record was written, ``False`` when an
        entry for a variant of *query* already exists or the query is not
        exactly serialisable (non-scalar constant values).
        """
        exact = query.canonical_fingerprint[1]
        digest = compile_digest(query, fingerprint)
        try:
            payload = result_to_json(result)
        except UnserializableQueryError:
            self.statistics.uncacheable += 1
            return False
        record = {
            "format": self.FORMAT_VERSION,
            "digest": digest,
            "fingerprint": fingerprint,
            "exact": exact,
            "result": payload,
        }
        with self._lock:
            bucket = self._bucket(digest)
            self._index[digest] = bucket
            for existing in bucket:
                if bool(existing["exact"]) == exact:
                    if exact:
                        return False
                    stored_query = query_from_json(existing["result"]["query"])
                    if stored_query.is_variant_of(query):
                        return False
            if digest in self._ghost_digests:
                # The file still holds an evicted record for this digest;
                # purge it first or a reload would double-count the bucket
                # against the bound (and serve the stale record).
                self._rewrite_locked()
            bucket.append(record)
            if self._needs_newline and self._torn_tail_bytes:
                # A previous process crashed mid-append: cut the torn
                # bytes off (they can start like a valid record, so a
                # newline after them would turn garbage into a trusted
                # interior line on the next load).
                size = self._path.stat().st_size
                with self._path.open("rb+") as raw:
                    raw.truncate(max(0, size - self._torn_tail_bytes))
                self._torn_tail_bytes = 0
                self._needs_newline = False
            with self._path.open("a", encoding="utf-8") as handle:
                if self._needs_newline:
                    # The trailing line is complete, just unterminated:
                    # end it so this record starts on a fresh line.
                    handle.write("\n")
                    self._needs_newline = False
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._file_records += 1
            self._touch(digest)
            evicted = 0
            if self._max_entries is not None:
                evicted = self._evict_memory_locked(self._max_entries)
                if evicted and self._file_records >= 2 * self._max_entries:
                    self._rewrite_locked()
        self.statistics.stores += 1
        self.statistics.evicted += evicted
        return True

    def compact(self, max_entries: int | None = None) -> int:
        """Bound the store to its *max_entries* most-recently-served records.

        Evicts least-recently-served entries until at most *max_entries*
        records remain (defaulting to the bound given at construction
        time) and rewrites the JSON-lines file atomically.  Recency is
        the *persisted* serving order replayed from ``recency.log``, so a
        fresh open (e.g. ``repro cache compact`` in a new process) evicts
        true-LRU across processes; entries never served anywhere rank by
        file position below every served one.  Returns the number of
        records removed.
        """
        if max_entries is None:
            max_entries = self._max_entries
        if max_entries is None:
            raise ValueError(
                "compact() needs max_entries (no bound was set at construction)"
            )
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        with self._lock:
            removed = self._evict_locked(max_entries)
            if not removed and (self._needs_newline or self.statistics.skipped_records):
                # Nothing evicted, but the file carries debris — a torn
                # trailing record or skipped lines from a crashed append.
                # Rewriting from the index repairs it for good.
                self._rewrite_locked()
        self.statistics.evicted += removed
        return removed

    def _evict_memory_locked(self, max_entries: int) -> int:
        """Drop LRU buckets from the index until ``len(self) <= max_entries``.

        Must be called with :attr:`_lock` held; does *not* touch the
        file (:meth:`put` rewrites lazily, :meth:`_evict_locked` always).
        Eviction granularity is the digest bucket (buckets exceed one
        record only on canonical-key collisions, which are vanishingly
        rare).
        """
        if len(self) <= max_entries:
            return 0
        removed = 0
        for digest in sorted(
            self._index, key=lambda d: self._recency.get(d, (0.0, 0))
        ):
            if len(self) <= max_entries:
                break
            removed += len(self._index.pop(digest))
            self._recency.pop(digest, None)
            self._ghost_digests.add(digest)
        return removed

    def _evict_locked(self, max_entries: int) -> int:
        """Evict down to *max_entries* and rewrite the file if anything went."""
        removed = self._evict_memory_locked(max_entries)
        if removed:
            self._rewrite_locked()
        return removed

    def _rewrite_locked(self) -> None:
        """Atomically rewrite the JSON-lines file from the in-memory index.

        Must be called with :attr:`_lock` held.  Surviving records keep
        their relative order (the index preserves insertion order);
        records still in their unparsed string form are written back
        verbatim, so compaction never has to parse payloads it is merely
        keeping.
        """
        temporary = self._path.with_suffix(".jsonl.tmp")
        with temporary.open("w", encoding="utf-8") as handle:
            for bucket in self._index.values():
                for record in bucket:
                    if isinstance(record, str):
                        handle.write(record + "\n")
                    else:
                        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        os.replace(temporary, self._path)
        self._needs_newline = False
        self._torn_tail_bytes = 0
        self._file_records = len(self)
        self._ghost_digests.clear()
        self._rewrite_recency_locked()

    def _rewrite_recency_locked(self) -> None:
        """Compact ``recency.log`` to one line per surviving served digest.

        Unserved entries (timestamp 0.0) are omitted — their baseline
        rank is their file position, which the main rewrite just fixed.
        """
        if self._recency_handle is not None:
            self._recency_handle.close()
            self._recency_handle = None
        served = sorted(
            (
                (rank, digest)
                for digest, rank in self._recency.items()
                if digest in self._index and rank[0] > 0.0
            ),
        )
        try:
            temporary = self._recency_path.with_suffix(".log.tmp")
            with temporary.open("w", encoding="utf-8") as handle:
                for (stamp, _), digest in served:
                    handle.write(f"{stamp:.6f} {digest}\n")
            os.replace(temporary, self._recency_path)
            self._recency_lines = len(served)
        except OSError:  # pragma: no cover - recency is best-effort
            pass

    def _load_recency(self) -> None:
        """Replay ``recency.log`` over the file-position baseline ranks.

        Later lines win (the log is append-only, so the last mention of a
        digest is its most recent serve); lines for digests no longer in
        the store — pruned, evicted or compacted away — are ignored.
        """
        if not self._recency_path.exists():
            return
        try:
            lines = self._recency_path.read_text(encoding="utf-8").splitlines()
        except OSError:  # pragma: no cover - recency is best-effort
            return
        self._recency_lines = len(lines)
        for line in lines:
            stamp_text, _, digest = line.strip().partition(" ")
            if not digest or digest not in self._index:
                continue
            try:
                stamp = float(stamp_text)
            except ValueError:
                continue
            self._ticks += 1
            self._recency[digest] = (stamp, self._ticks)
        if self._recency_lines > max(256, 4 * len(self)):
            # A previous serve-heavy process may have exited mid-growth;
            # fold the replayed log down so opens stay O(entries).
            with self._lock:
                self._rewrite_recency_locked()

    def prune(self, keep_fingerprint: str) -> int:
        """Physically drop every entry whose fingerprint differs.

        Entries with other fingerprints are already unreachable for the
        current theory (invalidation is structural); pruning reclaims
        their disk space after a theory change.  Returns the number of
        records removed.  The file is rewritten atomically.
        """
        with self._lock:
            removed = 0
            survivors: dict[str, list[dict]] = {}
            for digest in list(self._index):
                bucket = self._bucket(digest)
                kept = [r for r in bucket if r["fingerprint"] == keep_fingerprint]
                removed += len(bucket) - len(kept)
                if kept:
                    survivors[digest] = kept
            if removed:
                self._index = survivors
                self._recency = {
                    digest: tick
                    for digest, tick in self._recency.items()
                    if digest in survivors
                }
                self._rewrite_locked()
        self.statistics.pruned += removed
        return removed

    # -- internals ---------------------------------------------------------

    #: Fast-path prefix of records exactly as :meth:`put` writes them; used
    #: to index lines by digest at load time without parsing their payload.
    _RECORD_PREFIX = re.compile(r'^\{"format":(\d+),"digest":"([0-9a-f]{64})"')

    def _load(self) -> None:
        """Index the JSON-lines file by digest, deferring payload parsing.

        Entries can hold whole UCQs, so parsing every record eagerly would
        make opening a large store as expensive as the lookups it is meant
        to save; instead each line is indexed by the digest read from its
        prefix and fully parsed only when its bucket is first probed
        (:meth:`_bucket`).  Lines that do not look like records written by
        this module fall back to a full parse here; unreadable or
        wrong-version lines are skipped and counted, never misread.

        A file that does not end in a newline was torn by a crash
        mid-append.  Its final line must not be trusted on prefix alone —
        a truncated record still *starts* like a valid one — so it is
        fully parsed here and skipped (with a log line) when incomplete;
        the next :meth:`put` starts cleanly on a fresh line and
        :meth:`compact` purges the torn bytes from disk.
        """
        if not self._path.exists():
            return
        with self._path.open("rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                self._needs_newline = handle.read(1) != b"\n"
        with self._path.open("r", encoding="utf-8") as handle:
            previous: str | None = None
            for line in handle:
                if previous is not None:
                    self._ingest_line(previous, suspect=False)
                previous = line
            if previous is not None:
                self._ingest_line(previous, suspect=self._needs_newline)

    def _ingest_line(self, line: str, suspect: bool) -> None:
        """Index one JSON-lines record; *suspect* lines are torn-tail
        candidates and must prove themselves by a full parse."""
        raw_bytes = len(line.encode("utf-8"))
        line = line.strip()
        if not line:
            return
        match = self._RECORD_PREFIX.match(line)
        if match is not None and not suspect:
            if int(match.group(1)) != self.FORMAT_VERSION:
                self.statistics.skipped_records += 1
                return
            self._index.setdefault(match.group(2), []).append(line)
            self._rank(match.group(2))
            return
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            self.statistics.skipped_records += 1
            if suspect:
                self._torn_tail_bytes = raw_bytes
                logger.warning(
                    "skipping torn trailing record in %s (crash mid-append); "
                    "compact() will repair the file",
                    self._path,
                )
            return
        if (
            not isinstance(record, dict)
            or record.get("format") != self.FORMAT_VERSION
            or "digest" not in record
            or "result" not in record
        ):
            self.statistics.skipped_records += 1
            return
        self._index.setdefault(record["digest"], []).append(record)
        self._rank(record["digest"])

    def _bucket(self, digest: str) -> list[dict]:
        """The fully parsed records of one bucket (parsing them on first use)."""
        bucket = self._index.get(digest)
        if bucket is None:
            return []
        if all(isinstance(record, dict) for record in bucket):
            return bucket
        parsed: list[dict] = []
        for record in bucket:
            if isinstance(record, str):
                try:
                    record = json.loads(record)
                except json.JSONDecodeError:
                    self.statistics.skipped_records += 1
                    continue
                if not isinstance(record, dict) or "result" not in record:
                    self.statistics.skipped_records += 1
                    continue
            parsed.append(record)
        self._index[digest] = parsed
        return parsed
