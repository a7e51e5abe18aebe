"""Frontier checkpoints: resume a killed rewriting instead of restarting.

Between generations, the frontier kernel's :class:`~repro.core.frontier.
KernelState` fully describes a rewriting run: the interned CQs (with their
Algorithm 1 labels and insertion order), the pending frontier, the
generation counter and the deterministic statistics.  A
:class:`FrontierCheckpoint` persists exactly that to one JSON file after
each completed generation, so a compilation killed at generation ``n``
resumes from ``n`` rather than from scratch — and because the kernel's
merge order is deterministic, the resumed run finishes with a result
byte-identical to an uninterrupted one (pinned by
``tests/cache/test_checkpoint.py``).

Validity is structural, like the rewriting store's: the checkpoint records
the theory fingerprint (rules + engine options + engine version, see
:mod:`repro.cache.fingerprint`) and the exact serialised input query.
Loading against a different engine or query returns ``None`` — the run
simply starts fresh — so a stale checkpoint file can never corrupt a
result.  Writes are atomic (temp file + ``os.replace``); a crash while
checkpointing leaves the previous checkpoint intact.

Inside a checkpoint directory each compile's file is named by
:func:`compile_digest` (:meth:`FrontierCheckpoint.for_query`).  The
serving tier and :meth:`repro.api.OBDASystem.compile_many` both name
files this way, so a compile killed under one resumes under the other.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.frontier import KernelState, RewriteFrontier
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import InterningStatistics, QuerySet
from .fingerprint import theory_fingerprint
from .serialization import (
    UnserializableQueryError,
    query_from_json,
    query_to_json,
    statistics_from_json,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.rewriter import TGDRewriter

logger = logging.getLogger(__name__)


def compile_digest(query: ConjunctiveQuery, fingerprint: str) -> str:
    """Content address of one compilation: canonical key + fingerprint.

    Names the checkpoint file and the serving tier's single-flight key, so
    variants of one query coalesce onto one compile and one resumable
    checkpoint, exactly as they share one entry in the rewriting store.
    """
    key, _ = query.canonical_fingerprint
    payload = f"{fingerprint}\n{key!r}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class FrontierCheckpoint:
    """Persist the kernel state of a rewriting run between generations.

    Parameters
    ----------
    path:
        The checkpoint file.  One checkpoint describes one ``(engine,
        query)`` run; reusing the path for a different run overwrites it.

    The rewriter drives the protocol: :meth:`load` at the start of
    :meth:`~repro.core.rewriter.TGDRewriter.rewrite` (resume if the file
    matches), :meth:`save` after each merged generation, so a kill loses
    at most the generation it interrupted, and :meth:`clear` once the
    rewriting completes.
    """

    #: On-disk checkpoint format; bump on any incompatible change.
    #: Version 2: entries are union-CQs, whose collapsed atoms are over
    #: marked predicates (:mod:`repro.core.closures`).
    FORMAT_VERSION = 2

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = Path(path)
        self.saves = 0
        self.save_failures = 0
        self.resumed_generation: int | None = None

    @classmethod
    def for_query(
        cls,
        directory: str | os.PathLike,
        fingerprint: str,
        query: ConjunctiveQuery,
    ) -> "FrontierCheckpoint":
        """The checkpoint of *query*'s compile inside *directory*.

        The file is ``<compile_digest>.json``: one name per ``(theory
        fingerprint, canonical key)``, whoever runs the compile.
        """
        digest = compile_digest(query, fingerprint)
        return cls(Path(directory) / f"{digest}.json")

    @property
    def path(self) -> Path:
        """The checkpoint file path."""
        return self._path

    def _fingerprint(self, rewriter: "TGDRewriter") -> str:
        """The engine fingerprint a checkpoint is valid for.

        Negative constraints are hashed whenever the engine holds a pruner
        (pruning changes which candidates survive expansion), mirroring
        what :func:`repro.cache.fingerprint.theory_fingerprint` covers for
        stored rewritings.
        """
        return theory_fingerprint(
            rewriter.rules,
            rewriter.negative_constraints,
            use_elimination=rewriter.uses_elimination,
            use_nc_pruning=rewriter.uses_nc_pruning,
        )

    def save(
        self, rewriter: "TGDRewriter", query: ConjunctiveQuery, state: KernelState
    ) -> bool:
        """Atomically persist *state*; returns ``False`` if unsaveable.

        Queries holding non-scalar constants cannot round-trip through
        JSON exactly (the same restriction the rewriting store has); such
        runs simply proceed uncheckpointed.  A filesystem failure (disk
        full, permissions yanked mid-run) likewise degrades to ``False``
        rather than aborting a compile whose in-memory progress is fine.
        """
        entries = list(state.store)
        positions = {id(entry): index for index, entry in enumerate(entries)}
        try:
            payload = {
                "format": self.FORMAT_VERSION,
                "fingerprint": self._fingerprint(rewriter),
                "query": query_to_json(query),
                "generation": state.frontier.generation,
                "entries": [
                    {"query": query_to_json(entry), "label": state.labels[entry]}
                    for entry in entries
                ],
                "frontier": [
                    positions[id(pending)] for pending in state.frontier.pending
                ],
                "statistics": asdict(state.statistics),
                "interning": asdict(state.store.statistics),
            }
        except UnserializableQueryError:
            return False
        temporary = self._path.with_name(self._path.name + ".tmp")
        try:
            temporary.parent.mkdir(parents=True, exist_ok=True)
            with temporary.open("w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(temporary, self._path)
        except OSError as error:
            logger.warning("checkpoint save to %s failed: %s", self._path, error)
            self.save_failures += 1
            return False
        self.saves += 1
        return True

    def load(
        self, rewriter: "TGDRewriter", query: ConjunctiveQuery
    ) -> KernelState | None:
        """Rebuild the kernel state, or ``None`` when no valid checkpoint fits.

        ``None`` covers every benign mismatch — no file, unreadable JSON,
        another format version, a different engine fingerprint, or a
        different input query — so callers can always pass a checkpoint
        and let the run start fresh when it does not apply.
        """
        try:
            payload = json.loads(self._path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != self.FORMAT_VERSION
            or payload.get("fingerprint") != self._fingerprint(rewriter)
        ):
            return None
        try:
            stored_query = query_from_json(payload["query"])
            if stored_query != query:
                return None
            store = QuerySet()
            labels: dict[ConjunctiveQuery, int] = {}
            entries: list[ConjunctiveQuery] = []
            for record in payload["entries"]:
                entry = query_from_json(record["query"])
                interned, inserted = store.intern(entry)
                if not inserted:  # pragma: no cover - corrupt checkpoint
                    return None
                labels[interned] = int(record["label"])
                entries.append(interned)
            pending = [entries[index] for index in payload["frontier"]]
            statistics = statistics_from_json(payload["statistics"])
            # The rebuild's own interning probes polluted the counters;
            # restore the persisted values so a resumed run's final
            # statistics equal an uninterrupted run's.
            store.statistics = InterningStatistics(**payload["interning"])
        except (KeyError, IndexError, TypeError, ValueError):
            return None
        generation = int(payload["generation"])
        self.resumed_generation = generation
        return KernelState(
            store=store,
            labels=labels,
            frontier=RewriteFrontier(pending, generation=generation),
            statistics=statistics,
        )

    def clear(self) -> None:
        """Remove the checkpoint file (called when the run completes).

        Tolerates any filesystem failure, like :meth:`save`: a compile
        that finished must never be failed by its cleanup.
        """
        try:
            self._path.unlink()
        except OSError:
            pass
