"""Theory fingerprints: what a cached rewriting is valid *for*.

A persisted rewriting may be served to a later process only when that
process would have computed the same UCQ (up to variable renaming).  The
rewriting output of :class:`repro.core.rewriter.TGDRewriter` is a function
of

* the TGD set Σ (as a *set*: rule order never changes which CQs are
  produced, and renaming a rule's variables never changes anything),
* the negative constraints Σ⊥ when NC pruning is on,
* the engine options — query elimination (``TGD-rewrite*`` versus plain
  ``TGD-rewrite``) and NC pruning, and
* the algorithm itself, represented here by :data:`ENGINE_VERSION`.

:func:`theory_fingerprint` hashes exactly these inputs, canonicalising each
rule modulo variable renaming and sorting the rule serialisations so that
two theories that differ only in presentation (rule order, variable names,
labels) share a fingerprint, while any semantic change — a TGD added or
removed, a constraint edited, an optimisation toggled — produces a fresh
one.  Cache invalidation on theory change is therefore automatic: stale
entries keep their old fingerprint and never match again (and can be
physically dropped with :meth:`repro.cache.store.RewritingStore.prune`).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from ..dependencies.constraints import NegativeConstraint
from ..dependencies.tgd import TGD
from ..logic.unification import atom_sequence_profile

#: Bump whenever a change to the rewriting engine alters its *output*
#: (not merely its speed): every persisted entry keyed under the old
#: version silently becomes stale.  Version 2: the frontier kernel
#: explores generations breadth-first, which changes the representatives
#: and insertion order of stored UCQs (sizes are unchanged).  Version 3:
#: candidates that are dead ends over internal predicates
#: (:mod:`repro.core.dead_ends`) are dropped when keyed, so stored
#: results of theories with multi-head or multi-existential rules list
#: fewer auxiliary queries and smaller counters, plus the new
#: ``pruned_dead_ends`` counter (their UCQs are byte-identical).
#: Version 4: the kernel explores union-CQs over renaming closures
#: (:mod:`repro.core.closures`) and unfolds them at the end, so a stored
#: UCQ holds the same members in another order (members of one union-CQ
#: together, in closure order), its statistics count union-CQs, and its
#: auxiliary queries are the label-0 and internal union-CQs in their
#: root form, collapsed atoms marked ``⊔``.
ENGINE_VERSION = 4


def rule_signature(rule: TGD) -> str:
    """A renaming-invariant textual signature of one TGD.

    Built on :func:`repro.logic.unification.atom_sequence_profile` over
    the concatenated body and head (so frontier variables are numbered
    consistently across both), prefixed with the body length to keep the
    body/head split unambiguous.  Two rules that are equal modulo
    variable renaming — and therefore interchangeable for rewriting —
    share a signature.  The cosmetic ``label`` is deliberately excluded.
    """
    profile = atom_sequence_profile(tuple(rule.body) + tuple(rule.head))
    return repr(("tgd", len(rule.body), profile))


def constraint_signature(constraint: NegativeConstraint) -> str:
    """A renaming-invariant textual signature of one negative constraint."""
    return repr(("nc", atom_sequence_profile(constraint.body)))


def theory_fingerprint(
    rules: Sequence[TGD],
    negative_constraints: Sequence[NegativeConstraint] = (),
    *,
    use_elimination: bool = False,
    use_nc_pruning: bool = False,
    engine_version: int = ENGINE_VERSION,
) -> str:
    """SHA-256 fingerprint of everything a rewriting's output depends on.

    The fingerprint is invariant under rule reordering and variable
    renaming, and sensitive to every semantic change: adding or removing a
    TGD or NC, editing an atom, or toggling ``use_elimination`` /
    ``use_nc_pruning``.  Negative constraints only influence the output
    when pruning is enabled, so they are hashed only in that case —
    attaching NCs to a pruning-disabled system does not orphan its cache.
    """
    payload = [
        f"engine:{engine_version}",
        f"elimination:{bool(use_elimination)}",
        f"nc_pruning:{bool(use_nc_pruning)}",
    ]
    payload.extend(sorted(rule_signature(rule) for rule in rules))
    if use_nc_pruning:
        payload.extend(
            sorted(constraint_signature(nc) for nc in negative_constraints)
        )
    digest = hashlib.sha256("\n".join(payload).encode("utf-8"))
    return digest.hexdigest()
