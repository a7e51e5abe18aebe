"""Incremental answer maintenance over the instance change log.

Standing queries for the serving tier: a compiled UCQ rewriting is a
non-recursive relational query, so its answer set can be *maintained*
under single-tuple inserts and deletes instead of recomputed.  One answer
set is kept over the joins the rewriting factors into: semi-naive pinned
deltas for inserts, DRed-style over-delete + rederive against the whole
union for deletes, both run as delta rules whose join orders are planned
once and reused across polls, and an unconditional fallback to full
re-execution — the plan's own ``execute`` — whenever the change log
cannot vouch for the delta.

Modules
-------
:mod:`~repro.incremental.view`
    The pre-deletion overlay view used by the delete pass.
:mod:`~repro.incremental.maintain`
    :class:`MaintainedAnswerSet` — the maintenance algorithm itself.
:mod:`~repro.incremental.subscriptions`
    Cursor bookkeeping for the serving tier's subscribe/poll surface.
"""

from .maintain import (
    AnswerDelta,
    MaintainedAnswerSet,
    MaintenanceCounters,
    derives,
    pinned_answers,
    unify_fact,
)
from .subscriptions import (
    PollResult,
    Subscription,
    SubscriptionPool,
    UnknownSubscriptionError,
)
from .view import OverlayInstance

__all__ = [
    "AnswerDelta",
    "MaintainedAnswerSet",
    "MaintenanceCounters",
    "OverlayInstance",
    "PollResult",
    "Subscription",
    "SubscriptionPool",
    "UnknownSubscriptionError",
    "derives",
    "pinned_answers",
    "unify_fact",
]
