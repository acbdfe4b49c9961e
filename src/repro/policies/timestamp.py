"""The paper's policy: timestamp-ordered conflict deferral.

A behavior-preserving extraction of the decision logic that previously
lived inline in the cache controller: with
``contention_policy="timestamp"`` (the default), run fingerprints are
bit-identical to the pre-refactor controller.
"""

from __future__ import annotations

from repro.coherence.messages import beats
from repro.policies.base import (ConflictContext, ContentionPolicy,
                                 PolicyDecision)


class TimestampDeferral(ContentionPolicy):
    """Earlier timestamp wins; the loser is deferred or restarts.

    * An **untimestamped** request (issued outside any transaction) is
      treated per Section 2.2: deferred as-if-latest-timestamp under the
      default ``untimestamped_policy="defer"``, or it kills the
      speculation under ``"abort"``.
    * A **later**-timestamped request is deferred (the holder wins).
    * An **earlier**-timestamped request makes the holder lose -- unless
      the Section 3.2 single-block relaxation applies, in which case it
      too may be deferred (deadlock is impossible with one block under
      conflict and no other miss outstanding).

    Guarantees: starvation freedom (the earliest timestamp always
    succeeds) without ever acquiring the lock.  Forfeits: needs
    timestamp plumbing (markers/probes) in the protocol.
    """

    name = "timestamp"
    ordering = "timestamp"
    uses_nack = False

    def __init__(self, config, cpu_id: int):
        super().__init__(config, cpu_id)
        #: Conflicts an *earlier*-timestamped requester would have won
        #: that the Section 3.2 single-block relaxation deferred anyway.
        self.relaxation_deferrals = 0

    def resolve(self, ctx: ConflictContext) -> PolicyDecision:
        if ctx.requester_ts is None:
            if self.config.spec.untimestamped_policy == "abort":
                return PolicyDecision.ABORT_HOLDER
            return PolicyDecision.DEFER
        if beats(ctx.requester_ts, ctx.holder_ts):
            if ctx.relaxation_ok:
                self.relaxation_deferrals += 1
                return PolicyDecision.DEFER
            return PolicyDecision.ABORT_HOLDER
        return PolicyDecision.DEFER

    def telemetry(self) -> dict:
        data = super().telemetry()
        data["relaxation_deferrals"] = self.relaxation_deferrals
        return data
