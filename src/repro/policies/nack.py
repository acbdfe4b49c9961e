"""NACK-based ownership retention (the alternative of Section 3).

Same timestamp order as :class:`TimestampDeferral`, different retention
mechanism: at the snoop, a conflict the holder wins is refused with a
negative acknowledgement, forcing the requester to back off and
re-arbitrate (needs NACK support in the protocol).  Once a request is
past its order point a NACK is no longer possible -- the **chained
request corner**: when the holder lacks the data at order time (its own
fill is still in flight), the conflicting request chains behind the miss
and is retained by *deferral*, exactly as under the paper's policy.
"""

from __future__ import annotations

from repro.policies.base import ConflictContext, PolicyDecision
from repro.policies.timestamp import TimestampDeferral


class NackRetention(TimestampDeferral):
    """Timestamp order, retained by NACK at the snoop.

    Guarantees: the same timestamp-order starvation freedom as deferral.
    Forfeits: protocol NACK support, and retry traffic the deferred
    input queue avoids.
    """

    name = "nack"
    ordering = "timestamp"
    uses_nack = True

    def __init__(self, config, cpu_id: int):
        super().__init__(config, cpu_id)
        #: Conflicts retained by a snoop-time refusal (vs. the deferral
        #: fallback past the order point).
        self.snoop_refusals = 0

    def resolve(self, ctx: ConflictContext) -> PolicyDecision:
        decision = super().resolve(ctx)
        if ctx.at_snoop and decision is PolicyDecision.DEFER:
            self.snoop_refusals += 1
            return PolicyDecision.NACK_RETRY
        return decision

    def telemetry(self) -> dict:
        data = super().telemetry()
        data["snoop_refusals"] = self.snoop_refusals
        return data
