"""Polka-style contention management: exponential backoff + priorities.

The classic software-TM contention manager (Scherer & Scott's *Polka*),
transplanted onto the TLR hardware decision point: every transaction
carries a **priority** that accumulates with each abort (work lost),
and a conflict is won by the higher-priority side.  Losers do not spin
on the winner -- they back off for exponentially growing windows, so a
transaction that keeps losing eventually either outwaits its enemies
or out-prioritizes them.

Priority deliberately does *not* rise on a mere NACK.  A nacked
requester lost nothing yet, and bumping it would let two requesters
that hold each other's lines escalate in lockstep: each refusal raises
the local priority, which makes the opponent's in-flight request (with
its now-stale stamped priority) look weaker, so both sides refuse
forever -- mutual starvation the watchdog duly flags.  With
abort-count priorities the win relation only moves when somebody
actually restarts, and ties stay broken by the timestamp total order.

Retention is NACK-based (the holder refuses requests it wins at the
snoop); once a request is ordered and the holder cannot refuse it, it is
deferred only when doing so cannot deadlock (the holder has no other
transactional miss outstanding -- a deferring node that never waits
cannot be part of a wait cycle), otherwise the holder concedes.
Priority ties are broken by timestamp so the win relation stays a total
order at any instant.
"""

from __future__ import annotations

from typing import Optional

from repro.coherence.messages import BusRequest, beats
from repro.policies.base import (ConflictContext, ContentionPolicy,
                                 PolicyDecision)

#: Caps on the exponential schedules (exponents, not cycles).
_MAX_NACK_EXP = 6
_MAX_RESTART_EXP = 8


class BackoffAborts(ContentionPolicy):
    """Higher accumulated priority wins; losers back off exponentially.

    Guarantees: probabilistic progress -- growing backoff windows plus
    monotone priority make sustained mutual aborts vanishingly unlikely,
    without global timestamp plumbing.  Forfeits: the paper's *determin-
    istic* starvation freedom; fairness is only statistical.
    """

    name = "backoff"
    ordering = "priority"
    uses_nack = True

    def __init__(self, config, cpu_id: int):
        super().__init__(config, cpu_id)
        self.priority = 0
        self._nack_streak = 0

    # ------------------------------------------------------------------
    def _requester_wins(self, ctx: ConflictContext) -> bool:
        if ctx.requester_prio != self.priority:
            return ctx.requester_prio > self.priority
        return beats(ctx.requester_ts, ctx.holder_ts)

    def resolve(self, ctx: ConflictContext) -> PolicyDecision:
        if self._requester_wins(ctx):
            return PolicyDecision.ABORT_HOLDER
        if ctx.at_snoop:
            return PolicyDecision.NACK_RETRY
        if ctx.holder_has_miss:
            # Deferring while waiting on another miss could close a wait
            # cycle that priorities (unlike timestamps) cannot order
            # away; concede instead.
            return PolicyDecision.ABORT_HOLDER
        return PolicyDecision.DEFER

    def must_release_before_miss(self, deferred, holder_ts) -> bool:
        # Mirror image of the resolve() rule: never hold deferrals
        # across a new transactional miss.
        return bool(deferred)

    # ------------------------------------------------------------------
    # Lifecycle: priority accumulation across retries
    # ------------------------------------------------------------------
    def on_restart(self, reason: str, attempts: int) -> None:
        super().on_restart(reason, attempts)
        self.priority += 1

    def on_nacked(self, request: BusRequest) -> None:
        self._nack_streak += 1

    def on_commit(self) -> None:
        super().on_commit()
        self.priority = 0
        self._nack_streak = 0

    # ------------------------------------------------------------------
    # Pacing: exponential schedules
    # ------------------------------------------------------------------
    def nack_delay(self, request: BusRequest) -> int:
        base = self.config.spec.nack_retry_delay
        return base * (2 ** min(self._nack_streak, _MAX_NACK_EXP))

    def backoff_for(self, attempts: int) -> Optional[int]:
        spec = self.config.spec
        return spec.misspec_penalty + spec.restart_backoff_step * (
            2 ** min(max(0, attempts - 1), _MAX_RESTART_EXP))

    def request_priority(self) -> int:
        return self.priority

    def telemetry(self) -> dict:
        data = super().telemetry()
        data["priority"] = self.priority
        data["nack_streak"] = self._nack_streak
        return data
