"""Contention-policy interface.

The paper's TLR algorithm resolves every transactional conflict one way:
timestamp order decides the winner, the loser is deferred or restarted.
That decision point is narrow -- a handful of call sites inside
:class:`~repro.coherence.controller.CacheController` -- but the design
space behind it is wide (Section 2.2's defer-vs-abort choice for
untimestamped requests, Section 3's deferral-vs-NACK retention, and the
whole later TM literature of requester-wins HTMs and backoff-based
contention managers).  :class:`ContentionPolicy` makes the decision point
a first-class interface so those alternatives run on the *same* machine,
sweep engine and verification oracle as the paper's policy.

A policy sees each conflict as a :class:`ConflictContext` -- requester
and holder timestamps, the line, the transactional state, retry counts --
and answers with a :class:`PolicyDecision`.  The controller stays the
owner of all protocol mechanics (deferred queue, markers/probes, NACK
transport, restart plumbing); the policy only picks winners and paces
retries.  ``resolve`` must therefore be side-effect-free on coherence
state: lifecycle bookkeeping belongs in the ``on_restart``/``on_commit``/
``on_nacked`` hooks.

Each policy also *declares* its ordering contract (``ordering``), which
the verify-layer deferral monitor checks runs against: ``"timestamp"``
(deferrals must follow the paper's timestamp rules), ``"priority"``
(deferrals must follow accumulated request priority) or ``"none"`` (the
policy never defers, so any deferral is a bug).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.coherence.messages import Timestamp, beats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.coherence.messages import BusRequest
    from repro.harness.config import SystemConfig


class PolicyDecision(enum.Enum):
    """What to do with a conflicting incoming request."""

    DEFER = "defer"                      # buffer it; answer at commit
    NACK_RETRY = "nack-retry"            # refuse it (snoop time only)
    ABORT_REQUESTER = "abort-requester"  # serve, but kill the requester
    ABORT_HOLDER = "abort-holder"        # the local transaction loses


@dataclass(frozen=True, slots=True)
class ConflictContext:
    """One conflict, as seen by the transaction *holding* the data."""

    line: int
    requester: int
    holder: int
    requester_ts: Optional[Timestamp]
    holder_ts: Optional[Timestamp]
    is_write: bool           # the incoming request wants the line writable
    holder_wrote: bool       # the holder speculatively wrote the line
    relaxation_ok: bool      # Section 3.2 single-block preconditions hold
    requester_prio: int = 0  # accumulated priority carried by the request
    holder_has_miss: bool = False  # holder has other transactional misses
    at_snoop: bool = False   # decided at the snoop (NACK still possible)
    now: int = 0


class ContentionPolicy:
    """Base class: the paper-default hooks every policy inherits.

    One instance lives per :class:`CacheController` (policies may carry
    per-processor state such as accumulated priority), constructed by
    :func:`repro.policies.make_policy` from the run's config.
    """

    #: Registry name (``SpeculationConfig.contention_policy`` value).
    name = "abstract"
    #: Ordering contract the deferral monitor validates against:
    #: "timestamp" | "priority" | "none".
    ordering = "timestamp"
    #: Whether the controller consults the policy at snoop time for
    #: NACK-based retention (requires protocol NACK support).
    uses_nack = False

    def __init__(self, config: "SystemConfig", cpu_id: int):
        self.config = config
        self.cpu_id = cpu_id
        self.retries = 0

    # ------------------------------------------------------------------
    # The conflict decision
    # ------------------------------------------------------------------
    def resolve(self, ctx: ConflictContext) -> PolicyDecision:
        """Pick an outcome for one conflict.  Must be side-effect-free."""
        raise NotImplementedError

    #: ``probe_beats(probe_ts, holder_ts)``: does a probe championing
    #: ``probe_ts`` defeat the holder?  (Probes re-evaluate chain
    #: conflicts; Section 3.1.1.)  The paper's rule is plain timestamp
    #: order, bound directly so a probe's judgement is one call.
    probe_beats = staticmethod(beats)

    def must_release_before_miss(self, deferred, holder_ts) -> bool:
        """Must the holder release its deferred queue before taking a
        new miss?  The paper's rule: yes when a relaxation-deferred
        *earlier* request is held (Section 3.2's deadlock-avoidance)."""
        earliest = deferred.earliest_ts()
        return earliest is not None and beats(earliest, holder_ts)

    # ------------------------------------------------------------------
    # Lifecycle hooks (bookkeeping lives here, not in resolve())
    # ------------------------------------------------------------------
    def on_restart(self, reason: str, attempts: int) -> None:
        """The local transaction restarted (``attempts`` consecutive)."""
        self.retries = attempts

    def on_commit(self) -> None:
        """The local transaction committed."""
        self.retries = 0

    def on_nacked(self, request: "BusRequest") -> None:
        """Our own request was refused with a NACK."""

    # ------------------------------------------------------------------
    # Pacing
    # ------------------------------------------------------------------
    def backoff_for(self, attempts: int) -> Optional[int]:
        """Cycles to wait before restarting after ``attempts``
        consecutive losses.  None selects the processor's built-in
        linear backoff (the behavior-preserving default)."""
        return None

    def nack_delay(self, request: "BusRequest") -> int:
        """Cycles a NACKed requester waits before re-arbitrating."""
        return self.config.spec.nack_retry_delay

    def request_priority(self) -> int:
        """Priority stamped on requests issued while speculating."""
        return 0

    def should_fallback(self, attempts: int) -> bool:
        """After ``attempts`` failed speculation attempts, acquire the
        lock for real instead of retrying?  (TLR's answer: never --
        timestamps guarantee progress.)"""
        return False

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def telemetry(self) -> dict:
        """End-of-run numeric state, exported as ``policy.<key>`` gauges
        by :class:`repro.obs.MachineMetrics`.  Policies may accumulate
        telemetry tallies inside ``resolve`` (counting its verdicts
        never feeds back into a decision, so the side-effect-free
        contract on *coherence state* is preserved)."""
        return {"retries": self.retries}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} cpu{self.cpu_id}>"
