"""Deferral machinery (paper Section 3).

A TLR processor that wins a conflict does not NACK the loser; it *defers*
the loser's request -- buffers it in a hardware queue at the coherence
controller and masks the conflict, responding only after its transaction
commits (or after it loses a later conflict).  Coherence-wise the
transaction has already been ordered; only the data response is delayed.

``DeferredQueue`` is that hardware queue.  Entries are serviced strictly
in arrival order (the paper: "service earlier deferred requests in-order
and then service the conflicting incoming request").  At most one entry
per line can exist because bus order hands line ownership to the first
requester -- later requesters chain behind *it*, not behind us.

``ChainState`` tracks the marker/probe bookkeeping of Section 3.1.1 for
one outstanding miss: the upstream neighbour a marker taught us, and any
probe timestamps that arrived before the marker did (flushed upstream as
soon as the neighbour becomes known).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.coherence.messages import BusRequest, Timestamp


@dataclass(slots=True)
class DeferredEntry:
    """One deferred incoming request."""

    request: BusRequest
    arrival: int          # simulated time the deferral decision was made

    @property
    def line(self) -> int:
        return self.request.line


class DeferredQueue:
    """The deferred coherence input queue of paper Figure 5."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._entries: list[DeferredEntry] = []

    def push(self, request: BusRequest, now: int) -> None:
        if request.kind.is_write and any(
                e.line == request.line and e.request.kind.is_write
                for e in self._entries):
            # Bus order hands a line's ownership to the first exclusive
            # requester, so later writers chain behind *it*, never here.
            raise RuntimeError(
                f"second exclusive deferral for line {request.line:#x}")
        if len(self._entries) >= self.capacity:
            raise RuntimeError("deferred queue overflow")
        self._entries.append(DeferredEntry(request, now))

    def drain(self) -> list[DeferredEntry]:
        """Remove and return all entries in arrival order."""
        entries, self._entries = self._entries, []
        return entries

    def entries(self) -> tuple[DeferredEntry, ...]:
        """Read-only view of the queued entries in arrival order (used
        by the invariant monitors to build the global waits-for graph
        without reaching into queue internals)."""
        return tuple(self._entries)

    def requesters(self) -> set[int]:
        """CPU ids whose requests are currently buffered here -- i.e.
        the processors *waiting on* this controller's transaction."""
        return {e.request.requester for e in self._entries}

    def lines(self) -> set[int]:
        return {e.line for e in self._entries}

    def has_line(self, line: int) -> bool:
        """Allocation-free membership test (hot: consulted on every miss
        and probe while speculating; the queue is nearly always tiny)."""
        for e in self._entries:
            if e.request.line == line:
                return True
        return False

    def only_line(self, line: int) -> bool:
        """True when every queued entry (if any) targets ``line`` --
        the allocation-free form of ``lines() <= {line}``."""
        for e in self._entries:
            if e.request.line != line:
                return False
        return True

    def earliest_ts(self) -> Optional[Timestamp]:
        stamps = [e.request.ts for e in self._entries
                  if e.request.ts is not None]
        return min(stamps) if stamps else None

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)


@dataclass(slots=True)
class ChainState:
    """Marker/probe bookkeeping for one line's outstanding miss.

    ``queue_probe`` is the one forwarding rule, used by the controller's
    ``handle_probe`` and ``_chain_behind_miss``.  A probe travels as the
    event arguments ``(line, ts, origin)`` and a marker as ``(line,
    sender, req_id)``; no message object exists unless an observer
    subscribed to its tap.  Probes are *not* deduplicated: one can land
    while its target is mid-restart and be ignored, so waiters re-probe
    on a watchdog period until their miss completes.  Probes travel
    strictly upstream along marker edges, so a receipt causes at most one
    forward and no loop, but every receipt is forwarded: probes are two
    thirds of a 64-CPU directory run's events.
    """

    upstream: Optional[int] = None
    pending_probes: list[Timestamp] = field(default_factory=list)

    def learn_upstream(self, node: int) -> list[Timestamp]:
        """Record the marker sender; return probes awaiting forwarding."""
        self.upstream = node
        pending, self.pending_probes = self.pending_probes, []
        return pending

    def queue_probe(self, ts: Timestamp) -> bool:
        """Returns True when the probe can be forwarded now; otherwise
        holds it until the upstream neighbour becomes known."""
        if self.upstream is None:
            self.pending_probes.append(ts)
            return False
        return True
