"""Coherence messages.

Address-bus requests (GETS/GETX/UPG/WB) are broadcast and *ordered*; data
responses travel point-to-point; markers and probes are the TLR-specific
directed messages of Section 3.1.1 -- they carry priority information along
a coherence chain and have no coherence state interactions.

A ``Timestamp`` is the pair (local logical clock, processor id) from
Section 2.1.2; tuple comparison gives exactly the paper's priority order
(earlier clock wins, processor id breaks ties).  ``None`` marks an
*untimestamped* request -- one issued outside any transaction -- which is
treated as having the latest timestamp in the system (lowest priority) so
it can be deferred and ordered after the current critical section.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.coherence.states import State

Timestamp = tuple[int, int]  # (logical clock, cpu id); smaller = older = wins

MEMORY = -1  # pseudo "node id" for the memory-side controller


def beats(challenger: Optional[Timestamp], incumbent: Optional[Timestamp]) -> bool:
    """True when ``challenger`` has priority over ``incumbent``.

    Untimestamped (None) requests lose to any timestamped request and, for
    determinism, a None challenger never beats anyone.
    """
    if challenger is None:
        return False
    if incumbent is None:
        return True
    return challenger < incumbent


class ReqKind(enum.Enum):
    """Address-bus transaction kinds.

    ``is_write`` is assigned as a plain per-member attribute below rather
    than a property: it is consulted on every snoop-side conflict check,
    and a data-descriptor lookup costs a Python call per access.
    """

    GETS = "GETS"    # read, shared copy
    GETX = "GETX"    # read-exclusive, writable copy
    UPG = "UPG"      # upgrade S -> M, no data needed
    WB = "WB"        # writeback of a dirty evicted line


for _kind in ReqKind:
    _kind.is_write = _kind in (ReqKind.GETX, ReqKind.UPG)
del _kind


_request_ids = itertools.count(1)


@dataclass(slots=True)
class BusRequest:
    """One address-bus transaction.

    ``ts`` is the issuing transaction's timestamp (None outside TLR mode).
    ``is_lock`` tags requests to lock variables for the Figure 11 stall
    breakdown.  ``order_time`` is stamped by the bus when the request
    reaches its global order point.  ``prio`` carries the issuing
    transaction's accumulated contention-manager priority (used only by
    priority-ordered policies such as ``backoff``; always 0 under the
    paper's timestamp policies).

    ``grant_state`` is stamped by the requester's controller when its own
    request reaches the order point (the state the directory granted);
    ``killed_by`` rides on a NACKed request when the refusing holder
    also decided to kill the requester's transaction: it names that
    holder's cpu id.
    """

    kind: ReqKind
    line: int
    requester: int
    ts: Optional[Timestamp] = None
    is_lock: bool = False
    prio: int = 0
    req_id: int = field(default_factory=lambda: next(_request_ids))
    order_time: Optional[int] = None
    grant_state: Optional["State"] = None
    killed_by: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ts = f" ts={self.ts}" if self.ts is not None else ""
        return (f"<{self.kind.value} line={self.line:#x} cpu={self.requester}"
                f"{ts} #{self.req_id}>")


@dataclass(slots=True)
class Marker:
    """Directed owner -> requester message (Section 3.1.1).

    Sent when a request's data is not provided immediately -- either
    because the owner is deferring it or because the owner is itself
    waiting for data.  Tells the requester who its upstream neighbour in
    the coherence chain is, enabling probes.  It travels as the
    receiver's event arguments; this object is built only as the payload
    of the ``marker`` tap, for its subscribers.
    """

    line: int
    sender: int       # the upstream node
    req_id: int       # the request being answered with a marker


@dataclass(slots=True)
class Probe:
    """Directed requester -> upstream message carrying a conflicting
    timestamp toward the node that actually holds the data.

    Forwarded hop-by-hop along marker-established chain edges until it
    reaches a node that can resolve the conflict (win: keep deferring;
    lose: restart and release ownership).  Like :class:`Marker` it
    travels as event arguments and is built only for ``probe`` tap
    subscribers.
    """

    line: int
    ts: Timestamp
    origin: int       # processor whose request the probe champions
