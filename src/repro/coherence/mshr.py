"""Miss-status handling registers.

One MSHR tracks one outstanding address transaction.  Besides the request
itself it records:

* the processor callbacks waiting on the fill (the core blocks on at most
  a couple of these at a time, but the structure is general);
* the *successor*: a later requester to whom the line's ownership was
  transferred at the bus order point while our data was still in flight --
  the forward obligation that builds the coherence chain of the paper's
  Figures 6 and 7;
* a ``pass_through`` flag set when this processor lost a TLR conflict
  while the miss was in flight: the arriving data is forwarded onward
  without being consumed.

The marker/probe bookkeeping of the same miss (the upstream neighbour,
probes held until it is known) is the controller's per-line
:class:`~repro.tlr.deferral.ChainState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.coherence.messages import BusRequest
from repro.coherence.states import Line


@dataclass(slots=True)
class Mshr:
    """One outstanding miss."""

    request: BusRequest
    waiters: list[Callable[[Line], None]] = field(default_factory=list)
    # Forward obligations chained behind this miss, in bus order.  Any
    # number of GETS may chain (ownership does not move on a read), but
    # a GETX moves ownership to its requester, so it is always last.
    successors: list[BusRequest] = field(default_factory=list)
    pass_through: bool = False
    ordered: bool = False
    in_txn: bool = False   # issued from within a speculative transaction
    fill_invalid: bool = False  # an invalidation ordered after our GETS
    issue_time: int = 0

    @property
    def line(self) -> int:
        return self.request.line


class MshrFile:
    """The per-controller MSHR file (one entry per line)."""

    def __init__(self, entries: int = 16):
        self.entries = entries
        self._by_line: dict[int, Mshr] = {}
        #: MSHRs ever allocated: one per miss that left for the bus (a
        #: NACK reissue keeps its MSHR).  Read by the metrics export as
        #: ``requests.issued``.
        self.allocated = 0
        # ``get(line) -> Optional[Mshr]`` is the hottest MSHR operation
        # (every snoop and every access probes it): the dict's own
        # ``get``, so the call costs no Python frame.  allocate/release
        # mutate the same dict, so the binding never goes stale.
        self.get = self._by_line.get

    def allocate(self, request: BusRequest, issue_time: int) -> Mshr:
        if request.line in self._by_line:
            raise RuntimeError(
                f"MSHR already allocated for line {request.line:#x}")
        if len(self._by_line) >= self.entries:
            raise RuntimeError("MSHR file full")
        mshr = Mshr(request=request, issue_time=issue_time)
        self._by_line[request.line] = mshr
        self.allocated += 1
        return mshr

    def release(self, line: int) -> Mshr:
        return self._by_line.pop(line)

    def __len__(self) -> int:
        return len(self._by_line)

    def __iter__(self):
        return iter(list(self._by_line.values()))

    def entries_view(self):
        """No-copy iteration for read-only scans (hot paths); callers
        must not allocate or release MSHRs while iterating."""
        return self._by_line.values()
