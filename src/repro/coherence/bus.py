"""Ordered broadcast address bus (Gigaplane-like, split-transaction).

The bus serializes address transactions: requests arbitrate FIFO, each
grant occupies the bus for a configured number of cycles (bandwidth), and
the transaction reaches its *global order point* a snoop latency after the
grant.  Ordering and data delivery are decoupled (split transactions): at
the order point ownership changes hands and invalidations take effect, but
data may arrive an arbitrary time later -- which is precisely the
request-response decoupling that creates the coherence chains of the
paper's Section 3.1.1.

``LineDirectory`` is the bus-order view of each line: who the current
order-owner is and who holds shared copies.  A real Gigaplane computes
this distributively from combined snoop responses; centralizing it at the
ordering point is behaviourally equivalent and is how the simulator stays
honest about *which* cache must supply data (the order-owner at order
time, whether or not it has the data yet).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.coherence.messages import MEMORY, BusRequest, ReqKind
from repro.coherence.states import State
from repro.harness.config import BusConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import SimStats
from repro.sim.taps import MachineTaps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.coherence.controller import CacheController
    from repro.coherence.memory import MemoryController


class LineDirectory:
    """Order-point bookkeeping: owner and sharer set per line."""

    def __init__(self):
        self._owner: dict[int, int] = {}
        self._sharers: dict[int, set[int]] = {}

    def owner(self, line: int) -> int:
        return self._owner.get(line, MEMORY)

    def set_owner(self, line: int, node: int) -> None:
        if node == MEMORY:
            self._owner.pop(line, None)
        else:
            self._owner[line] = node

    def sharers(self, line: int) -> set[int]:
        # Open-coded setdefault: the default set() argument would be
        # allocated on every call, hit or miss.
        s = self._sharers.get(line)
        if s is None:
            s = self._sharers[line] = set()
        return s

    def add_sharer(self, line: int, node: int) -> None:
        self.sharers(line).add(node)

    def set_sharers(self, line: int, nodes: set[int]) -> None:
        self._sharers[line] = set(nodes)

    def remove_sharer(self, line: int, node: int) -> None:
        self.sharers(line).discard(node)


class Bus:
    """The ordered broadcast address network."""

    def __init__(self, sim: Simulator, config: BusConfig, stats: SimStats,
                 taps: Optional[MachineTaps] = None):
        self.sim = sim
        self.config = config
        self.stats = stats
        self.taps = taps if taps is not None else MachineTaps()
        self.directory = LineDirectory()
        self.controllers: dict[int, "CacheController"] = {}
        self.memory: Optional["MemoryController"] = None
        self.deliver_data: Optional[
            Callable[[BusRequest, int], None]] = None  # set by machine
        self._queue: deque[BusRequest] = deque()
        self._cancelled: set[int] = set()
        self._next_grant_time = 0
        self._outstanding = 0
        self._granting = False
        # Arbitration constants, hoisted out of the per-transaction pump
        # and grant paths.  The directory interconnect reuses this
        # constructor with a DirectoryConfig, which provides only the
        # attributes its overridden issue path touches -- hence getattr.
        self._max_outstanding = config.max_outstanding
        self._occupancy = getattr(config, "occupancy", 0)
        self._snoop_latency = getattr(config, "snoop_latency", 0)
        # Bound-method dispatch for the order point, built once instead
        # of per transaction.
        self._order_handlers = {
            ReqKind.GETS: self._order_gets,
            ReqKind.GETX: self._order_getx,
            ReqKind.UPG: self._order_upg,
            ReqKind.WB: self._order_wb,
        }

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, controller: "CacheController") -> None:
        self.controllers[controller.cpu_id] = controller

    # ------------------------------------------------------------------
    # Issue / cancel / complete
    # ------------------------------------------------------------------
    def issue(self, request: BusRequest) -> None:
        """Queue a request for arbitration (the ``request`` tap fires on
        the *requesting* CPU: the bus has none)."""
        if self.taps.request:
            self.taps.request.fire(self.sim.now, request.requester,
                                   (request,), self)
        self._enqueue(request)

    def _enqueue(self, request: BusRequest) -> None:
        self._queue.append(request)
        self._pump()

    def cancel(self, request: BusRequest) -> None:
        """Withdraw a queued request (used for writebacks that raced with
        an incoming forward).  No-op once the request has been ordered."""
        if request.order_time is None:
            self._cancelled.add(request.req_id)

    def complete(self, request: BusRequest) -> None:
        """The requester signals the transaction fully done (data home)."""
        self._outstanding -= 1
        self._pump()

    # ------------------------------------------------------------------
    # Arbitration
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._granting or not self._queue:
            return
        if self._outstanding >= self._max_outstanding:
            return
        self._granting = True
        delay = self._next_grant_time - self.sim.now
        if delay < 0:
            delay = 0
        self.sim.schedule(delay, self._grant, label="bus-grant")

    def _grant(self) -> None:
        self._granting = False
        while self._queue and self._queue[0].req_id in self._cancelled:
            self._cancelled.discard(self._queue[0].req_id)
            self._queue.popleft()
        if not self._queue:
            return
        if self._outstanding >= self._max_outstanding:
            return
        request = self._queue.popleft()
        self._outstanding += 1
        occupancy = self._occupancy
        stats = self.stats
        stats.bus_transactions += 1
        stats.bus_busy_cycles += occupancy
        self._next_grant_time = self.sim.now + occupancy
        label = (f"bus-order {request!r}" if self.sim.verbose_labels
                 else "bus-order")
        self.sim.schedule(self._snoop_latency, self._order, request,
                          label=label)
        self._pump()

    # ------------------------------------------------------------------
    # The global order point
    # ------------------------------------------------------------------
    def _order(self, request: BusRequest) -> None:
        request.order_time = self.sim.now
        self._order_handlers[request.kind](request)

    def _nacked(self, request: BusRequest) -> bool:
        """NACK-policy snoop outcome: if the owning cache refuses the
        request, the transaction is void -- no directory change, no
        invalidations -- and the requester is told to retry.  This
        mirrors a combined snoop response of 'retry' in NACK-capable
        protocols."""
        prev_owner = self.directory.owner(request.line)
        if prev_owner == MEMORY or prev_owner == request.requester:
            return False
        owner = self.controllers[prev_owner]
        if not owner.would_nack(request):
            return False
        self._outstanding -= 1
        requester = self.controllers[request.requester]
        label = f"nack {request!r}" if self.sim.verbose_labels else "nack"
        self.sim.schedule(self._snoop_latency,
                          requester.handle_nack, request,
                          label=label)
        self._pump()
        return True

    def _order_gets(self, request: BusRequest) -> None:
        if self._nacked(request):
            return
        directory = self.directory
        line = request.line
        prev_owner = directory.owner(line)
        had_sharers = bool(directory.sharers(line) - {request.requester})
        directory.add_sharer(line, request.requester)
        requester = self.controllers[request.requester]
        if prev_owner == MEMORY:
            grant = State.SHARED if had_sharers else State.EXCLUSIVE
            if grant is State.EXCLUSIVE:
                directory.set_owner(line, request.requester)
            requester.request_ordered(request, grant)
            self.memory.supply(request, self._deliver)
        else:
            # MOESI: the owning cache supplies and retains ownership (O).
            requester.request_ordered(request, State.SHARED)
            self.controllers[prev_owner].handle_forward(request)

    def _order_getx(self, request: BusRequest) -> None:
        if self._nacked(request):
            return
        directory = self.directory
        line = request.line
        prev_owner = directory.owner(line)
        prev_sharers = (directory.sharers(line)
                        - {request.requester, prev_owner})
        directory.set_owner(line, request.requester)
        directory.set_sharers(line, {request.requester})
        requester = self.controllers[request.requester]
        requester.request_ordered(request, State.MODIFIED)
        for sharer in prev_sharers:
            self.controllers[sharer].handle_invalidation(request)
        if prev_owner == MEMORY:
            self.memory.supply(request, self._deliver)
        elif prev_owner == request.requester:
            # We were still the order-owner (e.g. re-request after losing
            # data to a pass-through); memory has the committed values.
            self.memory.supply(request, self._deliver)
        else:
            self.controllers[prev_owner].handle_forward(request)

    def _order_upg(self, request: BusRequest) -> None:
        directory = self.directory
        line = request.line
        prev_owner = directory.owner(line)
        still_sharer = request.requester in directory.sharers(line)
        requester = self.controllers[request.requester]
        upgrade_ok = still_sharer and prev_owner in (MEMORY,
                                                     request.requester)
        if not upgrade_ok:
            # Lost the shared copy (or another cache owns the line) between
            # issue and order: the upgrade becomes a full GETX.
            request.kind = ReqKind.GETX
            self._order_getx(request)
            return
        prev_sharers = directory.sharers(line) - {request.requester}
        directory.set_owner(line, request.requester)
        directory.set_sharers(line, {request.requester})
        for sharer in prev_sharers:
            self.controllers[sharer].handle_invalidation(request)
        requester.request_ordered(request, State.MODIFIED)
        requester.upgrade_granted(request)

    def _order_wb(self, request: BusRequest) -> None:
        directory = self.directory
        line = request.line
        if directory.owner(line) == request.requester:
            directory.set_owner(line, MEMORY)
            directory.remove_sharer(line, request.requester)
            self.memory.writeback(line)
        # A stale writeback (ownership already moved on) has no effect.
        self.controllers[request.requester].writeback_ordered(request)

    # ------------------------------------------------------------------
    # Data delivery (via the point-to-point network closure)
    # ------------------------------------------------------------------
    def _deliver(self, request: BusRequest) -> None:
        self.deliver_data(request, MEMORY)
