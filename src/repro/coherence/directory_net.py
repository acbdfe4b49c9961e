"""Directory-based interconnect (CC-NUMA style).

The paper's implementation discussion makes no assumption about the
protocol family: "The protocol may be broadcast snooping or
directory-based and interconnect may be ordered or un-ordered"
(Section 3).  This module provides the directory alternative to the
Gigaplane-like :class:`~repro.coherence.bus.Bus`:

* requests travel an **unordered point-to-point network** to the line's
  *home* directory (homes are interleaved across ``num_homes`` nodes);
* each home serializes the requests it receives (its processing
  occupancy is the throughput bound) -- there is no global broadcast
  bottleneck, so traffic to *different* homes proceeds in parallel;
* the home's processing instant is the line's global order point, where
  the same ownership/sharer bookkeeping and forwarding decisions are
  made as on the bus (the directory state is authoritative rather than
  a mirror of combined snoop responses).

Everything downstream -- controller behaviour, TLR deferral, markers,
probes, NACKs -- is protocol-agnostic and reused unchanged, exactly the
paper's point that TLR needs no coherence protocol modifications.

Because the request network is unordered, two requests issued in one
order can reach their homes in the other order; the TLR layer must (and
does) tolerate this, which the protocol-fuzz tests exercise.
"""

from __future__ import annotations

from repro.coherence.bus import Bus
from repro.coherence.messages import BusRequest
from repro.harness.config import DirectoryConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import LatencyPerturber
from repro.sim.stats import SimStats
from repro.sim.taps import MachineTaps


class DirectoryInterconnect(Bus):
    """Drop-in replacement for :class:`Bus` with home-node ordering."""

    def __init__(self, sim: Simulator, config: DirectoryConfig,
                 stats: SimStats,
                 perturber: LatencyPerturber | None = None,
                 taps: MachineTaps | None = None):
        # The Bus constructor expects a BusConfig-shaped object; the
        # DirectoryConfig provides the attributes Bus actually touches
        # (snoop_latency is unused on this path).
        super().__init__(sim, config, stats, taps)
        self.dir_config = config
        self.perturber = perturber
        self._home_idle_at = [0] * config.num_homes

    # ------------------------------------------------------------------
    # Issue path: unordered network to the home, serialized there
    # ------------------------------------------------------------------
    def _enqueue(self, request: BusRequest) -> None:
        latency = self.dir_config.request_latency
        if self.perturber is not None:
            latency = self.perturber.perturb(latency)
        self.stats.bus_transactions += 1
        self._outstanding += 1
        self.sim.schedule(latency, self._arrive_at_home, request,
                          label=f"dir-arrive {request!r}")

    def _arrive_at_home(self, request: BusRequest) -> None:
        if request.req_id in self._cancelled:
            self._cancelled.discard(request.req_id)
            self._outstanding -= 1
            return
        home = request.line % self.dir_config.num_homes
        start = max(self.sim.now, self._home_idle_at[home])
        self._home_idle_at[home] = start + self.dir_config.home_occupancy
        self.stats.bus_busy_cycles += self.dir_config.home_occupancy
        delay = start - self.sim.now + self.dir_config.processing_latency
        self.sim.schedule(delay, self._order, request,
                          label=f"dir-order {request!r}")

    def complete(self, request: BusRequest) -> None:
        self._outstanding -= 1

    # Cancellation (writeback races) must work for in-flight requests.
    def cancel(self, request: BusRequest) -> None:
        if request.order_time is None:
            self._cancelled.add(request.req_id)
