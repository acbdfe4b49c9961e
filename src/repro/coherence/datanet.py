"""Point-to-point data network.

The paper's target machine ships data over a pipelined point-to-point
network with a 20-cycle latency; address traffic rides the broadcast bus.
Because the network is pipelined, the first-order contention effect in the
evaluation is address-bus occupancy, not data-network queueing, so this
model charges a fixed (jittered) hop latency per message.  Markers and
probes -- small directed control messages -- travel the same network
with the same hop latency; ``CacheController`` schedules them itself,
since they are not data transfers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.harness.config import MemoryConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import LatencyPerturber
from repro.sim.stats import SimStats


class DataNetwork:
    """Fixed-latency pipelined point-to-point message delivery."""

    def __init__(self, sim: Simulator, config: MemoryConfig, stats: SimStats,
                 perturber: Optional[LatencyPerturber] = None):
        self.sim = sim
        self.config = config
        self.stats = stats
        self.perturber = perturber
        self._next_slot = 0  # bandwidth model: next free delivery slot
        # Hot-path aliases: one send per data message makes the config
        # attribute chase measurable.
        self._base_latency = config.data_latency
        self._interval = config.data_bandwidth_interval
        self._perturb = perturber.perturb if perturber is not None else None

    def send(self, deliver: Callable[..., None], *args) -> None:
        """Deliver ``deliver(*args)`` one network hop from now.

        With a configured bandwidth interval, deliveries are spaced at
        least that many cycles apart (a simple aggregate-bandwidth
        model); otherwise the network is perfectly pipelined.
        """
        self.stats.data_messages += 1
        delay = self._base_latency
        if self._perturb is not None:
            delay = self._perturb(delay)
        interval = self._interval
        if interval > 0:
            now = self.sim.now
            earliest = now + delay
            if earliest < self._next_slot:
                earliest = self._next_slot
            self._next_slot = earliest + interval
            delay = earliest - now
        self.sim.schedule(delay, deliver, *args, label="data")
