"""Memory-side controller and the architectural value store.

Two separable concerns live here:

* :class:`ValueStore` -- the single architectural image of memory, a map
  from word address to value.  Coherence governs *permissions and timing*;
  values are read and written through this store at the instant an access
  is allowed to complete.  Speculative stores live in per-processor write
  buffers until commit, so the store only ever holds committed state.

* :class:`MemoryController` -- the memory side of the snooping protocol
  (the shared L2 plus DRAM behind it).  When the bus orders a request for
  a line whose owner is memory, this controller supplies the data after
  the L2 (or DRAM) latency.  L2 residency is tracked with an LRU tag set
  of configurable capacity; the default is unbounded, because the paper's
  4 MB shared L2 comfortably holds our scaled working sets.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from repro.coherence.messages import BusRequest
from repro.harness.config import MemoryConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import LatencyPerturber
from repro.sim.stats import SimStats


class ValueStore:
    """Architectural memory: word address -> value (default 0)."""

    def __init__(self):
        self._words: dict[int, int] = {}

    def read(self, addr: int) -> int:
        return self._words.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self._words[addr] = value

    def snapshot(self) -> dict[int, int]:
        """A copy of all written words (for checkers and tests)."""
        return dict(self._words)


class MemoryController:
    """The memory side of the bus: supplies data when no cache owns it.

    The shared L2 is modeled as an LRU set of line tags of configurable
    capacity (``l2_capacity_lines``; 0 means unbounded, which matches
    the paper's 4 MB L2 comfortably holding our scaled working sets):
    lines resident in the set are served at the L2 latency, others at
    the DRAM latency and then installed.
    """

    def __init__(self, sim: Simulator, config: MemoryConfig,
                 stats: SimStats, perturber: Optional[LatencyPerturber] = None,
                 l2_capacity_lines: int = 0):
        self.sim = sim
        self.config = config
        self.stats = stats
        self.perturber = perturber
        self.l2_capacity_lines = l2_capacity_lines
        self._l2_tags: "OrderedDict[int, None]" = OrderedDict()
        self.l2_hits = 0
        self.l2_misses = 0

    def _l2_lookup(self, line: int) -> bool:
        if line in self._l2_tags:
            self._l2_tags.move_to_end(line)
            return True
        return False

    def _l2_install(self, line: int) -> None:
        self._l2_tags[line] = None
        self._l2_tags.move_to_end(line)
        if self.l2_capacity_lines and \
                len(self._l2_tags) > self.l2_capacity_lines:
            self._l2_tags.popitem(last=False)

    def supply_latency(self, line: int) -> int:
        """L2 hit latency for resident lines, DRAM latency otherwise."""
        if self._l2_lookup(line):
            self.l2_hits += 1
            latency = self.config.l2_latency
        else:
            self.l2_misses += 1
            latency = self.config.dram_latency
            self._l2_install(line)
        if self.perturber is not None:
            latency = self.perturber.perturb(latency)
        return latency

    def supply(self, request: BusRequest,
               deliver: Callable[[BusRequest], None]) -> None:
        """Schedule the data response for ``request``.

        ``deliver`` is the data-network send closure provided by the
        machine builder; it is invoked after the memory access latency.
        """
        self.stats.memory_reads += 1
        self.sim.schedule(self.supply_latency(request.line), deliver, request,
                          label="mem-supply")

    def writeback(self, line: int) -> None:
        """Accept a dirty line (values are already in the store)."""
        self._l2_install(line)
