"""Set-associative L1 cache array and victim cache.

The L1 tracks coherence state and the SLE/TLR access bits per line.  The
victim cache (paper Sections 3.3 and 4) is a small fully-associative
buffer that catches lines evicted by conflict/capacity misses; it carries
the same speculative-access bits so a transaction's footprint may exceed
one set's associativity without forcing a lock acquisition.  A line is
*pinned* while it has an outstanding miss or an unserviced forward
obligation and is never chosen as a victim.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.coherence.states import Line, State
from repro.harness.config import CacheConfig


class CapacityError(Exception):
    """Raised when no line can be evicted to make room.

    For a speculating processor this is the resource-constraint signal
    that forces the TLR/SLE fallback to a real lock acquisition.
    """


class VictimCache:
    """Fully-associative FIFO victim buffer."""

    def __init__(self, entries: int):
        self.entries = entries
        self._lines: dict[int, Line] = {}

    def lookup(self, line_addr: int) -> Optional[Line]:
        return self._lines.get(line_addr)

    def insert(self, line: Line) -> Optional[Line]:
        """Insert ``line``; returns a displaced line if the buffer is full.

        Displacement is FIFO among non-speculative lines; if every entry
        is speculative the caller must treat it as a capacity overflow.
        """
        if self.entries == 0:
            return line
        if len(self._lines) < self.entries:
            self._lines[line.addr] = line
            return None
        for addr, candidate in self._lines.items():
            if not candidate.accessed:
                del self._lines[addr]
                self._lines[line.addr] = line
                return candidate
        raise CapacityError(
            f"victim cache full of {self.entries} speculative lines")

    def remove(self, line_addr: int) -> Optional[Line]:
        return self._lines.pop(line_addr, None)

    def __iter__(self) -> Iterator[Line]:
        return iter(list(self._lines.values()))

    def __len__(self) -> int:
        return len(self._lines)


class CacheArray:
    """The L1 data cache: set-associative, write-back, LRU."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: list[dict[int, Line]] = [
            {} for _ in range(config.num_sets)]
        # ``num_sets`` is a derived config property; resolve it once --
        # the mask is consulted on every lookup.
        self._set_mask = config.num_sets - 1
        self._assoc = config.assoc
        self.victim = VictimCache(config.victim_entries)
        self._use_clock = 0
        # Lines that must not be evicted (pending miss / obligation).
        self._pinned: set[int] = set()

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self, line_addr: int) -> None:
        self._pinned.add(line_addr)

    def unpin(self, line_addr: int) -> None:
        self._pinned.discard(line_addr)

    # ------------------------------------------------------------------
    # Lookup / install
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[Line]:
        """Find a valid line in the main array or the victim cache."""
        line = self._sets[line_addr & self._set_mask].get(line_addr)
        if line is not None:
            self._use_clock += 1
            line.last_use = self._use_clock
            return line
        victim_line = self.victim.lookup(line_addr)
        if victim_line is not None:
            # Promote back into the main array (swap with an LRU victim).
            self.victim.remove(line_addr)
            self._install(victim_line)
            return victim_line
        return None

    def peek(self, line_addr: int) -> Optional[Line]:
        """Side-effect-free lookup: no LRU bump, no victim promotion.

        The invariant monitors inspect every controller's view of a line
        after each coherence event; a normal :meth:`lookup` would perturb
        replacement state and victim residency, changing the very
        execution being checked.
        """
        line = self._sets[line_addr & self._set_mask].get(line_addr)
        if line is not None:
            return line
        return self.victim.lookup(line_addr)

    def install(self, line_addr: int, state: State) -> Line:
        """Allocate (or revalidate) ``line_addr`` in ``state``.

        May evict an existing line into the victim cache; raises
        :class:`CapacityError` when nothing can make room (the caller
        converts that into a speculation fallback or a writeback stall).
        """
        existing = self.lookup(line_addr)
        if existing is not None:
            existing.state = state
            return existing
        line = Line(addr=line_addr, state=state)
        self._install(line)
        return line

    def _install(self, line: Line) -> None:
        cache_set = self._sets[line.addr & self._set_mask]
        self._use_clock += 1
        line.last_use = self._use_clock
        if len(cache_set) >= self._assoc:
            victim = self._choose_victim(cache_set)
            del cache_set[victim.addr]
            if victim.state.valid:
                displaced = self.victim.insert(victim)
                if displaced is not None and displaced.accessed:
                    raise CapacityError(
                        "speculative line displaced from victim cache")
                if displaced is not None:
                    self._notify_eviction(displaced)
        cache_set[line.addr] = line

    def _choose_victim(self, cache_set: dict[int, Line]) -> Line:
        candidates = [l for l in cache_set.values()
                      if l.addr not in self._pinned]
        if not candidates:
            raise CapacityError("all lines in set pinned by pending misses")
        # Prefer invalid, then non-speculative LRU, then speculative LRU.
        invalid = [l for l in candidates if not l.state.valid]
        if invalid:
            return invalid[0]
        clean = [l for l in candidates if not l.accessed]
        pool = clean or candidates
        return min(pool, key=lambda l: l.last_use)

    # ------------------------------------------------------------------
    # Eviction callback (set by the controller to issue writebacks)
    # ------------------------------------------------------------------
    on_eviction: Optional[Callable[[Line], None]] = None

    def _notify_eviction(self, line: Line) -> None:
        if self.on_eviction is not None:
            self.on_eviction(line)

    # ------------------------------------------------------------------
    # Whole-cache iteration (snoop handling, end-of-transaction cleanup)
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Line]:
        for cache_set in self._sets:
            yield from cache_set.values()
        yield from self.victim

    def speculative_lines(self) -> list[Line]:
        return [l for l in self if l.accessed]

    def drop(self, line_addr: int) -> None:
        """Remove a line entirely (post-invalidation tidy-up)."""
        self._sets[self.set_index(line_addr)].pop(line_addr, None)
        self.victim.remove(line_addr)
