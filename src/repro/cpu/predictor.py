"""PC-indexed predictors.

Two predictors from the paper:

* :class:`RmwPredictor` -- Section 3.1.2's instruction-based predictor
  that collapses read-modify-write sequences inside critical sections
  into a single exclusive request: a load whose PC the predictor trusts
  fetches its line exclusive up front, avoiding the later upgrade (whose
  external invalidations cannot be deferred and would force
  misspeculation).  The paper uses a 128-entry table and enables it for
  *all* configurations, making the BASE case highly optimized.

* :class:`StorePairPredictor` -- SLE's silent store-pair predictor (64
  entries in Table 2): decides whether a store-conditional at a given PC
  should be elided as the first half of an acquire/release pair.  Under
  plain SLE repeated data conflicts lower confidence so the lock is
  eventually taken for real; under TLR conflicts are handled by
  timestamps, so only *resource* failures (buffer overflow, capacity)
  reduce confidence.

Both tables are finite and LRU-replaced, so pathological PC working sets
degrade gracefully rather than growing without bound.
"""

from __future__ import annotations

from collections import OrderedDict


class _SaturatingTable:
    """An LRU-bounded table of saturating counters indexed by PC."""

    def __init__(self, entries: int, ceiling: int, initial: int):
        self.entries = entries
        self.ceiling = ceiling
        self.initial = initial
        self._table: "OrderedDict[str, int]" = OrderedDict()

    def _insert(self, pc: str) -> int:
        """Allocate ``pc``'s entry, evicting the least recently used."""
        if len(self._table) >= self.entries:
            self._table.popitem(last=False)
        self._table[pc] = self.initial
        return self.initial

    def value(self, pc: str) -> int:
        table = self._table
        if pc in table:
            table.move_to_end(pc)
            return table[pc]
        return self._insert(pc)

    def bump(self, pc: str, delta: int) -> None:
        table = self._table
        if pc in table:
            table.move_to_end(pc)
            current = table[pc] + delta
        else:
            current = self._insert(pc) + delta
        if current < 0:
            current = 0
        elif current > self.ceiling:
            current = self.ceiling
        table[pc] = current

    def known(self, pc: str) -> bool:
        return pc in self._table

    def __len__(self) -> int:
        return len(self._table)


class RmwPredictor:
    """Predicts loads (by PC) that will be followed by a store to the
    same address within the critical section."""

    def __init__(self, entries: int = 128, enabled: bool = True):
        self.enabled = enabled
        self._table = _SaturatingTable(entries, ceiling=3, initial=0)
        self.hits = 0
        self.trainings = 0

    def predict_exclusive(self, pc: str) -> bool:
        """Should this load fetch its line exclusive?"""
        if not self.enabled or not pc:
            return False
        if self._table.value(pc) >= 2:
            self.hits += 1
            return True
        return False

    def train_rmw(self, pc: str) -> None:
        """A store followed this load's address within the section."""
        if self.enabled and pc:
            self.trainings += 1
            self._table.bump(pc, +2)

    def train_not_rmw(self, pc: str) -> None:
        """The section ended without a store to the load's address."""
        if self.enabled and pc and self._table.known(pc):
            self._table.bump(pc, -1)

    @property
    def live_entries(self) -> int:
        return len(self._table)


class StorePairPredictor:
    """Decides whether to elide a candidate lock-acquire store."""

    def __init__(self, entries: int = 64, tlr: bool = False):
        self.tlr = tlr
        self._table = _SaturatingTable(entries, ceiling=3, initial=3)

    def should_elide(self, pc: str) -> bool:
        return self._table.value(pc) >= 2

    def elision_succeeded(self, pc: str) -> None:
        self._table.bump(pc, +1)

    def elision_failed(self, pc: str, resource: bool) -> None:
        """Lower confidence on failure.

        Under TLR only resource-limit failures count against a PC; data
        conflicts are the normal, timestamp-resolved case and must not
        push the hardware back toward lock acquisition.
        """
        if resource or not self.tlr:
            self._table.bump(pc, -2)
