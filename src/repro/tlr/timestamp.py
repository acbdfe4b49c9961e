"""TLR timestamps (paper Section 2.1.2).

A timestamp is the pair (local logical clock, processor id).  The logical
clock counts *successful TLR executions* on that processor; processor id
breaks ties, making every timestamp globally unique.  Priority order is
plain tuple order -- earlier timestamp wins a conflict.

The three invariants of Section 4 live here:

a) the timestamp is retained and re-used across conflict-induced
   misspeculations (``current()`` returns the same value until
   ``commit()``);
b) the clock is updated strictly monotonically on success -- to one more
   than its previous value or one more than the highest conflicting clock
   observed, whichever is larger (keeping clocks loosely synchronized);
c) conflict resolution elsewhere guarantees the earliest timestamp never
   loses, so (a)+(b) give every processor eventual victory: starvation
   freedom.

Fixed-width rollover (the paper notes it is easily handled because
timestamps only ever *compare* two live contenders) is modelled by an
optional modulus with window-based comparison; tests exercise it, the
default is unbounded.
"""

from __future__ import annotations

from typing import Optional

from repro.coherence.messages import Timestamp


class TimestampAuthority:
    """Per-processor logical clock implementing the TLR update rules."""

    def __init__(self, cpu_id: int, modulus: Optional[int] = None):
        self.cpu_id = cpu_id
        self.clock = 0
        self.modulus = modulus
        self._active: Optional[Timestamp] = None
        self._max_conflicting_clock = -1

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> Timestamp:
        """Timestamp for a new transaction (reused across its restarts)."""
        if self._active is None:
            self._active = (self.clock, self.cpu_id)
        return self._active

    def current(self) -> Optional[Timestamp]:
        return self._active

    def observe_conflict(self, other: Optional[Timestamp]) -> None:
        """Record the clock of a conflicting request (for loose sync)."""
        if other is not None and other[0] > self._max_conflicting_clock:
            self._max_conflicting_clock = other[0]

    def commit(self) -> None:
        """Successful TLR execution: advance the clock monotonically."""
        new_clock = max(self.clock + 1, self._max_conflicting_clock + 1)
        if self.modulus is not None:
            new_clock %= self.modulus
        self.clock = new_clock
        self._active = None
        self._max_conflicting_clock = -1

    def abandon(self) -> None:
        """Transaction fell back to a real lock acquisition: the clock is
        *not* updated (no successful TLR execution happened), but the
        active timestamp is released."""
        self._active = None
        self._max_conflicting_clock = -1
