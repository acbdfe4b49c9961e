"""Speculation checkpoints and the elision stack.

A real SLE/TLR core checkpoints its register state when it elides a lock
and restores it on misspeculation.  In this model the register state is
the thread coroutine's local frame, which the runtime restores by
re-invoking the critical-section body; what remains to track in hardware
is the *elision stack*: which lock addresses were elided, the free value
each store pair must restore, and bookkeeping about the current attempt
(needed for the SLE retry threshold and the TLR timestamp reuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.coherence.messages import Timestamp


class RestartSignal(Exception):
    """Thrown into the thread coroutine on misspeculation.

    ``depth`` identifies the critical-section nesting level that is the
    speculation root; only that level's restart loop catches the signal,
    so a misspeculation in a nested section restarts the whole
    transaction, as the hardware would.
    """

    def __init__(self, depth: int, reason: str = ""):
        super().__init__(f"restart to depth {depth}: {reason}")
        self.depth = depth
        self.reason = reason


@dataclass(slots=True)
class ElisionRecord:
    """One elided lock (one silent store pair in flight)."""

    lock_addr: int
    free_value: int     # value the matching release store must write back
    held_value: int     # value the elided acquire store would have written
    pc: str
    depth: int          # critical-section nesting depth at elision time


@dataclass(slots=True)
class SpeculationCheckpoint:
    """State of the current speculative episode.  ``elisions`` is the
    elision stack, innermost last; the root record stays on it until
    the transaction commits or aborts."""

    start_time: int
    ts: Optional[Timestamp]
    root_depth: int
    elisions: list[ElisionRecord]
    attempts: int = 1

    @property
    def nest_level(self) -> int:
        return len(self.elisions)
