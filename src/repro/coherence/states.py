"""MOESI line states and per-line cache metadata.

The paper's target machine uses a Sun Gigaplane-like MOESI broadcast
snooping protocol.  Each L1 line carries, in addition to its coherence
state, the *access bit* SLE/TLR use to track data touched within the
current transaction (one bit per block, paper Figure 5) and a
speculatively-written bit distinguishing read-set from write-set lines.

The state predicates (``valid``/``owned``/``writable``/``dirty``) are
assigned as plain per-member attributes after the class body rather than
properties: they run on every L1 lookup and snoop, and a data-descriptor
lookup costs a Python call per access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class State(enum.Enum):
    """MOESI coherence states.

    Member attributes (precomputed below):

    * ``valid`` -- any state but INVALID;
    * ``owned`` -- this cache is the line's owner (must supply data);
    * ``writable`` -- a store may complete without a bus transaction;
    * ``dirty`` -- eviction requires a writeback.
    """

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


for _s in State:
    _s.valid = _s is not State.INVALID
    _s.owned = _s in (State.MODIFIED, State.OWNED, State.EXCLUSIVE)
    _s.writable = _s in (State.MODIFIED, State.EXCLUSIVE)
    _s.dirty = _s in (State.MODIFIED, State.OWNED)
del _s


@dataclass(slots=True)
class Line:
    """One L1 (or victim-cache) line."""

    addr: int                      # line-aligned address (line index)
    state: State = State.INVALID
    accessed: bool = False         # touched within the current transaction
    spec_written: bool = False     # in the transaction's write set
    last_use: int = 0              # for LRU replacement

    def clear_speculative(self) -> None:
        """Drop transaction-tracking bits (``end_defer`` behaviour)."""
        self.accessed = False
        self.spec_written = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = ""
        if self.accessed:
            bits += "a"
        if self.spec_written:
            bits += "w"
        return f"<Line {self.addr:#x} {self.state.value}{(':' + bits) if bits else ''}>"
