"""The speculative write buffer.

During a lock-free transaction all stores are buffered here instead of
being exposed; commit drains the buffer into the architectural value store
atomically (SLE's atomic commit mechanism), misspeculation simply clears
it (failure atomicity).  As in the paper (Section 3.3), writes merge:
capacity is counted in *unique cache lines* written, because a line needs
exclusive ownership once no matter how many words of it are rewritten.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.isa import line_of


class WriteBufferOverflow(Exception):
    """The transaction wrote more unique lines than the buffer holds.

    This is the resource-constraint signal of the paper's Section 3.3:
    the processor must fall back to acquiring the lock.
    """


class WriteBuffer:
    """Word-granularity speculative store buffer with line-count capacity."""

    def __init__(self, capacity_lines: int):
        self.capacity_lines = capacity_lines
        self._words: dict[int, int] = {}
        self._lines: set[int] = set()

    def write(self, addr: int, value: int) -> None:
        """Buffer a speculative store; raises on line-capacity overflow."""
        line = line_of(addr)
        if line not in self._lines and len(self._lines) >= self.capacity_lines:
            raise WriteBufferOverflow(
                f"{self.capacity_lines}-line write buffer overflow")
        self._lines.add(line)
        self._words[addr] = value

    def read(self, addr: int) -> Optional[int]:
        """Store-to-load forwarding: newest buffered value, if any."""
        return self._words.get(addr)

    def lines(self) -> set[int]:
        return set(self._lines)

    def snapshot(self) -> dict[int, int]:
        """A copy of the buffered write set (addr -> value)."""
        return dict(self._words)

    def drain(self, store) -> int:
        """Commit all buffered words into the architectural store.

        Returns the number of words written.  The caller performs this in
        a single simulation event, which is what makes the commit atomic.
        """
        words = self._words
        write = store.write
        for addr, value in words.items():
            write(addr, value)
        count = len(words)
        words.clear()
        self._lines.clear()
        return count

    def clear(self) -> None:
        self._words.clear()
        self._lines.clear()

    def __len__(self) -> int:
        return len(self._words)

    def __bool__(self) -> bool:
        return bool(self._words)
