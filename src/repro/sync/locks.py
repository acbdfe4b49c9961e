"""test&test&set lock built on LL/SC.

This is the lock the paper's BASE, SLE and TLR configurations all run
(same executable): spin reading until the lock looks free, then attempt
an LL/SC acquire.  The release is a plain store of the free value -- the
second half of the silent store pair SLE elides.

Spinning is modeled with ``Watch``: a test&test&set spinner holds a
shared copy of the lock line and learns of a release only through an
invalidation, so parking until the invalidation *is* the spin (and its
duration is charged as lock stall).  On wakeup all spinners race to the
line -- recreating the invalidation/refill storm that makes BASE degrade
under contention in Figures 8-10.
"""

from __future__ import annotations

from typing import Generator

from repro.cpu import isa

FREE = 0
HELD = 1

#: One lock site's ops: its LL, SC and release store.
_SiteOps = tuple[isa.LoadLinked, isa.StoreConditional, isa.Write]


class TestAndTestAndSetLock:
    """The shared-executable lock API for BASE/SLE/TLR."""

    name = "test&test&set"

    def __init__(self):
        # (lock_addr, pc) -> (LL, SC, release store).  Every acquire and
        # release of one lock at one site issues the same three ops, and
        # ops are never mutated after construction, so each is built
        # once (as ThreadEnv interns its reads and computes).
        self._ops: dict[tuple[int, str], _SiteOps] = {}

    def _ops_for(self, lock_addr: int, pc: str) -> _SiteOps:
        key = (lock_addr, pc)
        ops = self._ops.get(key)
        if ops is None:
            ops = self._ops[key] = (
                isa.LoadLinked(lock_addr, pc=f"{pc}.ll"),
                isa.StoreConditional(lock_addr, HELD, pc=f"{pc}.sc"),
                isa.Write(lock_addr, FREE, pc=f"{pc}.rel", is_lock=True))
        return ops

    def acquire(self, env, lock_addr: int, pc: str) -> Generator:
        ll, sc, _ = self._ops_for(lock_addr, pc)
        while True:
            value = yield ll
            if value == FREE:
                ok = yield sc
                if ok:
                    return
                # SC failed (link lost to an interfering access): brief
                # backoff, then retry.
                yield isa.Compute(4)
            else:
                yield isa.Watch(lock_addr, expect=value)

    def release(self, env, lock_addr: int, pc: str) -> Generator:
        yield self._ops_for(lock_addr, pc)[2]
