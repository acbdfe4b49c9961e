"""Unit tests for coherence building blocks: states, messages, cache,
victim cache, MSHRs, value store."""

import pytest

from repro.coherence.cache import CacheArray, CapacityError, VictimCache
from repro.coherence.memory import ValueStore
from repro.coherence.messages import (MEMORY, BusRequest, ReqKind, beats)
from repro.coherence.mshr import MshrFile
from repro.coherence.states import Line, State
from repro.harness.config import CacheConfig


class TestStates:
    def test_owned_states(self):
        assert State.MODIFIED.owned
        assert State.OWNED.owned
        assert State.EXCLUSIVE.owned
        assert not State.SHARED.owned
        assert not State.INVALID.owned

    def test_writable_states(self):
        assert State.MODIFIED.writable
        assert State.EXCLUSIVE.writable
        assert not State.OWNED.writable
        assert not State.SHARED.writable

    def test_dirty_states(self):
        assert State.MODIFIED.dirty
        assert State.OWNED.dirty
        assert not State.EXCLUSIVE.dirty
        assert not State.SHARED.dirty

    def test_valid(self):
        assert all(s.valid for s in State if s is not State.INVALID)
        assert not State.INVALID.valid

    def test_line_clear_speculative(self):
        line = Line(addr=4, state=State.MODIFIED, accessed=True,
                    spec_written=True)
        line.clear_speculative()
        assert not line.accessed and not line.spec_written
        assert line.state is State.MODIFIED


class TestTimestampPriority:
    def test_earlier_clock_wins(self):
        assert beats((1, 5), (2, 0))
        assert not beats((2, 0), (1, 5))

    def test_cpu_id_breaks_ties(self):
        assert beats((3, 1), (3, 2))
        assert not beats((3, 2), (3, 1))

    def test_untimestamped_always_loses(self):
        assert not beats(None, (0, 0))
        assert beats((99, 99), None)
        assert not beats(None, None)


class TestBusRequest:
    def test_unique_ids(self):
        a = BusRequest(ReqKind.GETS, line=1, requester=0)
        b = BusRequest(ReqKind.GETS, line=1, requester=0)
        assert a.req_id != b.req_id

    def test_write_kinds(self):
        assert ReqKind.GETX.is_write and ReqKind.UPG.is_write
        assert not ReqKind.GETS.is_write and not ReqKind.WB.is_write


def make_cache(size=1024, assoc=2, victim=2) -> CacheArray:
    return CacheArray(CacheConfig(size_bytes=size, assoc=assoc,
                                  victim_entries=victim))


class TestCacheArray:
    def test_miss_then_install_then_hit(self):
        cache = make_cache()
        assert cache.lookup(5) is None
        line = cache.install(5, State.SHARED)
        assert cache.lookup(5) is line
        assert line.state is State.SHARED

    def test_install_revalidates_existing(self):
        cache = make_cache()
        cache.install(5, State.SHARED)
        line = cache.install(5, State.MODIFIED)
        assert line.state is State.MODIFIED
        assert cache.lookup(5).state is State.MODIFIED

    def test_set_conflict_evicts_lru_into_victim(self):
        cache = make_cache(size=1024, assoc=2, victim=4)
        num_sets = cache.config.num_sets
        addrs = [i * num_sets for i in range(3)]  # same set
        for addr in addrs:
            cache.install(addr, State.SHARED)
        # addrs[0] was LRU; it should now be in the victim cache.
        assert cache.victim.lookup(addrs[0]) is not None
        # Lookup promotes it back.
        assert cache.lookup(addrs[0]) is not None
        assert cache.victim.lookup(addrs[0]) is None

    def test_pinned_lines_not_evicted(self):
        cache = make_cache(size=1024, assoc=2, victim=0)
        num_sets = cache.config.num_sets
        a, b, c = (i * num_sets for i in range(3))
        cache.install(a, State.MODIFIED)
        cache.install(b, State.MODIFIED)
        cache.pin(a)
        cache.install(c, State.SHARED)
        assert cache.lookup(a) is not None  # pinned survived
        cache.unpin(a)

    def test_all_pinned_raises_capacity(self):
        cache = make_cache(size=1024, assoc=2, victim=0)
        num_sets = cache.config.num_sets
        a, b, c = (i * num_sets for i in range(3))
        cache.install(a, State.MODIFIED)
        cache.install(b, State.MODIFIED)
        cache.pin(a)
        cache.pin(b)
        with pytest.raises(CapacityError):
            cache.install(c, State.SHARED)

    def test_iteration_yields_every_line(self):
        cache = make_cache()
        line = cache.install(9, State.MODIFIED)
        line.accessed = True
        cache.install(10, State.SHARED)
        assert sorted(l.addr for l in cache) == [9, 10]
        assert [l.addr for l in cache if l.accessed] == [9]

    def test_eviction_callback_for_displaced_dirty_lines(self):
        evicted = []
        cache = make_cache(size=1024, assoc=1, victim=1)
        cache.on_eviction = evicted.append
        num_sets = cache.config.num_sets
        a, b, c = (i * num_sets for i in range(3))
        cache.install(a, State.MODIFIED)
        cache.install(b, State.MODIFIED)   # a -> victim
        cache.install(c, State.MODIFIED)   # b -> victim, a displaced
        assert [l.addr for l in evicted] == [a]

    def test_invalid_preferred_as_victim(self):
        cache = make_cache(size=1024, assoc=2, victim=0)
        num_sets = cache.config.num_sets
        a, b, c = (i * num_sets for i in range(3))
        cache.install(a, State.MODIFIED)
        line_b = cache.install(b, State.SHARED)
        line_b.state = State.INVALID
        cache.install(c, State.SHARED)
        assert cache.lookup(a) is not None
        assert cache.lookup(c) is not None

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, assoc=3)


class TestVictimCache:
    def test_fifo_displacement(self):
        victim = VictimCache(entries=2)
        l1, l2, l3 = (Line(addr=i, state=State.SHARED) for i in range(3))
        assert victim.insert(l1) is None
        assert victim.insert(l2) is None
        displaced = victim.insert(l3)
        assert displaced is l1

    def test_speculative_lines_protected(self):
        victim = VictimCache(entries=1)
        spec = Line(addr=1, state=State.MODIFIED, accessed=True)
        victim.insert(spec)
        with pytest.raises(CapacityError):
            victim.insert(Line(addr=2, state=State.SHARED))

    def test_zero_entry_victim_rejects(self):
        victim = VictimCache(entries=0)
        line = Line(addr=1, state=State.SHARED)
        assert victim.insert(line) is line


class TestMshrFile:
    def test_allocate_and_release(self):
        file = MshrFile(entries=2)
        req = BusRequest(ReqKind.GETX, line=7, requester=0)
        mshr = file.allocate(req, issue_time=5)
        assert file.get(7) is mshr
        assert file.release(7) is mshr
        assert file.get(7) is None

    def test_double_allocate_same_line_rejected(self):
        file = MshrFile()
        file.allocate(BusRequest(ReqKind.GETS, line=7, requester=0), 0)
        with pytest.raises(RuntimeError):
            file.allocate(BusRequest(ReqKind.GETX, line=7, requester=0), 0)

    def test_capacity_enforced(self):
        file = MshrFile(entries=1)
        file.allocate(BusRequest(ReqKind.GETS, line=1, requester=0), 0)
        with pytest.raises(RuntimeError):
            file.allocate(BusRequest(ReqKind.GETS, line=2, requester=0), 0)

    def test_iteration_yields_every_entry(self):
        file = MshrFile()
        file.allocate(BusRequest(ReqKind.GETS, line=1, requester=0), 0)
        file.allocate(BusRequest(ReqKind.GETS, line=9, requester=0), 0)
        assert len(file) == 2
        assert sorted(m.line for m in file) == [1, 9]


class TestValueStore:
    def test_default_zero(self):
        assert ValueStore().read(123) == 0

    def test_write_read(self):
        store = ValueStore()
        store.write(8, 42)
        assert store.read(8) == 42

    def test_snapshot_is_a_copy(self):
        store = ValueStore()
        store.write(1, 1)
        snap = store.snapshot()
        store.write(1, 2)
        assert snap[1] == 1
