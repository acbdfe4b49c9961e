"""Speculation-layer behaviour: elision, atomic commit, failure
atomicity, fallbacks, and the TLR deferral path -- observed through
small machines."""

from collections import Counter

import pytest

import repro.harness.machine as machine_module
from repro.cpu import isa
from repro.cpu.checkpoint import RestartSignal
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.spec import RunSpec
from repro.sync import locks as locks_module
from repro.sync.locks import FREE, HELD

from tests.conftest import run_threads, small_config
from repro.workloads.common import AddressSpace


def counter_thread(lock, counter, iters, work=10):
    def thread(env):
        def body(env):
            value = yield env.read(counter, pc="t.ld")
            yield env.compute(work)
            yield env.write(counter, value + 1, pc="t.st")

        for _ in range(iters):
            yield from env.critical(lock, body, pc="t")
            yield env.compute(env.fair_delay())

    return thread


class TestElision:
    def test_lock_never_written_under_elision(self):
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()
        machine = run_threads([counter_thread(lock, counter, 4)],
                              small_config(1, SyncScheme.TLR), space=space)
        assert machine.store.read(lock) == FREE
        assert machine.store.read(counter) == 4
        assert machine.stats.cpu(0).elisions_committed == 4

    def test_base_actually_acquires_the_lock(self):
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()
        writes_seen = []

        def spying_thread(env):
            def body(env):
                value = yield env.read(counter, pc="t.ld")
                writes_seen.append(env.processor.store.read(lock))
                yield env.write(counter, value + 1, pc="t.st")

            yield from env.critical(lock, body, pc="t")

        machine = run_threads([spying_thread],
                              small_config(1, SyncScheme.BASE), space=space)
        assert writes_seen == [HELD]       # lock held inside the section
        assert machine.store.read(lock) == FREE  # and released after
        assert machine.stats.cpu(0).elisions_committed == 0

    def test_elision_count_matches_critical_sections(self):
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()
        machine = run_threads(
            [counter_thread(lock, counter, 6), counter_thread(lock, counter, 6)],
            small_config(2, SyncScheme.TLR), space=space)
        assert machine.store.read(counter) == 12
        total_elided = sum(machine.stats.cpu(i).elisions_committed
                           for i in range(2))
        assert total_elided == 12

    def test_commit_credits_the_elided_pc(self):
        # The store-pair predictor's success credit goes to the root
        # elision's pc, read before the release empties the stack; it
        # used to land on a phantom "" entry.
        spec = RunSpec(workload="multiple-counter",
                       config=SystemConfig(num_cpus=8, scheme=SyncScheme.TLR,
                                           seed=0))
        machine = machine_module.Machine(spec.config)
        machine.run_workload(spec.build_workload())
        tables = [dict(p.spec.predictor._table._table)
                  for p in machine.processors]
        assert tables == [{"mc.sc": 3}] * 8


class TestAtomicCommit:
    def test_speculative_writes_invisible_before_commit(self):
        space = AddressSpace()
        lock = space.alloc_word()
        data = space.alloc_word()
        observed = []

        def writer(env):
            def body(env):
                yield env.write(data, 42, pc="w.st")
                yield env.compute(1500)   # long window before commit
            yield from env.critical(lock, body, pc="w")

        def observer(env):
            yield env.compute(700)        # inside the writer's window
            observed.append((yield env.read(data, pc="o.ld")))
            yield env.compute(3000)
            observed.append((yield env.read(data, pc="o.ld")))

        run_threads([writer, observer],
                    small_config(2, SyncScheme.TLR), space=space)
        # Mid-transaction the observer must not see 42 (it reads 0 or is
        # deferred past commit and sees 42 only at/after commit time).
        assert observed[1] == 42

    def test_multi_line_commit_is_all_or_nothing(self):
        space = AddressSpace()
        lock = space.alloc_word()
        words = [space.alloc_word() for _ in range(4)]

        def writer(env):
            def body(env):
                for i, w in enumerate(words):
                    yield env.write(w, i + 1, pc=f"w{i}")
            for _ in range(3):
                yield from env.critical(lock, body, pc="w")
                yield env.compute(env.fair_delay())

        machine = run_threads([writer], small_config(1, SyncScheme.TLR),
                              space=space)
        assert [machine.store.read(w) for w in words] == [1, 2, 3, 4]


class TestFailureAtomicity:
    def test_write_buffer_overflow_falls_back_to_lock(self):
        space = AddressSpace()
        lock = space.alloc_word()
        cfg = small_config(1, SyncScheme.TLR)
        cfg.spec.write_buffer_entries = 4
        lines = space.alloc_lines(8)  # twice the write buffer

        def big_writer(env):
            def body(env):
                for i, addr in enumerate(lines):
                    yield env.write(addr, i + 1, pc=f"b{i}")
            yield from env.critical(lock, body, pc="b")

        machine = run_threads([big_writer], cfg, space=space)
        stats = machine.stats.cpu(0)
        assert stats.resource_fallbacks >= 1
        assert stats.lock_fallbacks >= 1
        # The section still completed correctly via real acquisition.
        assert [machine.store.read(a) for a in lines] == list(range(1, 9))
        assert machine.store.read(lock) == FREE

    @staticmethod
    def one_entry_config():
        """Two CPUs whose transactions hold one lock and one buffered
        line: an inner lock is data, and a second store overflows."""
        cfg = small_config(2, SyncScheme.TLR)
        cfg.spec.elision_depth = 1
        cfg.spec.write_buffer_entries = 1
        return cfg

    def test_nested_sc_overflow_squashes_its_program(self):
        # The inner lock's SC is the transaction's second buffered line.
        # Its fallback must squash the SC as a store's does; a squashed
        # program left running beside the restart never finishes.  The
        # clean run takes about 7,300 cycles.
        space = AddressSpace()
        outer, inner = space.alloc_word(), space.alloc_word()
        a, b = space.alloc_word(), space.alloc_word()

        def thread(env):
            def inner_body(env):
                value = yield env.read(b, pc="in.ld")
                yield env.write(b, value + 1, pc="in.st")

            def outer_body(env):
                value = yield env.read(a, pc="out.ld")
                yield env.write(a, value + 1, pc="out.st")
                yield from env.critical(inner, inner_body, pc="in")

            for _ in range(20):
                yield from env.critical(outer, outer_body, pc="out")
                yield env.compute(env.fair_delay())

        cfg = self.one_entry_config()
        cfg.max_cycles = 730_000
        machine = run_threads([thread, thread], cfg, space=space)
        assert [machine.store.read(w) for w in (a, b)] == [40, 40]
        assert [machine.store.read(w) for w in (outer, inner)] == [FREE,
                                                                   FREE]
        assert sum(machine.stats.cpu(i).restart_reasons["wb-overflow"]
                   for i in range(2)) >= 1

    @pytest.mark.parametrize("atomic", ["swap", "cas"])
    def test_atomic_overflow_falls_back_to_lock(self, atomic):
        # A swap or CAS is a store: one that overflows the write buffer
        # ends the speculation and the section takes the lock.
        space = AddressSpace()
        lock, data, word = (space.alloc_word() for _ in range(3))

        def thread(env):
            def body(env):
                value = yield env.read(data, pc="t.ld")
                yield env.write(data, value + 1, pc="t.st")
                if atomic == "swap":
                    yield isa.AtomicSwap(word, env.cpu_id + 1, pc="t.swap")
                else:
                    old = yield env.read(word, pc="t.cas.ld")
                    yield isa.AtomicCas(word, expect=old, new=old + 1,
                                        pc="t.cas")

            for _ in range(4):
                yield from env.critical(lock, body, pc="t")
                yield env.compute(env.fair_delay())

        machine = run_threads([thread, thread], self.one_entry_config(),
                              space=space)
        assert machine.store.read(data) == 8
        if atomic == "cas":
            assert machine.store.read(word) == 8
        assert machine.store.read(lock) == FREE
        assert sum(machine.stats.cpu(i).restart_reasons["wb-overflow"]
                   for i in range(2)) >= 1

    def test_non_silent_store_to_lock_aborts_elision(self):
        space = AddressSpace()
        lock = space.alloc_word()
        marker = space.alloc_word()

        def weird(env):
            # The body writes a *different* value to its own lock,
            # breaking the silent-pair assumption: the elision must be
            # abandoned and the retry must take the lock for real.
            def body(env):
                yield env.write(marker, 1, pc="w.data")
                yield env.write(lock, 2, pc="w.bad", lock=True)
                yield env.write(lock, HELD, pc="w.fix", lock=True)

            yield from env.critical(lock, body, pc="w")

        machine = run_threads([weird], small_config(1, SyncScheme.TLR),
                              space=space)
        assert machine.store.read(lock) == FREE
        assert machine.store.read(marker) == 1
        assert machine.stats.cpu(0).resource_fallbacks >= 1
        assert machine.stats.cpu(0).elisions_committed == 0

    @staticmethod
    def counted(counter, total):
        def validate(store):
            assert store.read(counter) == total
        return validate

    def test_non_silent_pair_takes_the_lock_for_real(self):
        # A store of another value to the elided lock is no silent pair:
        # the elision falls back, and the retry runs with the lock held.
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()
        held_inside = []

        def thread(env):
            def body(env):
                value = yield env.read(counter, pc="ns.ld")
                yield env.write(counter, value + 1, pc="ns.st")
                yield env.write(lock, HELD + 1, pc="ns.bad", lock=True)
                held_inside.append(env.processor.store.read(lock))

            for _ in range(3):
                yield from env.critical(lock, body, pc="ns")
                yield env.compute(env.fair_delay())

        machine = run_threads([thread, thread],
                              small_config(2, SyncScheme.TLR),
                              validate=self.counted(counter, 6), space=space)
        reasons = sum((machine.stats.cpu(i).restart_reasons
                       for i in range(2)), Counter())
        assert reasons["non-silent-pair"] >= 1
        assert sum(machine.stats.cpu(i).lock_fallbacks
                   for i in range(2)) >= 1
        # Every completed section ran with the lock taken for real.
        assert held_inside and set(held_inside) == {HELD + 1}
        assert machine.store.read(lock) == FREE

    def test_out_of_order_release_is_a_non_silent_pair(self):
        # Releasing the outer elided lock while the inner one is on top
        # of the elision stack does not match it: the transaction falls
        # back and restarts to its root.
        space = AddressSpace()
        outer, inner = space.alloc_word(), space.alloc_word()
        counter = space.alloc_word()

        def restartable(env, steps):
            """``critical``'s restart loop around a body that acquires
            and releases its locks itself."""
            depth = env.processor.cs_depth
            while True:
                try:
                    return (yield from steps(env))
                except RestartSignal as signal:
                    if signal.depth != depth:
                        raise

        def inner_steps(env):
            yield from env.acquire(inner, pc="oo.inner")
            value = yield env.read(counter, pc="oo.ld")
            yield env.write(counter, value + 1, pc="oo.st")
            yield from env.release(outer, pc="oo.outer")
            yield from env.release(inner, pc="oo.inner")

        def outer_steps(env):
            yield from env.acquire(outer, pc="oo.outer")
            # With the outer lock taken for real the inner one can be
            # the speculation root, which restarts from here.
            yield from restartable(env, inner_steps)

        def thread(env):
            for _ in range(3):
                yield from restartable(env, outer_steps)
                yield env.compute(env.fair_delay())

        machine = run_threads([thread, thread],
                              small_config(2, SyncScheme.TLR),
                              validate=self.counted(counter, 6), space=space)
        assert sum(machine.stats.cpu(i).restart_reasons["non-silent-pair"]
                   for i in range(2)) >= 1
        assert [machine.store.read(w) for w in (outer, inner)] == [FREE,
                                                                   FREE]


class TestTlrDeferral:
    def test_contended_counter_defers_instead_of_restarting(self):
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()
        machine = run_threads(
            [counter_thread(lock, counter, 16) for _ in range(4)],
            small_config(4, SyncScheme.TLR), space=space)
        assert machine.store.read(counter) == 64
        summary = machine.stats.summary()
        assert summary["requests_deferred"] > 0
        # With the single-block relaxation, restarts stay far below the
        # conflict count.
        assert summary["restarts"] < 16

    def test_strict_ts_restarts_more(self):
        space_a, space_b = AddressSpace(), AddressSpace()
        results = {}
        for scheme, sp in ((SyncScheme.TLR, space_a),
                           (SyncScheme.TLR_STRICT_TS, space_b)):
            lock, counter = sp.alloc_word(), sp.alloc_word()
            machine = run_threads(
                [counter_thread(lock, counter, 16) for _ in range(4)],
                small_config(4, scheme), space=sp)
            assert machine.store.read(counter) == 64
            results[scheme] = machine.stats.summary()["restarts"]
        assert results[SyncScheme.TLR_STRICT_TS] >= results[SyncScheme.TLR]

    def test_sle_falls_back_under_conflicts(self):
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()
        machine = run_threads(
            [counter_thread(lock, counter, 16) for _ in range(4)],
            small_config(4, SyncScheme.SLE), space=space)
        assert machine.store.read(counter) == 64
        assert machine.stats.total("lock_fallbacks") > 0

    def test_mcs_never_speculates(self):
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()
        machine = run_threads(
            [counter_thread(lock, counter, 8) for _ in range(2)],
            small_config(2, SyncScheme.MCS), space=space)
        assert machine.store.read(counter) == 16
        assert machine.stats.total("elisions_started") == 0


class TestRmwPredictorEffect:
    def test_predictor_eliminates_upgrades(self):
        # Two processors keep the counter line shared, so an untrained
        # load fetches it shared and the following store must upgrade;
        # the predictor learns to fetch exclusive and the upgrades go.
        def measure(enabled: bool) -> int:
            space = AddressSpace()
            lock, counter = space.alloc_word(), space.alloc_word()
            cfg = small_config(2, SyncScheme.BASE)
            cfg.spec.rmw_predictor_enabled = enabled
            machine = run_threads(
                [counter_thread(lock, counter, 20) for _ in range(2)],
                cfg, space=space)
            return sum(machine.stats.cpu(i).upgrades for i in range(2))

        assert measure(False) > measure(True)


class TestNestedLocks:
    def test_nested_elision_commits_at_outermost_release(self):
        space = AddressSpace()
        outer, inner = space.alloc_word(), space.alloc_word()
        data = space.alloc_word()

        def nested(env):
            def inner_body(env):
                value = yield env.read(data, pc="n.ld")
                yield env.write(data, value + 1, pc="n.st")

            def outer_body(env):
                yield from env.critical(inner, inner_body, pc="n.inner")

            for _ in range(3):
                yield from env.critical(outer, outer_body, pc="n.outer")
                yield env.compute(env.fair_delay())

        machine = run_threads([nested], small_config(1, SyncScheme.TLR),
                              space=space)
        assert machine.store.read(data) == 3
        assert machine.store.read(outer) == FREE
        assert machine.store.read(inner) == FREE

    def test_nesting_beyond_depth_treats_inner_lock_as_data(self):
        space = AddressSpace()
        locks = [space.alloc_word() for _ in range(4)]
        data = space.alloc_word()
        cfg = small_config(1, SyncScheme.TLR)
        cfg.spec.elision_depth = 2

        def deeply_nested(env):
            def level(depth):
                def body(env):
                    if depth < len(locks):
                        yield from env.critical(locks[depth], level(depth + 1),
                                                pc=f"n{depth}")
                    else:
                        value = yield env.read(data, pc="n.ld")
                        yield env.write(data, value + 1, pc="n.st")
                return body

            yield from env.critical(locks[0], level(1), pc="n0")

        machine = run_threads([deeply_nested], cfg, space=space)
        assert machine.store.read(data) == 1
        for lock in locks:
            assert machine.store.read(lock) == FREE


class TestInternedLockOps:
    """test&test&set builds its LL, SC and release store once per
    (lock, pc) and yields the same objects on every acquisition."""

    @staticmethod
    def acquire_ops(lock, lock_addr, pc):
        acquire = lock.acquire(None, lock_addr, pc)
        ll = next(acquire)
        sc = acquire.send(FREE)
        release = next(lock.release(None, lock_addr, pc))
        return ll, sc, release

    def test_one_object_per_lock_and_pc(self):
        lock = locks_module.TestAndTestAndSetLock()
        first = self.acquire_ops(lock, 8, "cs")
        second = self.acquire_ops(lock, 8, "cs")
        assert all(a is b for a, b in zip(first, second))
        assert first == (isa.LoadLinked(8, pc="cs.ll"),
                         isa.StoreConditional(8, HELD, pc="cs.sc"),
                         isa.Write(8, FREE, pc="cs.rel", is_lock=True))
        for other in (self.acquire_ops(lock, 8, "other"),
                      self.acquire_ops(lock, 16, "cs")):
            assert not any(a is b for a, b in zip(first, other))

    @pytest.mark.parametrize("scheme", [SyncScheme.TLR, SyncScheme.BASE])
    def test_interned_ops_survive_a_contended_run(self, scheme,
                                                  monkeypatch):
        locks = []

        class Recorded(locks_module.TestAndTestAndSetLock):
            def __init__(self):
                super().__init__()
                locks.append(self)

        monkeypatch.setattr(machine_module, "TestAndTestAndSetLock",
                            Recorded)
        spec = RunSpec(workload="linked-list",
                       config=SystemConfig(num_cpus=8, scheme=scheme,
                                           seed=0),
                       workload_args={"total_ops": 256})
        machine = machine_module.Machine(spec.config)
        machine.run_workload(spec.build_workload())
        if scheme is SyncScheme.TLR:
            assert machine.stats.total("restarts") > 0
        [lock] = locks
        assert lock._ops
        for (lock_addr, pc), ops in lock._ops.items():
            assert ops == (
                isa.LoadLinked(lock_addr, pc=f"{pc}.ll"),
                isa.StoreConditional(lock_addr, HELD, pc=f"{pc}.sc"),
                isa.Write(lock_addr, FREE, pc=f"{pc}.rel", is_lock=True))
