"""Section 4 contracts: the architecturally-specified footprint
guarantee and thread termination."""

import pytest

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.runtime.program import Workload
from repro.sim.kernel import SimulationError
from repro.sync.locks import FREE
from repro.tlr.guarantee import FootprintGuarantee, guaranteed_footprint
from repro.workloads.common import AddressSpace
from repro.cpu.isa import WORDS_PER_LINE

from tests.conftest import small_config


class TestFootprintGuarantee:
    def test_paper_worked_example(self):
        """'16 entry victim cache and a 4-way data cache ... any
        transaction accessing 20 cache lines or less' -- minus the slot
        the elided lock's own line occupies."""
        cfg = SystemConfig()
        assert cfg.cache.assoc == 4 and cfg.cache.victim_entries == 16
        guarantee = guaranteed_footprint(cfg)
        assert guarantee.total_lines == 19
        assert guarantee.admits(read_lines=19)
        assert not guarantee.admits(read_lines=20)

    def test_written_lines_bounded_by_write_buffer(self):
        cfg = SystemConfig()
        cfg.spec.write_buffer_entries = 8
        guarantee = guaranteed_footprint(cfg)
        assert guarantee.written_lines == 8
        assert guarantee.admits(read_lines=4, written_lines=8)
        assert not guarantee.admits(read_lines=4, written_lines=9)

    def test_nesting_bound(self):
        guarantee = FootprintGuarantee(total_lines=10, written_lines=10,
                                       nesting_depth=2)
        assert guarantee.admits(1, nesting=2)
        assert not guarantee.admits(1, nesting=3)

    def _same_set_transaction(self, num_lines, cfg):
        """A single transaction writing ``num_lines`` lines that all map
        to cache set 0 -- the adversarial footprint."""
        space = AddressSpace()
        lock = space.alloc_word()
        stride = cfg.cache.num_sets * WORDS_PER_LINE
        base = 1024 * WORDS_PER_LINE
        # Align the base to set 0 and keep clear of the lock's set.
        words = [base + i * stride for i in range(num_lines)]

        def thread(env):
            def body(env):
                for i, word in enumerate(words):
                    yield env.write(word, i + 1, pc=f"g{i}")

            yield from env.critical(lock, body, pc="g")

        return Workload(name="footprint", threads=[thread],
                        meta={"space": space}), lock, words

    def test_within_guarantee_never_falls_back(self):
        cfg = small_config(1, SyncScheme.TLR)
        cfg.cache.victim_entries = 8
        guarantee = guaranteed_footprint(cfg)
        workload, lock, words = self._same_set_transaction(
            guarantee.total_lines, cfg)
        machine = Machine(cfg)
        machine.run_workload(workload, validate=False)
        assert machine.stats.cpu(0).resource_fallbacks == 0
        assert machine.stats.cpu(0).elisions_committed == 1
        assert machine.store.read(words[-1]) == len(words)

    def test_beyond_guarantee_falls_back_but_stays_correct(self):
        cfg = small_config(1, SyncScheme.TLR)
        cfg.cache.victim_entries = 8
        guarantee = guaranteed_footprint(cfg)
        workload, lock, words = self._same_set_transaction(
            guarantee.total_lines + 4, cfg)
        machine = Machine(cfg)
        machine.run_workload(workload, validate=False)
        assert machine.stats.cpu(0).resource_fallbacks >= 1
        assert machine.store.read(lock) == FREE
        assert machine.store.read(words[-1]) == len(words)


class TestTermination:
    def _workload(self):
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()

        def victim(env):
            def body(env):
                value = yield env.read(counter, pc="v.ld")
                yield env.compute(5000)
                yield env.write(counter, value + 1, pc="v.st")

            yield from env.critical(lock, body, pc="v")

        def bystander(env):
            def body(env):
                value = yield env.read(counter, pc="b.ld")
                yield env.write(counter, value + 1, pc="b.st")

            for _ in range(4):
                yield from env.critical(lock, body, pc="b")
                yield env.compute(env.fair_delay())

        return (Workload(name="kill", threads=[victim, bystander],
                         meta={"space": space}), lock, counter)

    def test_tlr_killed_holder_leaves_lock_unheld(self):
        workload, lock, counter = self._workload()
        machine = Machine(small_config(2, SyncScheme.TLR))
        machine.sim.schedule(700, machine.processors[0].terminate)
        machine.run_workload(workload, validate=False)
        # The bystander completed everything; the victim's partial work
        # vanished entirely (failure atomicity).
        assert machine.store.read(counter) == 4
        assert machine.store.read(lock) == FREE
        assert machine.processors[1].done

    def test_base_killed_holder_wedges_the_system(self):
        workload, lock, counter = self._workload()
        machine = Machine(small_config(2, SyncScheme.BASE))
        machine.config.max_cycles = 150_000
        machine.sim.max_cycles = 150_000
        machine.sim.schedule(700, machine.processors[0].terminate)
        with pytest.raises(SimulationError):
            machine.run_workload(workload, validate=False)
        # The lock is still marked held by a dead thread.
        assert machine.store.read(lock) != FREE
        assert not machine.processors[1].done

    def test_terminate_is_idempotent_and_safe_after_finish(self):
        workload, lock, counter = self._workload()
        machine = Machine(small_config(2, SyncScheme.TLR))
        machine.sim.schedule(700, machine.processors[0].terminate)
        machine.sim.schedule(701, machine.processors[0].terminate)
        machine.run_workload(workload, validate=False)
        machine.processors[1].terminate()  # already done: no-op
        assert machine.store.read(counter) == 4
