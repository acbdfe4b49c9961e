"""Unit tests for CPU building blocks: write buffer, predictors,
checkpoints, ISA helpers."""

from types import SimpleNamespace

import pytest

from repro.coherence.memory import ValueStore
from repro.cpu.checkpoint import (ElisionRecord, RestartSignal,
                                  SpeculationCheckpoint)
from repro.cpu.isa import WORDS_PER_LINE, StoreConditional, Write, line_of
from repro.cpu.predictor import RmwPredictor, StorePairPredictor
from repro.cpu.writebuffer import WriteBuffer, WriteBufferOverflow
from repro.harness.config import SystemConfig
from repro.sim.stats import CpuStats
from repro.sle.elision import SpeculationManager


class TestIsaHelpers:
    def test_line_of_maps_words_to_64_byte_lines(self):
        assert WORDS_PER_LINE == 8
        assert line_of(0) == 0
        assert line_of(7) == 0
        assert line_of(8) == 1
        assert line_of(17) == 2


class TestWriteBuffer:
    def test_forwarding_returns_latest(self):
        buffer = WriteBuffer(capacity_lines=4)
        buffer.write(3, 10)
        buffer.write(3, 11)
        assert buffer.read(3) == 11
        assert buffer.read(4) is None

    def test_capacity_counts_unique_lines(self):
        buffer = WriteBuffer(capacity_lines=2)
        for word in range(8):     # all in line 0
            buffer.write(word, word)
        for word in range(8, 16):  # line 1
            buffer.write(word, word)
        with pytest.raises(WriteBufferOverflow):
            buffer.write(16, 1)    # line 2 overflows

    def test_rewrite_does_not_consume_capacity(self):
        buffer = WriteBuffer(capacity_lines=1)
        for _ in range(100):
            buffer.write(0, 1)
        assert len(buffer) == 1

    def test_drain_commits_and_clears(self):
        buffer = WriteBuffer(capacity_lines=4)
        buffer.write(1, 11)
        buffer.write(9, 99)
        store = ValueStore()
        assert buffer.drain(store) == 2
        assert store.read(1) == 11 and store.read(9) == 99
        assert not buffer

    def test_clear_discards(self):
        buffer = WriteBuffer(capacity_lines=4)
        buffer.write(1, 11)
        buffer.clear()
        store = ValueStore()
        buffer.drain(store)
        assert store.read(1) == 0

    def test_lines_view(self):
        buffer = WriteBuffer(capacity_lines=4)
        buffer.write(0, 1)
        buffer.write(8, 1)
        assert buffer.lines() == {0, 1}


class TestRmwPredictor:
    def test_untrained_predicts_shared(self):
        predictor = RmwPredictor()
        assert not predictor.predict_exclusive("pc1")

    def test_training_flips_to_exclusive(self):
        predictor = RmwPredictor()
        predictor.train_rmw("pc1")
        assert predictor.predict_exclusive("pc1")

    def test_negative_training_decays(self):
        predictor = RmwPredictor()
        predictor.train_rmw("pc1")
        predictor.train_not_rmw("pc1")
        predictor.train_not_rmw("pc1")
        assert not predictor.predict_exclusive("pc1")

    def test_disabled_never_predicts(self):
        predictor = RmwPredictor(enabled=False)
        predictor.train_rmw("pc1")
        assert not predictor.predict_exclusive("pc1")

    def test_empty_pc_never_predicts(self):
        predictor = RmwPredictor()
        predictor.train_rmw("")
        assert not predictor.predict_exclusive("")

    def test_table_bounded_lru(self):
        predictor = RmwPredictor(entries=2)
        predictor.train_rmw("a")
        predictor.train_rmw("b")
        predictor.train_rmw("c")   # evicts "a"
        assert predictor.live_entries == 2
        # "a" fell out: fresh entry, no prediction.
        assert not predictor.predict_exclusive("a")


class TestStorePairPredictor:
    def test_initially_confident(self):
        predictor = StorePairPredictor()
        assert predictor.should_elide("acq")

    def test_sle_failures_suppress(self):
        predictor = StorePairPredictor(tlr=False)
        predictor.elision_failed("acq", resource=False)
        assert not predictor.should_elide("acq")

    def test_tlr_ignores_data_conflict_failures(self):
        predictor = StorePairPredictor(tlr=True)
        for _ in range(10):
            predictor.elision_failed("acq", resource=False)
        assert predictor.should_elide("acq")

    def test_tlr_resource_failures_suppress(self):
        predictor = StorePairPredictor(tlr=True)
        predictor.elision_failed("acq", resource=True)
        assert not predictor.should_elide("acq")

    def test_success_restores_confidence(self):
        predictor = StorePairPredictor(tlr=False)
        predictor.elision_failed("acq", resource=False)
        predictor.elision_succeeded("acq")
        predictor.elision_succeeded("acq")
        assert predictor.should_elide("acq")


class _StubCore:
    """The processor surface a SpeculationManager calls back into."""

    def __init__(self):
        self.cpu_id = 0
        self.sim = SimpleNamespace(now=0)
        self.controller = SimpleNamespace(enter_speculation=lambda ts: None)
        self.calls = []

    def commit_transaction(self):
        self.calls.append("commit")
        self.manager.on_commit()

    def resource_fallback(self, reason):
        self.calls.append(reason)
        self.manager.on_misspeculation(reason, resource=True)


class TestSpeculationCheckpoint:
    """The elision stack, driven the way the processor drives it."""

    def make(self) -> SpeculationManager:
        core = _StubCore()
        core.manager = SpeculationManager(core, SystemConfig(),
                                          CpuStats(cpu_id=0))
        return core.manager

    def elide(self, manager, lock_addr, pc, depth):
        assert manager.try_elide(StoreConditional(lock_addr, 1, pc=pc),
                                 free_value=0, cs_depth=depth)

    def test_root_record_built_with_checkpoint(self):
        manager = self.make()
        self.elide(manager, 1, "outer", 0)
        cp = manager.checkpoint
        assert isinstance(cp, SpeculationCheckpoint)
        assert cp.elisions == [ElisionRecord(lock_addr=1, free_value=0,
                                             held_value=1, pc="outer",
                                             depth=0)]
        assert not hasattr(cp, "__dict__")  # slots
        assert not hasattr(cp.elisions[0], "__dict__")

    def test_nested_pop_order(self):
        manager = self.make()
        self.elide(manager, 1, "outer", 0)
        self.elide(manager, 2, "inner", 1)
        assert manager.checkpoint.nest_level == 2
        assert manager.absorbs_release(Write(2, 0))
        assert [e.pc for e in manager.checkpoint.elisions] == ["outer"]
        assert manager.absorbs_release(Write(1, 0))
        assert manager.processor.calls == ["commit"]
        assert manager.checkpoint is None
        # The commit credits the root's pc, not an empty one.
        assert dict(manager.predictor._table._table) == {"outer": 3}

    def test_pop_wrong_order_refused(self):
        manager = self.make()
        self.elide(manager, 1, "outer", 0)
        self.elide(manager, 2, "inner", 1)
        # The outer lock is not on top: a non-silent pair.
        assert not manager.absorbs_release(Write(1, 0))
        assert manager.processor.calls == ["non-silent-pair"]
        assert manager.checkpoint is None

    def test_pop_wrong_value_refused(self):
        manager = self.make()
        self.elide(manager, 1, "x", 0)
        assert not manager.absorbs_release(Write(1, 7))
        assert manager.processor.calls == ["non-silent-pair"]

    def test_restart_signal_carries_depth(self):
        signal = RestartSignal(depth=2, reason="test")
        assert signal.depth == 2
        assert "test" in str(signal)
