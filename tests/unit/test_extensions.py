"""Tests for the extension features: NACK retention, untimestamped
policies, the tracer, and the guaranteed-footprint contract."""

from dataclasses import replace

import pytest

from repro.harness.config import SyncScheme, SpeculationConfig, SystemConfig
from repro.harness.machine import Machine
from repro.harness.parallel import run
from repro.runtime.program import Workload
from repro.sim.trace import Tracer
from repro.workloads.common import AddressSpace
from repro.workloads.microbench import linked_list, single_counter

from tests.conftest import small_config


def _with_spec(cfg: SystemConfig, **spec_overrides) -> SystemConfig:
    cfg.spec = replace(cfg.spec, **spec_overrides)
    return cfg


class TestRetentionPolicies:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SpeculationConfig(contention_policy="bogus")
        with pytest.raises(ValueError):
            SpeculationConfig(untimestamped_policy="bogus")

    @pytest.mark.parametrize("policy", ["timestamp", "nack"])
    def test_both_policies_serialize_correctly(self, policy):
        cfg = _with_spec(small_config(4, SyncScheme.TLR),
                         contention_policy=policy)
        result = run(single_counter(4, 256), cfg)
        assert result.cycles > 0

    def test_nack_policy_sends_nacks_under_conflict(self):
        cfg = _with_spec(small_config(4, SyncScheme.TLR),
                         contention_policy="nack")
        result = run(linked_list(4, 256), cfg)
        assert result.stats.total("nacks_sent") > 0
        assert result.stats.total("nacks_received") > 0

    def test_defer_policy_never_nacks(self):
        cfg = small_config(4, SyncScheme.TLR)
        result = run(linked_list(4, 256), cfg)
        assert result.stats.total("nacks_sent") == 0

    def test_nack_earliest_timestamp_never_refused(self):
        """The NACK decision respects priority: the oldest transaction is
        never told to retry, so progress is preserved (no run-away retry
        loops -- the run completing within the cycle cap is the check)."""
        cfg = _with_spec(small_config(6, SyncScheme.TLR),
                         contention_policy="nack")
        result = run(single_counter(6, 384), cfg)
        assert result.cycles > 0


class TestUntimestampedPolicy:
    def _racy_workload(self):
        """A transaction updating a word while another thread reads it
        without any lock (a benign data race)."""
        space = AddressSpace()
        lock, word = space.alloc_word(), space.alloc_word()
        seen = []

        def locked_writer(env):
            def body(env):
                value = yield env.read(word, pc="w.ld")
                yield env.compute(400)
                yield env.write(word, value + 1, pc="w.st")

            for _ in range(8):
                yield from env.critical(lock, body, pc="w")
                yield env.compute(env.fair_delay())

        def racy_reader(env):
            for _ in range(20):
                seen.append((yield env.read(word, pc="r.ld")))
                yield env.compute(150)

        def validate(store):
            assert store.read(word) == 8
            assert seen == sorted(seen), "racy reads went backwards"

        return Workload(name="racy", threads=[locked_writer, racy_reader],
                        validate=validate, meta={"space": space})

    @pytest.mark.parametrize("policy", ["defer", "abort"])
    def test_racy_reads_are_monotone_under_both_policies(self, policy):
        cfg = _with_spec(small_config(2, SyncScheme.TLR),
                         untimestamped_policy=policy)
        machine = Machine(cfg)
        machine.run_workload(self._racy_workload())

    def test_abort_policy_costs_restarts(self):
        def restarts(policy):
            cfg = _with_spec(small_config(2, SyncScheme.TLR),
                             untimestamped_policy=policy)
            machine = Machine(cfg)
            machine.run_workload(self._racy_workload())
            return machine.stats.restarts

        assert restarts("abort") >= restarts("defer")


class TestTracer:
    def test_records_transaction_lifecycle(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(2, 64))
        counts = tracer.counts()
        assert counts.get("txn-begin", 0) > 0
        assert counts.get("txn-commit", 0) > 0
        assert counts.get("data", 0) > 0

    def test_render_is_readable(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(2, 32))
        text = tracer.render()
        assert "txn-commit" in text


class TestMachineDump:
    def test_dump_state_is_nondestructive(self):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        machine.run_workload(single_counter(2, 64))
        before = len(machine.controllers[0].deferred)
        text = machine.dump_state()
        assert "cpu0" in text and "cpu1" in text
        assert len(machine.controllers[0].deferred) == before


class TestTracerSpans:
    def _traced_run(self, ops: int = 64):
        cfg = small_config(2, SyncScheme.TLR)
        machine = Machine(cfg)
        tracer = Tracer().attach(machine)
        machine.run_workload(single_counter(2, ops))
        return machine, tracer

    def test_txn_spans_pair_begin_with_outcome(self):
        machine, tracer = self._traced_run()
        txn = [s for s in tracer.spans if s.kind == "txn"]
        assert txn, "no transaction spans recorded"
        assert all(s.end >= s.begin for s in txn)
        outcomes = {s.detail for s in txn}
        # Aborted windows carry their restart reason ("abort:capacity",
        # "loss:invalidated"); committed ones stay bare.
        assert all(o == "commit" or o.split(":", 1)[0] in ("abort", "loss")
                   for o in outcomes), outcomes
        commits = sum(1 for s in txn if s.detail == "commit")
        assert commits == machine.stats.total("elisions_committed")

    def test_defer_and_request_spans(self):
        _, tracer = self._traced_run()
        defer = [s for s in tracer.spans if s.kind == "defer"]
        assert defer and all(s.duration > 0 for s in defer)
        requests = [s for s in tracer.spans if s.kind == "request"]
        assert requests and all(s.end >= s.begin for s in requests)
