"""Unit tests for the causal profiling layer (``repro.obs.profile``):
cause bucketing, the event-folding builder, the tap folder's abort
attribution, the live profiler's close-time checkpoint reads, the
shared deferral tally, OP_TXN record round-trips, the renderers, and the
``MachineMetrics.finalize`` edge cases the profiler wiring leans on."""

import json
from types import SimpleNamespace

import pytest

from repro.cpu.checkpoint import ElisionRecord, SpeculationCheckpoint
from repro.cpu.isa import line_of
from repro.harness.config import SyncScheme
from repro.harness.machine import Machine
from repro.harness.runner import execute_workload
from repro.obs import MachineMetrics
from repro.obs.profile import (ABORT_CAUSES, CAUSE_OF, DeferralTally,
                               LockProfiler, ProfileBuilder, TxnTapFolder,
                               cause_of, critical_path, describe_chain,
                               matrix_canonical_json, render_folded,
                               render_markdown)
from repro.record.format import (TXN_ABORT, TXN_BEGIN, TXN_COMMIT,
                                 LogWriter, iter_records)
from repro.sim.taps import MachineTaps, Point
from repro.workloads.microbench import linked_list, single_counter

from tests.conftest import small_config


class TestCauseBuckets:
    def test_every_mapped_reason_lands_in_a_declared_cause(self):
        for reason, cause in CAUSE_OF.items():
            assert cause in ABORT_CAUSES, (reason, cause)

    def test_resource_reasons_are_not_conflicts(self):
        for reason in ("capacity", "wb-overflow", "non-silent-pair"):
            assert cause_of(reason) != "conflict", reason

    def test_representative_buckets(self):
        assert cause_of("conflict-lost") == "conflict"
        assert cause_of("deschedule") == "context-switch"
        assert cause_of("capacity") == "capacity"
        assert cause_of("non-silent-pair") == "fallback"
        assert cause_of("terminated") == "other"


class TestProfileBuilder:
    def test_commit_accounting(self):
        builder = ProfileBuilder()
        builder.txn_begin(100, 0, 0x40, "main.cs", 1)
        builder.txn_commit(140, 0)
        snap = builder.snapshot()
        stats = snap["locks"]["0x40"]
        assert stats["attempts"] == 1 and stats["commits"] == 1
        assert stats["cycles_committed"] == 40
        assert stats["commit_rate"] == 1.0
        assert stats["pcs"] == {"main.cs": 1}
        assert snap["conflicts"] == {}

    def test_abort_builds_matrix_and_chain(self):
        builder = ProfileBuilder()
        builder.txn_begin(100, 3, 0x40, "list.push", 2)
        builder.txn_abort(160, 3, "conflict-lost", 0x48, 1)
        snap = builder.snapshot()
        stats = snap["locks"]["0x40"]
        assert stats["aborts"] == 1
        assert stats["aborts_by_cause"] == {"conflict": 1}
        assert stats["aborts_by_reason"] == {"conflict-lost": 1}
        assert stats["cycles_lost"] == 60
        assert snap["conflicts"] == {"3": {"1": 1}}
        chain = snap["chains"][0]
        assert chain["victim"] == 3 and chain["aborter"] == 1
        assert chain["conflict_line"] == 0x48
        sentence = describe_chain(chain)
        assert "cpu 3" in sentence and "by cpu 1" in sentence
        assert "conflict-lost" in sentence

    def test_unattributed_abort_uses_minus_one_column(self):
        builder = ProfileBuilder()
        builder.txn_begin(0, 1, 0x40, "p", 1)
        builder.txn_abort(5, 1, "relaxation-revoked", None, -1)
        snap = builder.snapshot()
        assert snap["conflicts"] == {"1": {"-1": 1}}
        assert "by cpu" not in describe_chain(snap["chains"][0])

    def test_close_without_open_is_ignored(self):
        builder = ProfileBuilder()
        builder.txn_commit(10, 0)
        builder.txn_abort(10, 1, "conflict-lost", None, 0)
        assert builder.snapshot()["totals"]["attempts"] == 0

    def test_deferral_wait_attributed_to_holders_lock(self):
        builder = ProfileBuilder()
        builder.txn_begin(0, 0, 0x40, "p", 1)
        builder.defer_push(10, 0, "req-7")       # holder cpu0 owns 0x40
        builder.defer_service(35, "req-7")
        builder.txn_commit(40, 0)
        stats = builder.snapshot()["locks"]["0x40"]
        assert stats["deferrals"] == 1
        assert stats["deferral_cycles"] == 25

    def test_unmatched_service_and_unknown_holder(self):
        builder = ProfileBuilder()
        builder.defer_service(10, "never-pushed")   # ignored
        builder.defer_push(5, 2, "k")               # cpu2 has no open txn
        builder.defer_service(9, "k")
        snap = builder.snapshot()
        assert snap["locks"]["?"]["deferral_cycles"] == 4
        assert snap["totals"]["deferrals"] == 1

    def test_snapshot_counts_unclosed(self):
        builder = ProfileBuilder()
        builder.txn_begin(0, 0, 0x40, "p", 1)
        builder.txn_begin(0, 1, 0x40, "p", 1)
        builder.txn_commit(9, 1)
        assert builder.snapshot()["totals"]["unclosed"] == 1

    def test_matrix_canonical_json_is_sorted_and_compact(self):
        builder = ProfileBuilder()
        for victim, aborter in ((2, 0), (1, 3), (2, 1)):
            builder.txn_begin(0, victim, 0x40, "p", 1)
            builder.txn_abort(4, victim, "conflict-lost", None, aborter)
        text = matrix_canonical_json(builder.snapshot())
        assert text == '{"1":{"3":1},"2":{"0":1,"1":1}}'


class _Sink:
    """Records every normalized event, in order, and keeps the open
    table the folder gates on."""

    def __init__(self):
        self.events = []
        self.open = {}

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)

        def record(*args):
            if name == "txn_begin":
                self.open[args[1]] = args[0]
            elif name in ("txn_commit", "txn_abort"):
                del self.open[args[1]]
            self.events.append((name,) + args)
        return record


def _machine_stub(lock_addr=0x40, pc="site.a", attempts=3):
    checkpoint = SpeculationCheckpoint(
        start_time=0, ts=(0, 0), root_depth=0,
        elisions=[ElisionRecord(lock_addr=lock_addr, free_value=0,
                                held_value=1, pc=pc, depth=0)],
        attempts=attempts)
    spec = SimpleNamespace(checkpoint=checkpoint)
    return SimpleNamespace(processors=[SimpleNamespace(spec=spec)] * 8,
                           taps=MachineTaps())


class TestTxnTapFolder:
    def test_begin_reads_checkpoint(self):
        sink = _Sink()
        folder = TxnTapFolder(sink).attach(
            _machine_stub(lock_addr=0x87, pc="x.y", attempts=5))
        folder.on_txn_begin(10, 2, "txn-begin", ((0, 2),), None)
        # lock addr 0x87 -> its cache line, pc and attempts verbatim.
        assert sink.events == [
            ("txn_begin", 10, 2, line_of(0x87), "x.y", 5)]

    def test_loss_stash_consumed_by_same_cycle_misspec(self):
        sink = _Sink()
        folder = TxnTapFolder(sink).attach(_machine_stub())
        folder.on_txn_begin(0, 1, "txn-begin", ((0, 1),), None)
        folder.on_loss(50, 1, "loss", ("conflict-lost", 0x48, (0, 3), 3),
                       None)
        folder.on_misspec(50, 1, "misspec", ("conflict-lost", 0x48), None)
        assert sink.events[-1] == \
            ("txn_abort", 50, 1, "conflict-lost", 0x48, 3)

    def test_stale_loss_stash_is_not_consumed(self):
        sink = _Sink()
        folder = TxnTapFolder(sink).attach(_machine_stub())
        folder.on_txn_begin(0, 1, "txn-begin", ((0, 1),), None)
        folder.on_loss(50, 1, "loss", ("conflict-lost", 0x48, (0, 3), 3),
                       None)
        # The loss handler early-returned (no misspec at t=50); a later
        # resource abort must not inherit the stale attribution.
        folder.on_misspec(90, 1, "misspec", ("capacity", 0x10), None)
        assert sink.events[-1] == ("txn_abort", 90, 1, "capacity",
                                   0x10, -1)

    def test_memory_origin_probe_attributed_via_timestamp(self):
        sink = _Sink()
        folder = TxnTapFolder(sink).attach(_machine_stub())
        folder.on_txn_begin(0, 2, "txn-begin", ((0, 2),), None)
        folder.on_loss(7, 2, "loss", ("probe-lost", 0x48, (4, 1), -1),
                       None)
        folder.on_misspec(7, 2, "misspec", ("probe-lost", 0x48), None)
        assert sink.events[-1] == ("txn_abort", 7, 2, "probe-lost",
                                   0x48, 1)

    def test_events_outside_open_txn_ignored(self):
        sink = _Sink()
        folder = TxnTapFolder(sink).attach(_machine_stub())
        folder.on_txn_commit(1, 0, "txn-commit", (), None)
        folder.on_loss(2, 0, "loss", ("conflict-lost", 0x48, None), None)
        folder.on_misspec(3, 0, "misspec", ("terminated", 0), None)
        assert sink.events == []

    def test_one_handler_per_kind(self):
        machine = _machine_stub()
        folder = TxnTapFolder(_Sink()).attach(machine)
        taps = machine.taps
        assert list(taps.txn_begin) == [folder.on_txn_begin]
        assert list(taps.txn_commit) == [folder.on_txn_commit]
        assert list(taps.loss) == [folder.on_loss]
        assert list(taps.misspec) == [folder.on_misspec]
        # Deferrals reach the log as raw defer/service taps.
        assert not taps.defer and not taps.service
        folder.detach(machine)
        assert not any(point for point in vars(taps).values()
                       if isinstance(point, Point))


def _cpus(count=4):
    """A machine stub of ``count`` processors, none speculating."""
    processors = [SimpleNamespace(spec=SimpleNamespace(checkpoint=None))
                  for _ in range(count)]
    return SimpleNamespace(processors=processors, taps=MachineTaps())


def _speculate(processor, start_time=0, lock_addr=0x40, pc="site.a",
               attempts=1):
    processor.spec.checkpoint = SpeculationCheckpoint(
        start_time=start_time, ts=(0, 0), root_depth=0,
        elisions=[ElisionRecord(lock_addr=lock_addr, free_value=0,
                                held_value=1, pc=pc, depth=0)],
        attempts=attempts)


class TestLockProfilerLive:
    """The live profiler reads each transaction off its checkpoint when
    it closes, and the ones still open at the snapshot."""

    def test_commit_reads_the_checkpoint(self):
        machine = _cpus()
        profiler = LockProfiler().attach(machine)
        cpu = machine.processors[2]
        _speculate(cpu, start_time=100, lock_addr=0x87, pc="x.y",
                   attempts=5)
        profiler.on_txn_commit(140, 2, "txn-commit", (), cpu)
        cpu.spec.checkpoint = None
        stats = profiler.snapshot()["locks"][f"{line_of(0x87):#x}"]
        assert stats["commits"] == 1 and stats["cycles_committed"] == 40
        assert stats["pcs"] == {"x.y": 1}
        assert stats["attempts_per_txn"]["max"] == 5

    def test_one_call_per_closed_transaction(self):
        machine = _cpus()
        profiler = LockProfiler().attach(machine)
        taps = machine.taps
        assert not taps.txn_begin
        assert list(taps.txn_commit) == [profiler.on_txn_commit]
        assert list(taps.misspec) == [profiler.on_misspec]

    def test_loss_stash_consumed_by_same_cycle_misspec(self):
        machine = _cpus()
        profiler = LockProfiler().attach(machine)
        cpu = machine.processors[1]
        _speculate(cpu, start_time=10)
        profiler.on_loss(50, 1, "loss", ("probe-lost", 0x48, (4, 3), -1),
                         None)
        profiler.on_misspec(50, 1, "misspec", ("probe-lost", 0x48), cpu)
        cpu.spec.checkpoint = None
        snap = profiler.snapshot()
        assert snap["conflicts"] == {"1": {"3": 1}}
        assert snap["chains"][0]["cycles_lost"] == 40
        assert snap["totals"]["unclosed"] == 0

    def test_open_checkpoint_counts_as_begun_and_unclosed(self):
        machine = _cpus()
        profiler = LockProfiler().attach(machine)
        _speculate(machine.processors[3], attempts=2)
        for _ in range(2):
            totals = profiler.snapshot()["totals"]
            assert totals["unclosed"] == 1 and totals["attempts"] == 1

    def test_terminated_transaction_stays_open(self):
        machine = _cpus()
        profiler = LockProfiler().attach(machine)
        cpu = machine.processors[0]
        _speculate(cpu)
        # terminate(): the abort tap, then the checkpoint is dropped
        # without a misspec.
        profiler.on_abort(700, 0, "abort", (), None)
        cpu.spec.checkpoint = None
        assert profiler.snapshot()["totals"]["unclosed"] == 1

    def test_resource_abort_closes_its_transaction(self):
        machine = _cpus()
        profiler = LockProfiler().attach(machine)
        cpu = machine.processors[0]
        _speculate(cpu)
        profiler.on_abort(30, 0, "abort", (), None)
        profiler.on_misspec(30, 0, "misspec", ("wb-overflow", 0), cpu)
        cpu.spec.checkpoint = None
        totals = profiler.snapshot()["totals"]
        assert totals["aborts"] == 1 and totals["unclosed"] == 0


class TestDeferralTally:
    def test_one_tally_per_machine(self):
        machine = Machine(small_config(4, SyncScheme.TLR))
        MachineMetrics().attach(machine)
        LockProfiler().attach(machine)
        tally = DeferralTally.of(machine)
        assert list(machine.taps.defer_post) == [tally.on_defer]
        assert list(machine.taps.service) == [tally.on_service]
        assert not machine.taps.defer

    def test_first_push_for_latency_last_push_for_wait(self):
        machine = _cpus()
        tally = DeferralTally.of(machine)
        _speculate(machine.processors[0], lock_addr=0x40)
        holder = SimpleNamespace(deferred=[1, 2])
        request = SimpleNamespace(req_id=7)
        tally.on_defer(10, 0, "defer", (request,), holder)
        tally.on_defer(20, 0, "defer", (request,), holder)
        tally.on_service(35, 0, "service", (request,), holder)
        tally.on_service(36, 0, "service", (request,), holder)  # ignored
        assert tally.depths == {2: 2} and tally.last_depth == 2
        assert tally.latencies == {25: 1}
        assert tally.waits == {(line_of(0x40), 15): 1}

    def test_shared_tally_counts_each_deferral_once(self):
        def metrics(with_profiler):
            machine = Machine(small_config(4, SyncScheme.TLR))
            collector = MachineMetrics().attach(machine)
            if with_profiler:
                LockProfiler().attach(machine)
            machine.run_workload(linked_list(4, 64))
            return collector.finalize(machine)

        alone = metrics(False)
        assert alone["counters"]["defer.serviced"] > 0
        assert metrics(True) == alone


class TestLockProfilerExport:
    """The export calls the benchmark's rebuilt default path makes, in
    either order and more than once."""

    def _profiled_run(self):
        from repro.obs.metrics import MetricsRegistry
        machine = Machine(small_config(4, SyncScheme.TLR))
        profiler = LockProfiler().attach(machine)
        machine.run_workload(linked_list(4, 64))
        return profiler, MetricsRegistry()

    def test_publish_then_snapshot_equals_snapshot_then_publish(self):
        first, first_registry = self._profiled_run()
        first.publish(first_registry)
        published_first = first.snapshot()
        second, second_registry = self._profiled_run()
        snapped_first = second.snapshot()
        second.publish(second_registry, snapped_first)
        assert published_first == snapped_first
        assert published_first["totals"]["aborts"] > 0
        assert published_first["totals"]["deferrals"] > 0
        assert first_registry.to_dict() == second_registry.to_dict()

    def test_second_snapshot_returns_the_same_result(self):
        profiler, _registry = self._profiled_run()
        first = json.dumps(profiler.snapshot(), sort_keys=True)
        assert json.dumps(profiler.snapshot(), sort_keys=True) == first

    def test_second_publish_leaves_the_same_counters(self):
        profiler, registry = self._profiled_run()
        profiler.publish(registry)
        first = registry.to_dict()
        assert first["counters"]["profile.txn.aborts"] > 0
        profiler.publish(registry)
        assert registry.to_dict() == first

    def test_unclosed_count_survives_a_second_snapshot(self):
        profiler = LockProfiler()
        profiler.builder.txn_begin(0, 0, 0x40, "p", 1)
        assert profiler.snapshot()["totals"]["unclosed"] == 1
        assert profiler.snapshot()["totals"]["unclosed"] == 1


class TestOpTxnRoundTrip:
    def _roundtrip(self, emit):
        import io
        buffer = io.BytesIO()
        writer = LogWriter(buffer, {})
        emit(writer)
        writer.end(0, 0, "00")
        data = buffer.getvalue()
        from repro.record.format import read_header
        _, pos = read_header(data)
        records = [r for r in iter_records(data, pos)
                   if getattr(r, "op", None) == "txn"]
        return records

    def test_begin(self):
        def emit(writer):
            writer.txn_begin(11, 3, 0x40, writer.intern("pc.x"), 4)
        (record,) = self._roundtrip(emit)
        assert record.flags == TXN_BEGIN and record.cpu == 3
        assert record.line == 0x40 and record.label == "pc.x"
        assert record.ref == 4
        assert "pc.x" in record.render()

    def test_begin_with_unknown_lock(self):
        def emit(writer):
            writer.txn_begin(0, 0, None, writer.intern(""), 1)
        (record,) = self._roundtrip(emit)
        assert record.line is None

    def test_commit(self):
        def emit(writer):
            writer.txn_commit(5, 1)
        (record,) = self._roundtrip(emit)
        assert record.flags == TXN_COMMIT and record.cpu == 1

    def test_abort_attributed_and_not(self):
        def emit(writer):
            reason = writer.intern("conflict-lost")
            writer.txn_abort(9, 2, reason, 0x48, 1)
            writer.txn_abort(12, 3, writer.intern("relaxation-revoked"),
                             None, -1)
        attributed, unattributed = self._roundtrip(emit)
        assert attributed.label == "conflict-lost"
        assert attributed.line == 0x48 and attributed.ref == 1
        assert "by cpu1" in attributed.render()
        assert unattributed.line is None and unattributed.ref is None


class TestRenderers:
    def _snapshot(self):
        builder = ProfileBuilder()
        builder.txn_begin(0, 0, 0x40, "a.cs", 1)
        builder.txn_commit(30, 0)
        builder.txn_begin(40, 1, 0x80, "b.cs", 1)
        builder.txn_abort(90, 1, "conflict-lost", 0x84, 0)
        return builder.snapshot()

    def test_markdown_report(self):
        text = render_markdown(self._snapshot(), title="t")
        assert "# t" in text
        assert "| 0x40 | a.cs |" in text
        assert "who aborts whom" in text
        assert "conflict-lost" in text

    def test_critical_path_ranks_by_contention(self):
        ranked = critical_path(self._snapshot())
        assert [lock for lock, _ in ranked] == ["0x80", "0x40"]

    def test_folded_stacks(self):
        lines = render_folded(self._snapshot()).splitlines()
        assert "0x40;a.cs;committed 30" in lines
        assert "0x80;b.cs;conflict 50" in lines

    def test_empty_profile_renders(self):
        assert render_folded({"folded": {}}) == ""
        assert "0 elision attempts" in render_markdown({})


class TestMachineMetricsFinalizeEdges:
    """The collector edge cases the profiler wiring leans on."""

    def test_finalize_without_machine(self):
        metrics = MachineMetrics().finalize()
        assert "meta" not in metrics
        assert not any(key.startswith("restart.reason.")
                       for key in metrics["counters"])

    def test_double_attach_does_not_double_count(self):
        workload = single_counter(2, 64)
        config = small_config(2, SyncScheme.TLR)
        single = execute_workload(workload, config).metrics

        machine = Machine(small_config(2, SyncScheme.TLR))
        collector = MachineMetrics()
        assert collector.attach(machine) is collector
        collector.attach(machine)   # idempotent re-point
        machine.run_workload(single_counter(2, 64))
        doubled = collector.finalize(machine)
        # execute_workload additionally publishes profile.* aggregates;
        # the bare collector comparison covers everything else.
        expected = {key: value for key, value in
                    single["counters"].items()
                    if not key.startswith("profile.")}
        assert doubled["counters"] == expected

    def test_sched_gauges_absent_when_engine_off(self):
        result = execute_workload(single_counter(2, 64),
                                  small_config(2, SyncScheme.TLR))
        gauges = result.metrics["gauges"]
        assert "sched.slots" not in gauges
        assert not any(key.startswith("sched.thread.")
                       for key in gauges)


class TestProfilePublish:
    def test_profile_families_reach_the_registry_export(self):
        result = execute_workload(single_counter(4, 128),
                                  small_config(4, SyncScheme.TLR))
        counters = result.metrics["counters"]
        assert counters["profile.txn.attempts"] >= \
            counters["profile.txn.commits"] > 0
        assert "profile.commit_rate" in result.metrics["gauges"]
        # The aggregates agree with the detailed snapshot riding along.
        totals = result.metrics["profile"]["totals"]
        assert counters["profile.txn.attempts"] == totals["attempts"]
        assert counters["profile.cycles_lost"] == totals["cycles_lost"]

    def test_snapshot_round_trips_through_run_result_json(self):
        from repro.harness.runner import RunResult
        result = execute_workload(single_counter(2, 64),
                                  small_config(2, SyncScheme.TLR))
        clone = RunResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone.metrics["profile"] == result.metrics["profile"]
