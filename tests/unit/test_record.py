"""Unit tests for repro.record: the binary log format, the timeline
debugger, VCD export, and the recorder's promise that the log is the
run's whole event history."""

import io

import pytest

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.spec import RunSpec
from repro.obs import LockProfiler, MachineMetrics
from repro.record import (LOG_SCHEMA, SCHEMA_HISTORY, FlightRecorder,
                          Timeline, export_vcd, first_divergence, load_log,
                          record_run)
from repro.record.format import (LogFormatError, LogWriter, read_header)
from repro.sim.taps import TAP_KINDS, Point


def _spec(seed=0, ops=48):
    return RunSpec(workload="single-counter",
                   config=SystemConfig(num_cpus=4, scheme=SyncScheme.TLR,
                                       seed=seed),
                   workload_args={"total_increments": ops})


def _tiny_log(fingerprint="f" * 64):
    """Hand-written log: one CPU takes a txn through begin/commit with
    a state change and a deferral push/drain on a lock line."""
    buffer = io.BytesIO()
    writer = LogWriter(buffer, {"log_schema": LOG_SCHEMA,
                                "spec": {"workload": "synthetic",
                                         "config": {"num_cpus": 2}},
                                "harness": {"kind": "run"},
                                "locks": [0x100]})
    begin = writer.intern("txn-begin")
    request = writer.intern("request")
    data = writer.intern("data")
    commit = writer.intern("commit")
    tick = writer.intern("tick")
    writer.dispatch(5, tick)
    writer.tap(10, 0, begin, None, None)
    writer.tap(12, 0, request, 0x10, 1)
    writer.tap(20, 0, data, 0x10, 1)
    writer.state(20, 0, 0x10, 0, 3)       # -> M, accessed+spec_written
    writer.defer_edit(25, 0, 0, 2)        # push to depth 2
    writer.defer_edit(30, 0, 1, 0)        # drain to 0
    writer.tap(40, 0, commit, 0x10, None)
    writer.state(40, 0, 0x10, 3, 0)       # -> S
    writer.end(50, 8, fingerprint)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Format: header, round trip, CRC, schema history
# ----------------------------------------------------------------------
class TestFormat:
    def test_round_trip(self):
        image = load_log(_tiny_log())
        assert image.header["locks"] == [0x100]
        assert image.end.final_time == 50
        assert image.end.events_fired == 8
        assert image.end.fingerprint == "f" * 64
        ops = [r.op for r in image.records]
        assert ops == ["dispatch", "tap", "tap", "tap", "state",
                       "defer", "defer", "tap", "state"]
        assert image.records[0].label == "tick"
        assert image.records[4].label == "M"
        assert image.records[4].flags == 3
        assert [r.time for r in image.records] == [5, 10, 12, 20, 20,
                                                   25, 30, 40, 40]

    def test_corrupt_byte_fails_crc(self):
        raw = bytearray(_tiny_log())
        raw[len(raw) // 2] ^= 0xFF
        with pytest.raises(LogFormatError, match="CRC"):
            load_log(bytes(raw))

    def test_bad_magic_rejected(self):
        with pytest.raises(LogFormatError, match="magic"):
            read_header(b"NOPE" + _tiny_log()[4:])

    def test_unknown_version_names_schema_history(self):
        raw = bytearray(_tiny_log())
        raw[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(LogFormatError, match="99"):
            read_header(bytes(raw))

    def test_schema_history_is_complete(self):
        """Every schema version ever shipped must carry a migration
        note -- bumping LOG_SCHEMA without documenting the change is a
        CI failure (the replay-smoke job runs this check)."""
        assert set(SCHEMA_HISTORY) == set(range(1, LOG_SCHEMA + 1))
        assert all(isinstance(note, str) and note
                   for note in SCHEMA_HISTORY.values())

    def test_records_render(self):
        for record in load_log(_tiny_log()).records:
            assert str(record.time) in record.render()


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
class TestDiff:
    def test_identical_logs_have_no_divergence(self):
        a, b = load_log(_tiny_log()), load_log(_tiny_log())
        assert first_divergence(a, b) is None

    def test_first_divergence_indexes_the_mismatch(self):
        a = load_log(_tiny_log())
        b = load_log(_tiny_log(fingerprint="0" * 64))
        assert first_divergence(a, b) is None  # END not part of stream

        recorded = record_run(_spec(seed=0))
        other = record_run(_spec(seed=1))
        divergence = first_divergence(load_log(recorded.log),
                                      load_log(other.log))
        assert divergence is not None
        assert divergence.ours is not None and divergence.theirs is not None
        rendered = divergence.render()
        assert "first divergence" in rendered
        assert "A: " in rendered and "B: " in rendered
        # Context is the shared prefix right before the split.
        for record in divergence.context:
            assert record.time <= max(divergence.ours.time,
                                      divergence.theirs.time)

    def test_truncated_log_diverges_with_log_ends(self):
        recorded = record_run(_spec())
        image = load_log(recorded.log)
        shorter = type(image)(header=image.header,
                              records=image.records[:-5], end=image.end)
        divergence = first_divergence(image, shorter)
        assert divergence is not None
        assert divergence.theirs is None  # B ended early


# ----------------------------------------------------------------------
# Timeline reconstruction (no re-simulation)
# ----------------------------------------------------------------------
class TestTimeline:
    def test_synthetic_walkthrough(self):
        timeline = Timeline(_tiny_log())
        mid = timeline.state_at(15)
        assert mid.cpus[0].in_txn and mid.cpus[0].txn_since == 10
        assert mid.bus_outstanding == 1      # request seen, data not yet

        after_data = timeline.state_at(26)
        assert after_data.bus_outstanding == 0
        assert after_data.lines[(0, 0x10)] == ("M", 3)
        assert after_data.cpus[0].defer_depth == 2

        done = timeline.state_at(50)
        assert not done.cpus[0].in_txn
        assert done.cpus[0].commits == 1
        assert done.cpus[0].defer_depth == 0
        assert done.lines[(0, 0x10)] == ("S", 0)
        assert timeline.txn_spans() == [(0, 10, 40, "commit")]

    def test_interval_queries(self):
        timeline = Timeline(_tiny_log())
        touched = timeline.line_history(0x10, since=0, until=21)
        assert [r.time for r in touched] == [12, 20, 20]
        assert timeline.line_history(0x10, since=21) == \
            timeline.line_history(0x10)[3:]
        assert all(r.cpu == 0 for r in timeline.cpu_history(0))
        assert timeline.cpu_history(1) == []

    def test_histories_window_a_real_run(self):
        timeline = Timeline(record_run(_spec()).log)
        since, until = timeline.final_time // 4, timeline.final_time // 2
        in_window = [r for r in timeline.records
                     if since <= r.time <= until]
        on_cpu1 = timeline.cpu_history(1, since=since, until=until)
        assert on_cpu1 == [r for r in in_window if r.cpu == 1]
        assert on_cpu1
        line = next(r.line for r in in_window if r.line is not None)
        assert timeline.line_history(line, since=since, until=until) == \
            [r for r in in_window if r.line == line]

    def test_txn_spans_filter_by_cpu(self):
        timeline = Timeline(record_run(_spec()).log)
        spans = timeline.txn_spans()
        per_cpu = [timeline.txn_spans(cpu) for cpu in range(4)]
        for cpu, own in enumerate(per_cpu):
            assert own and own == [s for s in spans if s[0] == cpu]
        assert sum(len(own) for own in per_cpu) == len(spans)

    def test_real_run_state_is_sane(self):
        recorded = record_run(_spec())
        timeline = Timeline(recorded.log)
        counts = timeline.counts()
        assert counts["dispatch"] > 0 and counts["tap:commit"] > 0
        final = timeline.state_at(timeline.final_time)
        assert sum(c.commits for c in final.cpus.values()) > 0
        # Lock lines derive from the header's lock addresses.
        assert timeline.lock_lines
        assert set(final.lock_owners) == set(timeline.lock_lines)
        spans = timeline.txn_spans()
        assert spans == sorted(spans, key=lambda s: (s[1], s[0]))
        assert timeline.index_at(-1) == 0
        assert timeline.index_at(timeline.final_time) == \
            len(timeline.records)


# ----------------------------------------------------------------------
# VCD export
# ----------------------------------------------------------------------
class TestVcd:
    def test_synthetic_signals(self):
        out = io.StringIO()
        changes = export_vcd(_tiny_log(), out)
        text = out.getvalue()
        assert changes > 0
        assert "$timescale 1ns $end" in text
        assert "cpu0_txn" in text and "cpu1_txn" in text
        assert "bus_outstanding" in text
        assert "lock_20_owner" in text         # line_of(0x100) == 0x20
        assert text.rstrip().endswith("#50")   # final timestamp

    def test_export_is_deterministic(self):
        recorded = record_run(_spec())
        a, b = io.StringIO(), io.StringIO()
        export_vcd(recorded.log, a)
        export_vcd(recorded.log, b)
        assert a.getvalue() == b.getvalue()
        assert "$date" not in a.getvalue()


# ----------------------------------------------------------------------
# The log is the run's whole event history
# ----------------------------------------------------------------------
class TestWholeHistory:
    def _record(self, *observers):
        """Record one run of ``_spec()``; each ``observers`` entry
        attaches another subscriber to the same machine first."""
        spec = _spec()
        workload = spec.build_workload()
        machine = Machine(spec.config)
        recorder = FlightRecorder(
            spec, locks=sorted(workload.lock_addrs)).attach(machine)
        for attach in observers:
            attach(machine)
        machine.run_workload(workload)
        return recorder, machine

    def test_recorder_keeps_every_tap(self):
        seen = []

        def count(machine):
            machine.taps.subscribe(
                lambda time, cpu, kind, args, obj:
                    seen.append((time, cpu, kind)), *TAP_KINDS)

        recorder, _ = self._record(count)
        image = load_log(recorder.finish("0" * 64))
        assert [(r.time, r.cpu, r.label) for r in image.records
                if r.op == "tap"] == seen
        assert len(seen) > 100

    def test_recorder_keeps_dispatch_stream(self):
        recorder, machine = self._record()
        image = load_log(recorder.finish("0" * 64))
        dispatches = [r for r in image.records if r.op == "dispatch"]
        assert len(dispatches) == image.end.events_fired \
            == machine.sim.events_fired > 0

    def test_log_spans_the_whole_run(self):
        recorder, machine = self._record()
        image = load_log(recorder.finish("0" * 64))
        assert image.records[0].op == "dispatch"
        assert image.records[0].time < machine.sim.now // 4
        assert image.end.final_time == machine.sim.now
        assert image.records[-1].time <= image.end.final_time
        assert image.records[-1].time > machine.sim.now // 2

    def test_other_subscribers_cost_the_recorder_nothing(self):
        alone, _ = self._record()
        crowded, _ = self._record(
            lambda machine: MachineMetrics().attach(machine),
            lambda machine: LockProfiler().attach(machine),
            lambda machine: machine.taps.subscribe(
                lambda *event: None, *TAP_KINDS))
        assert alone.finish("0" * 64) == crowded.finish("0" * 64)

    def test_finish_is_final(self):
        recorder, machine = self._record()
        recorder.finish("0" * 64)
        with pytest.raises(RuntimeError, match="already finished"):
            recorder.finish("0" * 64)
        # Nothing may follow END: every point the recorder (and its txn
        # folder) subscribed to is empty again.
        assert not any(value for value in vars(machine.taps).values()
                       if isinstance(value, Point))
