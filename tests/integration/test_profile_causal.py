"""Integration tests for the causal profiling layer.

The load-bearing contracts:

* **Profiler-on ≡ profiler-off.**  Attaching the lock profiler (and the
  OP_TXN-writing recorder sink) must not perturb the schedule: with
  metrics on or off, run fingerprints equal the golden fingerprints
  pinned by the policy-lab tests.
* **Live ≡ post-hoc.**  The conflict matrix -- and in fact the whole
  profile snapshot -- computed live from taps is byte-identical to the
  one recomputed from the ``.rlog`` via :mod:`repro.obs.causal`, across
  workloads and contention policies.
* **Abort spans carry causes.**  ``Timeline.txn_spans`` labels aborted
  windows with the restart reason folded from OP_TXN records.
* **CLI surfacing.**  ``repro profile`` renders live and from-log in
  all three formats.
"""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.harness.config import SyncScheme
from repro.harness.machine import Machine
from repro.harness.runner import execute_workload, result_fingerprint
from repro.obs import default_observers
from repro.obs.causal import profile_from_log
from repro.obs.profile import matrix_canonical_json
from repro.record import FlightRecorder, load_log, record_run
from repro.record.timeline import Timeline

from tests.conftest import small_config
from tests.integration.test_guarantees import kill_workload
from tests.integration.test_policy_lab import GOLDEN_DEFAULT
from tests.integration.test_record_replay import _spec

#: Restart reasons that are resource fallbacks, not conflict aborts.
RESOURCE_REASONS = {"capacity", "wb-overflow", "non-silent-pair",
                    "deschedule"}


# ----------------------------------------------------------------------
# Golden: the profiler is schedule-invisible
# ----------------------------------------------------------------------
class TestProfilerPurity:
    @pytest.mark.parametrize("metrics", [True, False])
    def test_fingerprints_match_pre_profiler_goldens(self, metrics):
        for (name, seed), want in GOLDEN_DEFAULT.items():
            spec = _spec(name, seed=seed, ops=96)
            spec.config.metrics = metrics
            result = execute_workload(spec.build_workload(), spec.config)
            assert result_fingerprint(result) == want, (name, seed)

    def test_profile_rides_metrics_without_joining_the_fingerprint(self):
        spec = _spec("linked-list")
        on = execute_workload(spec.build_workload(), spec.config)
        spec_off = _spec("linked-list")
        spec_off.config.metrics = False
        off = execute_workload(spec_off.build_workload(), spec_off.config)
        assert on.metrics["profile"]["totals"]["attempts"] > 0
        assert off.metrics is None
        assert result_fingerprint(on) == result_fingerprint(off)


# ----------------------------------------------------------------------
# Live ≡ post-hoc causal attribution
# ----------------------------------------------------------------------
class TestLiveVsPostHoc:
    @pytest.mark.parametrize("workload,policy,write_buffer", [
        pytest.param(workload, policy, None, id=f"{workload}-{policy}")
        for workload in ("linked-list", "multiple-counter")
        for policy in ("timestamp", "nack")
    ] + [
        # A two-line write buffer mixes commits, conflict aborts and
        # wb-overflow lock fallbacks in one run.
        pytest.param("linked-list", "timestamp", 2,
                     id="linked-list-timestamp-wb2"),
    ])
    def test_conflict_matrix_byte_identical(self, workload, policy,
                                            write_buffer):
        spec = _spec(workload, policy=policy, ops=96)
        if write_buffer is not None:
            spec.config.spec.write_buffer_entries = write_buffer
        recorded = record_run(spec)
        assert recorded.error is None
        if write_buffer is not None:
            cpus = recorded.result.stats.cpus
            reasons = sum((cpu.restart_reasons for cpu in cpus), Counter())
            assert sum(cpu.elisions_committed for cpu in cpus) > 0
            assert reasons["wb-overflow"] > 0
            assert sum(n for reason, n in reasons.items()
                       if reason not in RESOURCE_REASONS) > 0
        live = recorded.result.metrics["profile"]
        posthoc = profile_from_log(recorded.log)
        assert matrix_canonical_json(live) == \
            matrix_canonical_json(posthoc)
        # Stronger than the acceptance floor: the entire snapshot --
        # histograms, chains, folded stacks -- round-trips the log.
        assert json.dumps(live, sort_keys=True) == \
            json.dumps(posthoc, sort_keys=True)

    def test_directory_protocol_attributes_probe_aborts(self):
        spec = _spec("linked-list", policy="timestamp",
                     protocol="directory", ops=96)
        recorded = record_run(spec)
        live = recorded.result.metrics["profile"]
        assert json.dumps(live, sort_keys=True) == \
            json.dumps(profile_from_log(recorded.log), sort_keys=True)
        # Directory probes reach victims with origin=MEMORY; the folder
        # must still name a champion cpu, not the unknown column.
        if live["conflicts"]:
            aborters = {a for row in live["conflicts"].values()
                        for a in row}
            assert aborters != {"-1"}

    # The live profiler reads a transaction's begin off its checkpoint,
    # so a transaction that never closes must still count, as its
    # begin record does in the log.
    @pytest.mark.parametrize("workload,seed,max_cycles", [
        ("single-counter", 0, 3000), ("linked-list", 1, 2500)])
    def test_run_cut_by_the_cycle_budget_keeps_its_open_transactions(
            self, workload, seed, max_cycles):
        spec = _spec(workload, seed=seed, ops=96)
        spec.config.max_cycles = max_cycles
        recorded = record_run(spec)
        assert recorded.error.startswith("SimulationError")
        live = recorded.result.metrics["profile"]
        posthoc = profile_from_log(recorded.log)
        assert live["totals"]["unclosed"] > 0
        assert posthoc["totals"]["unclosed"] == live["totals"]["unclosed"]
        assert json.dumps(live, sort_keys=True) == \
            json.dumps(posthoc, sort_keys=True)

    def test_terminated_transaction_stays_open(self):
        """``terminate`` clears the victim's checkpoint without a
        misspec: its transaction is begun and unclosed, live and in the
        log alike."""
        workload, _lock, _counter = kill_workload()
        config = small_config(2, SyncScheme.TLR)
        machine = Machine(config)
        recorder = FlightRecorder(_spec(cpus=2)).attach(machine)
        export = default_observers(machine)
        machine.sim.schedule(700, machine.processors[0].terminate)
        machine.run_workload(workload, validate=False)
        assert machine.processors[0].spec.checkpoint is None
        live = export()["profile"]
        posthoc = profile_from_log(recorder.finish("0" * 16))
        totals = live["totals"]
        assert totals["unclosed"] == 1
        assert totals["attempts"] == \
            totals["commits"] + totals["aborts"] + 1
        assert json.dumps(live, sort_keys=True) == \
            json.dumps(posthoc, sort_keys=True)


# ----------------------------------------------------------------------
# Satellite: abort-cause labels on replay timelines
# ----------------------------------------------------------------------
class TestAbortSpanLabels:
    def test_txn_spans_carry_restart_reasons(self):
        recorded = record_run(_spec("linked-list", ops=96))
        spans = Timeline(load_log(recorded.log)).txn_spans()
        outcomes = {outcome for _, _, _, outcome in spans}
        assert any(o == "commit" for o in outcomes)
        labelled = [o for o in outcomes
                    if ":" in o and not o.startswith("commit")]
        assert labelled, outcomes
        # Reasons come from the processor's restart vocabulary.
        assert all(o.split(":", 1)[1] for o in labelled)


# ----------------------------------------------------------------------
# CLI surfacing
# ----------------------------------------------------------------------
class TestProfileCli:
    def test_live_markdown(self, capsys):
        assert main(["profile", "single-counter", "--cpus", "2",
                     "--ops", "48"]) == 0
        out = capsys.readouterr().out
        assert "elision attempts" in out
        assert "| lock |" in out

    def test_from_log_json_matches_live(self, tmp_path, capsys):
        spec = _spec("single-counter")
        recorded = record_run(spec)
        log = tmp_path / "run.rlog"
        log.write_bytes(recorded.log)
        assert main(["profile", "--from-log", str(log),
                     "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot == recorded.result.metrics["profile"]

    def test_folded_output(self, capsys):
        assert main(["profile", "single-counter", "--cpus", "2",
                     "--ops", "48", "--format", "folded"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(len(line.rsplit(" ", 1)) == 2
                             and line.count(";") == 2
                             for line in lines)

    def test_from_log_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.rlog"
        bad.write_bytes(b"not a log")
        assert main(["profile", "--from-log", str(bad)]) == 2
