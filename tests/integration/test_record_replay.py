"""Integration tests for the record/replay layer.

The load-bearing contracts:

* **Record-on ≡ record-off.**  Attaching the flight recorder must not
  perturb the schedule: a recorded run's fingerprint equals the
  unrecorded golden fingerprints pinned by the policy-lab tests, across
  policies and both coherence protocols.
* **Replay purity.**  Re-executing a log's embedded spec yields
  byte-identical log bytes and the same fingerprint -- for plain runs
  and for verify-harness runs (whose monitor watchdogs are part of the
  recorded schedule).
* **Auto-capture.**  ``shrink_failure`` writes a replayable log of the
  minimal failing schedule and names it in the verdict; ``submit``
  surfaces it as a job artifact the HTTP service serves for download.
* **Litmus conformance.**  The Chong-style TM scenarios pass under the
  real machine and catch an injected conflict-handling bug.
"""

import hashlib
import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

import repro.coherence.controller as controller_module
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.jobs import JobResult, collect_artifacts
from repro.harness.machine import Machine
from repro.harness.runner import execute_workload, result_fingerprint
from repro.harness.spec import JobSpec, RunSpec, stamp_schema
from repro.record import load_log, record_run, replay_log
from repro.serve import JobQueue
from repro.serve.http import JobServer
from repro.serve.queue import Job
from repro.sim.kernel import SimulationError
from repro.verify import FootprintRecorder, SerializabilityOracle
from repro.verify.explorer import explore, shrink_failure, verify_run
from repro.workloads.litmus import LITMUS_WORKLOADS

# Pinned by tests/integration/test_policy_lab.py on the pre-refactor
# tree; the recorder must reproduce them bit-for-bit with recording ON.
from tests.integration.test_policy_lab import GOLDEN_DEFAULT


def _spec(workload="single-counter", *, policy=None, protocol="snoop",
          seed=0, ops=48, cpus=4):
    config = SystemConfig(num_cpus=cpus, scheme=SyncScheme.TLR, seed=seed,
                          protocol=protocol)
    if policy is not None:
        config = config.with_policy(policy)
    size = {"single-counter": "total_increments",
            "multiple-counter": "total_increments",
            "linked-list": "total_ops"}.get(workload, "total_rounds")
    return RunSpec(workload=workload, config=config,
                   workload_args={size: ops})


# ----------------------------------------------------------------------
# Record-on ≡ record-off, and replay purity, across the matrix
# ----------------------------------------------------------------------
class TestRecordReplayMatrix:
    @pytest.mark.parametrize("policy", ["timestamp", "nack"])
    @pytest.mark.parametrize("protocol", ["snoop", "directory"])
    def test_replay_byte_identical(self, policy, protocol):
        spec = _spec(policy=policy, protocol=protocol)
        recorded = record_run(spec)
        assert recorded.error is None
        report = replay_log(recorded.log)
        assert report.ok, report.render()
        assert report.log_identical and report.fingerprint_identical
        assert report.records == len(load_log(recorded.log).records)

    @pytest.mark.parametrize("policy", ["timestamp", "nack"])
    @pytest.mark.parametrize("protocol", ["snoop", "directory"])
    def test_recording_does_not_change_the_fingerprint(self, policy,
                                                       protocol):
        spec = _spec("linked-list", policy=policy, protocol=protocol)
        bare = execute_workload(spec.build_workload(), spec.config)
        recorded = record_run(spec)
        assert recorded.fingerprint == result_fingerprint(bare), (
            f"{policy}/{protocol}: attaching the recorder changed "
            f"the schedule")

    def test_record_on_matches_pinned_goldens(self):
        """The strongest record-off ≡ record-on pin: recorded runs
        reproduce the pre-refactor golden fingerprints exactly."""
        for (name, seed), want in GOLDEN_DEFAULT.items():
            recorded = record_run(_spec(name, seed=seed, ops=96))
            assert recorded.fingerprint == want, (
                f"{name}/seed{seed}: recorded fingerprint diverged "
                f"from the golden capture")

    def test_log_embeds_enough_to_reproduce(self):
        recorded = record_run(_spec())
        image = load_log(recorded.log)
        rebuilt = RunSpec.from_dict(image.spec_dict)
        assert rebuilt.workload == "single-counter"
        assert image.header["harness"] == {"kind": "run"}
        assert image.end.fingerprint == recorded.fingerprint

    def test_failed_run_log_holds_everything_up_to_the_failure(self):
        """A run cut by its cycle budget still returns a complete log:
        END names the cycle it stopped at, and replay reproduces it."""
        config = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR,
                              max_cycles=2000)
        spec = RunSpec(workload="linked-list", config=config,
                       workload_args={"total_ops": 64})
        recorded = record_run(spec)
        assert recorded.error.startswith("SimulationError")
        image = load_log(recorded.log)
        assert image.end.final_time == 2000
        assert image.records
        report = replay_log(recorded.log)
        assert report.ok, report.render()
        assert report.records == len(image.records)


# ----------------------------------------------------------------------
# Schedule chaos: the kernel choice hook's draws are part of the log
# ----------------------------------------------------------------------
#: sha256 of ``record_run(...).log`` for linked-list, 8 CPUs, TLR,
#: ``schedule_chaos=3``, ``total_ops=96``, per protocol.  Any change to
#: where the choice hook is consulted, or to the labels the recorder
#: interns, moves these; so does the log header (its spec and the
#: fingerprint version), last re-pinned when the spec lost the retired
#: ``retention_policy`` key at version 12.
CHAOS_LOG_SHA256 = {
    "snoop":
        "b9edb17411ad530da3e25712fb1af62f063096d87da231986d3ffeeb54d419a3",
    "directory":
        "6873207f17468f3a9625db30e8a75de6b92676f23d3c50395067c5d1dd5b72ef",
}


def _chaos_spec(protocol: str) -> RunSpec:
    config = SystemConfig(num_cpus=8, scheme=SyncScheme.TLR,
                          schedule_chaos=3, protocol=protocol)
    return RunSpec(workload="linked-list", config=config,
                   workload_args={"total_ops": 96})


class TestChaosRecordReplay:
    @pytest.mark.parametrize("protocol", sorted(CHAOS_LOG_SHA256))
    def test_chaos_log_is_pinned_and_replays_pure(self, protocol):
        recorded = record_run(_chaos_spec(protocol))
        assert recorded.error is None
        assert hashlib.sha256(recorded.log).hexdigest() == \
            CHAOS_LOG_SHA256[protocol]
        report = replay_log(recorded.log)
        assert report.ok, report.render()

    def test_chaos_verify_log_replays_pure(self):
        result = verify_run(_chaos_spec("snoop"), record=True)
        assert result.ok, result.headline()
        assert load_log(result.log_bytes).header["harness"] == \
            {"kind": "verify"}
        report = replay_log(result.log_bytes)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# Verify-harness capture
# ----------------------------------------------------------------------
class TestVerifyCapture:
    def test_verify_recorded_run_replays_pure(self):
        result = verify_run(_spec(), record=True)
        assert result.ok and result.log_bytes
        image = load_log(result.log_bytes)
        assert image.header["harness"]["kind"] == "verify"
        report = replay_log(result.log_bytes)
        assert report.ok, report.render()

    def test_shrink_failure_auto_captures_log(self, monkeypatch,
                                              tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        # Break conflict handling: a losing speculation keeps running
        # on stale data (lost updates) -- the oracle must fail, and the
        # shrunk reproduction must come with a record log.
        monkeypatch.setattr(
            controller_module.CacheController, "_handle_loss",
            lambda self, reason, line_addr, ts=None, aborter=-1: None)
        spec = replace(_spec(ops=64), validate=False)
        result = verify_run(spec)
        assert not result.ok, "injected lost updates went undetected"

        shrunk = shrink_failure(spec)
        assert not shrunk.result.ok
        path = shrunk.result.record_log
        assert path is not None and path.startswith(str(tmp_path))
        image = load_log(path)
        assert image.header["harness"]["kind"] == "verify"
        assert image.end is not None
        assert "record log:" in shrunk.render()


# ----------------------------------------------------------------------
# Litmus conformance
# ----------------------------------------------------------------------
class TestLitmusConformance:
    @pytest.mark.parametrize("workload", LITMUS_WORKLOADS)
    def test_scenarios_hold_on_the_real_machine(self, workload):
        exploration = explore(_spec(workload, ops=48), seeds=3,
                              cache=False)
        assert exploration.ok, exploration.summary()
        assert exploration.total_txns > 0

    #: 100x the clean run's 6,623 cycles (4 CPUs, 64 rounds).  The
    #: mutant below livelocks; at the default 500M-cycle budget it
    #: would spin for about 40 s before the kernel gives up.
    LITMUS_BUDGET = 100 * 6_623

    def _litmus_atomicity(self):
        """Run the atomicity litmus under :attr:`LITMUS_BUDGET` with no
        monitors attached; return the kernel error (or None) and the
        oracle's report."""
        spec = _spec("litmus-atomicity", ops=64)
        machine = Machine(replace(spec.config,
                                  max_cycles=self.LITMUS_BUDGET))
        recorder = FootprintRecorder().attach(machine)
        error = None
        try:
            machine.run_workload(spec.build_workload(), validate=False)
        except SimulationError as exc:
            error = exc
        report = SerializabilityOracle(recorder).check(
            machine.store.snapshot())
        return error, report

    def test_atomicity_litmus_clean_run_fits_the_budget(self):
        error, report = self._litmus_atomicity()
        assert error is None
        assert report.ok, report

    def test_atomicity_litmus_catches_lost_updates(self, monkeypatch):
        monkeypatch.setattr(
            controller_module.CacheController, "_handle_loss",
            lambda self, reason, line_addr, ts=None, aborter=-1: None)
        # The run must end in a kernel error or an oracle violation (a
        # verify verdict's "not ok").
        error, report = self._litmus_atomicity()
        assert error is not None or not report.ok, (
            "the atomicity litmus missed injected lost updates")
        # What catches this fault today is the livelock, not the oracle.
        assert type(error) is SimulationError
        assert "cycle budget exhausted" in str(error)

    @pytest.mark.parametrize("workload", LITMUS_WORKLOADS)
    def test_recorded_litmus_replays_pure(self, workload):
        recorded = record_run(_spec(workload, ops=48))
        assert recorded.error is None
        assert replay_log(recorded.log).ok


# ----------------------------------------------------------------------
# Serve: logs as downloadable job artifacts
# ----------------------------------------------------------------------
class TestServeArtifacts:
    def test_collect_artifacts_walks_nested_payloads(self, tmp_path):
        log = tmp_path / "record-single-counter-s3.rlog"
        log.write_bytes(b"RPRL-test")
        payload = {"shrunk": {"result": {"record_log": str(log)}},
                   "noise": [{"record_log": str(tmp_path / "gone.rlog")}]}
        artifacts = collect_artifacts(payload)
        assert artifacts == {log.name: str(log)}  # missing files skipped

    def test_artifact_route_serves_the_log(self, tmp_path):
        log = tmp_path / "record-x-s0.rlog"
        log.write_bytes(b"\x00\x01binary log bytes")
        queue = JobQueue(workers=1)
        job = Job("j-artifact", JobSpec.verify(), "fp")
        job.state = "done"
        job.result = JobResult(
            kind="verify", fingerprint="fp",
            result=stamp_schema({"ok": False}),
            extra={"artifacts": {log.name: str(log)}})
        queue._jobs[job.id] = job
        server = JobServer(("127.0.0.1", 0), queue)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            with urllib.request.urlopen(
                    f"{base}/jobs/j-artifact/artifacts") as response:
                listing = json.load(response)
            assert listing == {"artifacts": [log.name]}
            with urllib.request.urlopen(
                    f"{base}/jobs/j-artifact/artifacts/{log.name}") as r:
                assert r.read() == log.read_bytes()
                assert r.headers["Content-Type"] == \
                    "application/octet-stream"
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(
                    f"{base}/jobs/j-artifact/artifacts/nope.rlog")
            assert exc.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            queue.stop()
            thread.join(timeout=10)
