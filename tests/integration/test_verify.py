"""Integration tests for the repro.verify subsystem: clean TLR runs
pass the oracle and monitors, instrumentation does not perturb the
execution, and deliberately broken conflict resolution is caught and
shrunk to a traced minimal reproduction."""

import os
from dataclasses import replace

import pytest

import repro.coherence.controller as controller_module
import repro.policies.base as policy_base_module
import repro.policies.timestamp as policy_timestamp_module
from repro.coherence.messages import beats as real_beats
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.spec import SIZE_PARAM, RunSpec
from repro.verify import (FootprintRecorder, InvariantViolation,
                          MonitorSuite, SerializabilityOracle, explore,
                          shrink_failure, verify_run, verify_suite)
from repro.workloads.microbench import single_counter

from tests.conftest import small_config


def _spec(workload="single-counter", scheme=SyncScheme.TLR, num_cpus=4,
          ops=64, seed=0, **config_overrides) -> RunSpec:
    config = SystemConfig(num_cpus=num_cpus, scheme=scheme, seed=seed,
                          max_cycles=20_000_000, **config_overrides)
    return RunSpec(workload, config, {SIZE_PARAM[workload]: ops})


class TestVerifyRun:
    @pytest.mark.parametrize("workload, overrides", [
        pytest.param("single-counter", {}, id="single-counter"),
        pytest.param("multiple-counter", {}, id="multiple-counter"),
        pytest.param("linked-list", {}, id="linked-list"),
        pytest.param("linked-list", {"protocol": "directory", "seed": 1},
                     id="linked-list-directory"),
    ])
    def test_clean_tlr_run_passes(self, workload, overrides):
        result, _ = verify_run(_spec(workload, **overrides))
        assert result.ok, result.headline()
        assert result.num_txns > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_directory_run_where_probes_dominate_passes(self, seed):
        """16 CPUs on the directory protocol: thousands of probes a run
        (against a few dozen at 4 CPUs), and a probe beats both an owner
        and a mid-chain node along the way."""
        result, _ = verify_run(_spec("linked-list", num_cpus=16, seed=seed,
                                     protocol="directory"))
        assert result.ok, result.headline()
        counters = result.metrics["counters"]
        assert counters["probe.sent"] > 1000
        assert counters["restart.reason.probe-lost"] > 0
        assert counters["restart.reason.probe-lost-pending"] > 0

    @pytest.mark.parametrize("scheme", [SyncScheme.SLE, SyncScheme.BASE,
                                        SyncScheme.MCS])
    def test_other_schemes_pass(self, scheme):
        result, _ = verify_run(_spec(scheme=scheme))
        assert result.ok, result.headline()

    def test_chaos_mode_passes(self):
        result, _ = verify_run(_spec("linked-list", schedule_chaos=3))
        assert result.ok, result.headline()

    def test_recorder_does_not_perturb_execution(self):
        cfg = small_config(4, SyncScheme.TLR)
        plain = Machine(cfg)
        plain_stats = plain.run_workload(single_counter(4, 64))

        instrumented = Machine(small_config(4, SyncScheme.TLR))
        recorder = FootprintRecorder().attach(instrumented)
        monitors = MonitorSuite(instrumented).attach()
        wrapped_stats = instrumented.run_workload(single_counter(4, 64))

        assert wrapped_stats.total_cycles == plain_stats.total_cycles
        assert plain.store.snapshot() == instrumented.store.snapshot()
        assert not monitors.violations
        assert len(recorder.committed) > 0

    def test_directly_built_suite_checks_strict_exclusivity(self):
        """One cache holds the line writable (E) while another still
        holds a valid (S) copy: no single-writer or single-owner rule
        breaks, only the strict MOESI one."""
        from repro.coherence.states import State
        machine = Machine(small_config(2, SyncScheme.TLR))
        monitors = MonitorSuite(machine)
        line_addr = 0x40
        for ctl, state in zip(machine.controllers,
                              (State.EXCLUSIVE, State.SHARED)):
            ctl.cache.install(line_addr, state)
        with pytest.raises(InvariantViolation, match="still hold valid"):
            monitors.on_line_state(0, 0, "line-state", (line_addr,),
                                   machine.controllers[0])
        assert [v.kind for v in monitors.violations] == ["coherence"]

    def test_committed_footprints_are_recorded(self):
        spec = _spec(ops=32)
        machine = Machine(spec.config)
        recorder = FootprintRecorder().attach(machine)
        machine.run_workload(spec.build_workload())
        assert len(recorder.committed) == 32  # one txn per increment
        sample = recorder.committed[-1]
        assert sample.writes and sample.commit_time > 0
        # Every non-first increment read the counter from memory.
        assert any(t.reads for t in recorder.committed)


class TestExplore:
    def test_seed_fanout_passes_and_caches(self, tmp_path):
        spec = _spec(ops=48)
        first = explore(spec, seeds=6, cache=tmp_path)
        assert first.ok, first.summary()
        assert len(first.results) == 6
        assert {r.seed for r in first.results} == set(range(6))
        again = explore(spec, seeds=6, cache=tmp_path)
        assert again.ok and again.cache_hits == 6

    def test_parallel_matches_serial(self, tmp_path):
        spec = _spec("linked-list", ops=48)
        serial = explore(spec, seeds=4, jobs=1, cache=False)
        parallel = explore(spec, seeds=4, jobs=2, cache=False)
        assert [r.to_dict() | {"elapsed": 0} for r in serial.results] == \
            [r.to_dict() | {"elapsed": 0} for r in parallel.results]


@pytest.fixture
def inverted_timestamps(monkeypatch):
    """Break TLR's conflict resolution: later timestamps win.  The
    earliest transaction now loses every conflict -- deferral-order
    invariants and (on contended runs) serializability both fail."""

    def inverted(challenger, incumbent):
        if challenger is None or incumbent is None:
            return real_beats(challenger, incumbent)
        return not real_beats(challenger, incumbent)

    # Conflict resolution lives in the contention-policy layer now;
    # invert the comparison everywhere the default policy consults it.
    monkeypatch.setattr(policy_base_module, "beats", inverted)
    monkeypatch.setattr(policy_timestamp_module, "beats", inverted)


@pytest.fixture
def ignored_losses(monkeypatch):
    """Break conflict handling harder: a losing speculation keeps
    running on stale data instead of restarting (lost updates)."""
    monkeypatch.setattr(
        controller_module.CacheController, "_handle_loss",
        lambda self, reason, line_addr, ts=None, aborter=-1: None)


class TestMutationDetection:
    def test_inverted_timestamps_caught_and_shrunk(self,
                                                   inverted_timestamps):
        spec = replace(_spec("linked-list", num_cpus=8, ops=128),
                       validate=False)
        exploration = explore(spec, seeds=8, cache=False)
        assert exploration.failures, \
            "inverted conflict resolution escaped 8 seeds"
        failing = exploration.failures[0]

        shrunk = shrink_failure(spec.with_seed(failing.seed))
        assert not shrunk.result.ok
        # The replayable log of the minimal schedule lands in the
        # auto-capture directory, never in the working tree.
        assert shrunk.result.record_log.startswith(
            os.environ["REPRO_ARTIFACT_DIR"])
        # Shrinking found a smaller reproduction and rendered a trace.
        assert shrunk.spec.workload_args[SIZE_PARAM["linked-list"]] <= 128
        assert shrunk.spec.config.num_cpus <= 8
        rendering = shrunk.render()
        assert "minimal reproduction" in rendering
        assert "failure:" in rendering
        assert any(ch.isdigit() for ch in shrunk.trace)

    def test_ignored_losses_caught_by_oracle_alone(self, ignored_losses):
        # No monitors attached: the serializability oracle must catch
        # the lost updates by itself.
        spec = _spec(ops=64)
        machine = Machine(spec.config)
        recorder = FootprintRecorder().attach(machine)
        machine.run_workload(spec.build_workload(), validate=False)
        report = SerializabilityOracle(recorder).check(
            machine.store.snapshot())
        assert not report.ok
        assert any("stale-read" in str(v) or "final-state" in str(v)
                   for v in report.violations)


class TestVerifySuite:
    def test_suite_over_two_workloads(self, tmp_path):
        result = verify_suite(("single-counter", "linked-list"),
                              seeds=4, ops=48, cache=tmp_path)
        assert result.ok, result.render()
        assert set(result.explorations) == {"single-counter",
                                            "linked-list"}
        assert result.shrunk is None
        payload = result.to_dict()
        assert payload["ok"] and set(payload["workloads"]) == \
            {"single-counter", "linked-list"}
