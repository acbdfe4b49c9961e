"""Schema-versioned serialization: every result ``to_dict`` carries a
``"schema"`` field and every ``from_dict`` round-trips it -- and fails
loudly (``SchemaError``) on missing or mismatched versions instead of
silently mis-parsing a payload from another era."""

import pytest

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.experiments import (AppResult, PolicyGridResult,
                                       SweepResult)
from repro.harness.jobs import JobResult
from repro.harness.parallel import FailedRun
from repro.harness.runner import RunResult, execute_workload
from repro.harness.spec import (JOBSPEC_SCHEMA, RESULT_SCHEMA, JobSpec,
                                RunSpec, SchemaError, check_schema,
                                stamp_schema)
from repro.workloads.microbench import single_counter


def _failed_run():
    return FailedRun(workload="single-counter", scheme="TLR", num_cpus=2,
                     seed=0, fingerprint="f" * 64, error="SimulationError",
                     message="livelock", attempts=3, seeds_tried=[0, 1, 2])


def _sweep_result():
    return SweepResult(name="figure9", processor_counts=[2, 4],
                       series={SyncScheme.BASE: [100, 200],
                               SyncScheme.TLR: [50, None]},
                       extra={"note": {"k": 1}},
                       failures=[_failed_run()])


def _app_result():
    per = {SyncScheme.BASE: 100, SyncScheme.TLR: 40}
    return AppResult(name="mp3d", cycles=dict(per), lock_cycles=dict(per),
                     restarts={SyncScheme.TLR: 2},
                     resource_fallbacks={SyncScheme.TLR: 0},
                     critical_sections=dict(per),
                     failures=[_failed_run()])


def _grid_result():
    grid = PolicyGridResult(policies=["timestamp"], workloads=["mp3d"],
                            processor_counts=[2], seeds=1)
    grid.cells[grid.key("timestamp", "mp3d", 2)] = {"ok": True,
                                                    "cycles": 123}
    return grid


class TestStampAndCheck:
    def test_stamp_adds_current_version_in_place(self):
        payload = {"x": 1}
        assert stamp_schema(payload) is payload
        assert payload["schema"] == RESULT_SCHEMA

    def test_check_accepts_current_version(self):
        check_schema({"schema": RESULT_SCHEMA}, "Thing")  # no raise

    def test_missing_schema_fails_loudly(self):
        with pytest.raises(SchemaError, match="Thing"):
            check_schema({"x": 1}, "Thing")

    def test_wrong_version_fails_loudly(self):
        with pytest.raises(SchemaError, match="schema v999"):
            check_schema({"schema": 999}, "Thing")

    def test_schema_error_degrades_like_stale_cache(self):
        # Cache readers catch (KeyError, TypeError, ValueError) and
        # re-simulate; SchemaError must be caught by those handlers.
        assert issubclass(SchemaError, ValueError)


class TestRoundTrips:
    def test_run_result(self):
        cfg = SystemConfig(num_cpus=2, scheme=SyncScheme.TLR,
                           max_cycles=20_000_000)
        result = execute_workload(single_counter(2, 16), cfg)
        data = result.to_dict()
        assert data["schema"] == RESULT_SCHEMA
        clone = RunResult.from_dict(data)
        assert clone.to_dict() == data
        assert clone.cycles == result.cycles

    def test_failed_run(self):
        data = _failed_run().to_dict()
        assert data["schema"] == RESULT_SCHEMA
        clone = FailedRun.from_dict(data)
        assert clone.to_dict() == data
        assert clone.seeds_tried == [0, 1, 2]

    def test_sweep_result(self):
        data = _sweep_result().to_dict()
        assert data["schema"] == RESULT_SCHEMA
        clone = SweepResult.from_dict(data)
        assert clone.to_dict() == data
        assert clone.cycles(SyncScheme.BASE, 4) == 200

    def test_app_result(self):
        data = _app_result().to_dict()
        assert data["schema"] == RESULT_SCHEMA
        clone = AppResult.from_dict(data)
        assert clone.to_dict() == data
        assert clone.speedup(SyncScheme.TLR) == pytest.approx(2.5)

    def test_policy_grid_result(self):
        data = _grid_result().to_dict()
        assert data["schema"] == RESULT_SCHEMA
        clone = PolicyGridResult.from_dict(data)
        assert clone.to_dict() == data
        assert clone.ok

    def test_job_result(self):
        job = JobResult(kind="sweep", fingerprint="a" * 64,
                        result={"schema": RESULT_SCHEMA, "name": "x"},
                        telemetry={"simulated": 3}, cached=False,
                        elapsed=1.5, extra={"note": "hi"})
        data = job.to_dict()
        assert data["schema"] == RESULT_SCHEMA
        clone = JobResult.from_dict(data)
        assert clone.to_dict() == data

    def test_jobspec(self):
        spec = JobSpec.sweep("figure9", processor_counts=[2, 4],
                             total_increments=64)
        data = spec.to_dict()
        assert data["schema"] == JOBSPEC_SCHEMA
        clone = JobSpec.from_dict(data)
        assert clone.to_dict() == data
        assert clone.fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize("cls", [RunResult, FailedRun, SweepResult,
                                     AppResult, PolicyGridResult,
                                     JobResult])
    def test_from_dict_rejects_unversioned_payload(self, cls):
        with pytest.raises(SchemaError):
            cls.from_dict({"name": "x"})


class TestJobSpecContract:
    def test_fingerprint_is_stable_across_dict_round_trip(self):
        spec = JobSpec.run(RunSpec(workload="single-counter",
                                   config=SystemConfig(num_cpus=2),
                                   workload_args={"total_increments": 16}))
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.fingerprint() == spec.fingerprint()

    def test_kinds_differ_in_fingerprint(self):
        sweep = JobSpec.sweep("verify", num_cpus=2)
        verify = JobSpec.verify(num_cpus=2)
        assert sweep.fingerprint() != verify.fingerprint()

    def test_retired_perf_kind_is_rejected(self):
        # "sched" grids are "sweep" jobs naming the "sched" experiment.
        for kind in ("perf", "sched"):
            with pytest.raises(ValueError,
                               match=f"unknown job kind '{kind}'"):
                JobSpec.from_dict({"schema": JOBSPEC_SCHEMA, "kind": kind,
                                   "params": {}})
