"""Integration: the parallel sweep engine against real figure sweeps.

The load-bearing guarantee is determinism -- ``jobs=4`` must be
bit-identical to ``jobs=1`` for the same seeds -- plus cache
incrementality and livelock degradation at the figure level.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.harness.cache import ResultCache
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.parallel import FailedRun, execute, run, use_engine
from repro.harness.report import sweep_table
from repro.harness.runner import result_fingerprint
from repro.harness.spec import RunSpec
from repro.sim.kernel import SimulationError

PROCS = (2, 4)
OPS = 64


def _cfg(seed=0, max_cycles=20_000_000) -> SystemConfig:
    return SystemConfig(seed=seed, max_cycles=max_cycles)


def figure9(**params):
    return run("figure9", **params)


def figure9_telemetry(**params):
    """The sweep plus the telemetry of its one engine call."""
    with use_engine() as calls:
        sweep = figure9(**params)
    assert len(calls) == 1
    return sweep, calls[0].to_dict()


class TestParallelSerialEquivalence:
    def test_figure9_jobs4_matches_jobs1_bit_for_bit(self):
        serial = figure9(total_increments=OPS,
                         processor_counts=PROCS,
                         config=_cfg(), jobs=1)
        fanned = figure9(total_increments=OPS,
                         processor_counts=PROCS,
                         config=_cfg(), jobs=4)
        assert serial.series == fanned.series
        for scheme in serial.series:
            for n in PROCS:
                assert serial.cycles(scheme, n) == fanned.cycles(scheme, n)
        assert not serial.failures and not fanned.failures

    def test_parallel_telemetry_reports_every_run(self):
        sweep, telemetry = figure9_telemetry(total_increments=OPS,
                                             processor_counts=PROCS,
                                             config=_cfg(), jobs=4)
        expected = len(sweep.series) * len(PROCS)
        assert telemetry["total_runs"] == expected
        assert telemetry["simulated"] == expected
        assert telemetry["jobs"] == 4


class TestSweepCaching:
    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(total_increments=OPS, processor_counts=PROCS,
                      config=_cfg(), cache=cache)
        first, first_telemetry = figure9_telemetry(jobs=2, **kwargs)
        second, second_telemetry = figure9_telemetry(jobs=2, **kwargs)
        assert second_telemetry["cache_hits"] == \
            first_telemetry["total_runs"]
        assert second_telemetry["simulated"] == 0
        assert first.series == second.series

    def test_cached_and_parallel_agree_with_serial(self, tmp_path):
        serial = figure9(total_increments=OPS,
                         processor_counts=PROCS,
                         config=_cfg(), jobs=1)
        cached = figure9(total_increments=OPS,
                         processor_counts=PROCS,
                         config=_cfg(), jobs=2,
                         cache=ResultCache(tmp_path))
        assert serial.series == cached.series


class TestLivelockDegradation:
    def test_one_pathological_config_does_not_abort_the_sweep(self):
        # One spec gets a cycle budget it cannot meet; the engine must
        # finish the others and report the failure in place.
        good = [RunSpec(workload="single-counter", config=_cfg(),
                        workload_args={"total_increments": OPS})
                for _ in range(2)]
        good[1].config.num_cpus = 4
        bad = RunSpec(workload="single-counter",
                      config=_cfg(max_cycles=500),
                      workload_args={"total_increments": OPS})
        outcomes, telemetry = execute([good[0], bad, good[1]], jobs=4)
        assert not isinstance(outcomes[0], FailedRun)
        assert isinstance(outcomes[1], FailedRun)
        assert not isinstance(outcomes[2], FailedRun)
        assert outcomes[1].seed == 0
        assert (telemetry.failures, telemetry.simulated) == (1, 2)

    def test_figure_level_failure_lands_in_failures_list(self):
        sweep = figure9(
            total_increments=OPS, processor_counts=PROCS,
            config=_cfg(max_cycles=3500), jobs=2)
        assert sweep.failures, "expected at least one failed cell"
        # TLR still completes at some point of the sweep even under
        # this budget; the sweep as a whole must not have aborted.
        assert any(value is not None
                   for series in sweep.series.values()
                   for value in series)
        for failed in sweep.failures:
            assert failed.error in ("SimulationError", "DeadlockError")
            assert failed.seed == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_livelocked_cell_is_one_failed_run_at_its_seed(
            self, jobs, tmp_path):
        # Under this budget at seed 2, TLR on 2 CPUs livelocks (it
        # completed only at a bumped seed while the engine retried).
        kwargs = dict(total_increments=OPS, processor_counts=PROCS,
                      config=_cfg(seed=2, max_cycles=5080),
                      include_strict_ts=False)
        serial = figure9(jobs=1, **kwargs)
        sweep, telemetry = figure9_telemetry(
            jobs=jobs, cache=ResultCache(tmp_path), **kwargs)
        assert sweep.to_dict() == serial.to_dict()
        tlr = [f for f in sweep.failures if f.scheme == "TLR"]
        assert [(f.num_cpus, f.seed, f.error) for f in tlr] == \
            [(2, 2, "SimulationError")]
        assert "cycle budget exhausted at 5080" in tlr[0].message
        assert sweep.series[SyncScheme.TLR][0] is None
        assert telemetry["simulated"] == 8 - len(sweep.failures)
        assert telemetry["failures"] == len(sweep.failures)
        # A failure is not cached: a re-run simulates it again.
        again, replay = figure9_telemetry(
            jobs=jobs, cache=ResultCache(tmp_path), **kwargs)
        assert again.to_dict() == sweep.to_dict()
        assert (replay["cache_hits"], replay["simulated"]) == \
            (telemetry["simulated"], 0)
        assert "FAIL" in sweep_table(sweep)

    def test_experiment_that_needs_a_failed_run_names_its_seed(self):
        # The call that used to return seed 1000005's run as seed 2's.
        with pytest.raises(SimulationError,
                           match=r"'single-counter', TLR, 4 cpus, seed 2"):
            repro.run("figure7", config=_cfg(seed=2, max_cycles=12100))
        assert repro.run("figure7", config=_cfg(seed=2))["cycles"] == 12233


class TestParallelFigureShape:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_tlr_beats_base_under_contention_any_jobs(self, jobs):
        sweep = figure9(total_increments=256,
                        processor_counts=(4,),
                        config=_cfg(), jobs=jobs,
                        include_strict_ts=False)
        assert sweep.cycles(SyncScheme.TLR, 4) < \
            sweep.cycles(SyncScheme.BASE, 4)


# Runs in a child process, so a sweep that hangs on a lost worker fails
# the test at the subprocess timeout instead of hanging the suite.
_KILL_ONE_WORKER = """
import json, os, signal, sys
from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.harness.spec import RunSpec

marker, cache_dir, specs = sys.argv[1], sys.argv[2], sys.argv[3]
simulate = parallel._simulate

def killed_once(spec, timeout):
    # The seed-3 cell SIGKILLs the forked worker running it, once.
    if spec.config.seed == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate(spec, timeout)

parallel._simulate = killed_once
landed = []
try:
    parallel.execute([RunSpec.from_dict(d) for d in json.loads(specs)],
                     jobs=2, cache=ResultCache(cache_dir),
                     progress=lambda done, total, outcome: landed.append(done))
except Exception as exc:
    print(json.dumps({"error": type(exc).__name__, "landed": len(landed)}))
else:
    print(json.dumps({"error": None, "landed": len(landed)}))
"""

_KILL_THE_PARENT = """
import json, multiprocessing, os, signal, sys
from repro.harness.parallel import process_pool

pool = process_pool(2, persistent=sys.argv[1] == "persistent")
for future in [pool.submit(abs, n) for n in range(8)]:
    future.result()
print(json.dumps([p.pid for p in multiprocessing.active_children()]),
      flush=True)
os.kill(os.getpid(), signal.SIGKILL)  # no shutdown, no atexit
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _child_env() -> dict:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


class TestWorkerLoss:
    def test_killed_worker_raises_and_the_rerun_simulates_the_rest(
            self, tmp_path):
        specs = [RunSpec(workload="single-counter", config=_cfg(seed=seed),
                         workload_args={"total_increments": 32})
                 for seed in range(8)]
        child = subprocess.run(
            [sys.executable, "-c", _KILL_ONE_WORKER, str(tmp_path / "killed"),
             str(tmp_path / "cache"),
             json.dumps([spec.to_dict() for spec in specs])],
            capture_output=True, text=True, env=_child_env(), timeout=60)
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        assert report["error"] == "BrokenProcessPool"
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == report["landed"] < len(specs)

        outcomes, telemetry = execute(specs, jobs=2, cache=cache)
        assert telemetry.cache_hits == report["landed"]
        assert telemetry.simulated == len(specs) - report["landed"]
        serial, _ = execute(specs, jobs=1)
        assert [result_fingerprint(o) for o in outcomes] == \
            [result_fingerprint(o) for o in serial]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads process states from /proc")
    @pytest.mark.parametrize("kind", ["per-call", "persistent"])
    def test_workers_exit_when_the_parent_is_killed(self, kind, tmp_path):
        # A file, not a pipe: an orphaned worker would hold a pipe open.
        with open(tmp_path / "pids", "w") as out:
            subprocess.run([sys.executable, "-c", _KILL_THE_PARENT, kind],
                           stdout=out, env=_child_env(), timeout=60)
        workers = json.loads((tmp_path / "pids").read_text())
        assert workers
        deadline = time.monotonic() + 20
        try:
            while any(_running(pid) for pid in workers):
                assert time.monotonic() < deadline, "orphaned pool workers"
                time.sleep(0.05)
        finally:
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)
