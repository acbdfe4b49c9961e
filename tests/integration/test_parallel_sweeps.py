"""Integration: the parallel sweep engine against real figure sweeps.

The load-bearing guarantee is determinism -- ``jobs=4`` must be
bit-identical to ``jobs=1`` for the same seeds -- plus cache
incrementality and livelock degradation at the figure level.
"""

import pytest

from repro.harness.cache import ResultCache
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.parallel import FailedRun, execute, run, use_engine
from repro.harness.spec import RunSpec

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
        outcomes, telemetry = execute([good[0], bad, good[1]],
                                      jobs=4, retries=1)
        assert not isinstance(outcomes[0], FailedRun)
        assert isinstance(outcomes[1], FailedRun)
        assert not isinstance(outcomes[2], FailedRun)
        assert outcomes[1].attempts == 2
        assert telemetry.failures == 1

    def test_figure_level_failure_lands_in_failures_list(self):
        sweep = figure9(
            total_increments=OPS, processor_counts=PROCS,
            config=_cfg(max_cycles=3500), jobs=2, retries=1)
        assert sweep.failures, "expected at least one failed cell"
        # TLR still completes at some point of the sweep even under
        # this budget; the sweep as a whole must not have aborted.
        assert any(value is not None
                   for series in sweep.series.values()
                   for value in series)
        for failed in sweep.failures:
            assert failed.error in ("SimulationError", "DeadlockError")
            assert failed.attempts == 2


class TestParallelFigureShape:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_tlr_beats_base_under_contention_any_jobs(self, jobs):
        sweep = figure9(total_increments=256,
                        processor_counts=(4,),
                        config=_cfg(), jobs=jobs,
                        include_strict_ts=False)
        assert sweep.cycles(SyncScheme.TLR, 4) < \
            sweep.cycles(SyncScheme.BASE, 4)
