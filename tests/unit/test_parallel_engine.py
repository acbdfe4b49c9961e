"""Unit tests for the parallel sweep engine: a livelocked or timed-out
run is one FailedRun at its requested seed, wall-clock timeouts, cache
integration, telemetry, and the unified ``repro.harness.run``
dispatch."""

import os
import threading

import pytest

import repro.harness.parallel as parallel
from repro.harness import run as harness_run
from repro.harness.cache import ResultCache
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.parallel import FailedRun, execute
from repro.harness.runner import RunResult
from repro.harness.spec import RunSpec
from repro.runtime.program import ValidationError
from repro.sim.kernel import SimulationError
from repro.workloads.microbench import single_counter


def _spec(seed=0, ops=32, cpus=2, max_cycles=20_000_000) -> RunSpec:
    return RunSpec(workload="single-counter",
                   config=SystemConfig(num_cpus=cpus, seed=seed,
                                       max_cycles=max_cycles),
                   workload_args={"total_increments": ops})


class TestFailuresAreFindings:
    def test_livelock_is_one_failed_run_at_its_seed(self, monkeypatch):
        seeds = []

        def stuck(spec, timeout):
            seeds.append(spec.config.seed)
            raise SimulationError("synthetic livelock")

        monkeypatch.setattr(parallel, "_simulate", stuck)
        outcomes, telemetry = execute([_spec(seed=5)], jobs=1)
        (failed,) = outcomes
        assert seeds == [5]
        assert failed == FailedRun(
            workload="single-counter", scheme="TLR", num_cpus=2, seed=5,
            fingerprint=_spec(seed=5).fingerprint(),
            error="SimulationError", message="synthetic livelock")
        assert (telemetry.failures, telemetry.simulated,
                telemetry.timeouts) == (1, 0, 0)

    def test_real_cycle_budget_overrun_degrades_not_raises(self):
        # max_cycles far below what the run needs: the run overruns,
        # the sweep still completes.
        ok, bad = _spec(), _spec(max_cycles=500)
        outcomes, telemetry = execute([ok, bad, ok], jobs=1)
        assert isinstance(outcomes[0], RunResult)
        assert isinstance(outcomes[1], FailedRun)
        assert isinstance(outcomes[2], RunResult)
        assert "cycle budget" in outcomes[1].message
        assert outcomes[1].seed == 0
        assert (telemetry.failures, telemetry.simulated) == (1, 2)

    def test_validation_error_is_raised(self, monkeypatch):
        calls = []

        def broken(spec, timeout):
            calls.append(spec.config.seed)
            raise ValidationError("memory image wrong")

        monkeypatch.setattr(parallel, "_simulate", broken)
        with pytest.raises(ValidationError):
            execute([_spec()], jobs=1)
        assert len(calls) == 1


def _long_spec() -> RunSpec:
    """A run of well over a millisecond: thousands of kernel events."""
    return RunSpec(workload="linked-list",
                   config=SystemConfig(num_cpus=8),
                   workload_args={"total_ops": 256})


class TestTimeout:
    def test_timed_out_run_is_one_failed_run_after_one_window(
            self, monkeypatch):
        real, windows = parallel._simulate, []

        def counted(spec, timeout):
            windows.append((spec.config.seed, timeout))
            return real(spec, timeout)

        monkeypatch.setattr(parallel, "_simulate", counted)
        outcomes, telemetry = execute([_long_spec()], jobs=1, timeout=0.001)
        (failed,) = outcomes
        assert windows == [(0, 0.001)]
        assert isinstance(failed, FailedRun)
        assert (failed.error, failed.seed) == ("RunTimeout", 0)
        assert (telemetry.failures, telemetry.timeouts,
                telemetry.simulated) == (1, 1, 0)

    def test_timeout_fires_off_the_main_thread(self):
        # A `repro serve` worker runs a jobs=1 job in its own thread.
        box = {}
        thread = threading.Thread(target=lambda: box.update(
            outcomes=execute([_long_spec()], jobs=1, timeout=0.001)[0]))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        (failed,) = box["outcomes"]
        assert isinstance(failed, FailedRun)
        assert failed.error == "RunTimeout"

    def test_timed_out_verified_cell_is_a_failing_verdict(self):
        (verdict,), telemetry = execute([_long_spec()], jobs=1,
                                        timeout=0.001, verified=True)
        assert not verdict.ok
        assert verdict.error.startswith("RunTimeout")
        assert (telemetry.failures, telemetry.timeouts) == (1, 1)

    def test_timed_out_verdict_is_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        (cut,), first = execute([_long_spec()], jobs=1, timeout=0.001,
                                cache=cache, verified=True)
        assert cut.error.startswith("RunTimeout")
        (verdict,), second = execute([_long_spec()], jobs=1, cache=cache,
                                     verified=True)
        assert second.cache_hits == 0
        assert verdict.ok
        assert (first.timeouts, second.timeouts) == (1, 0)


class TestVerifiedCells:
    def test_jobs_zero_means_one_per_cpu(self):
        _, telemetry = execute([_spec()], jobs=0, verified=True)
        assert telemetry.jobs == os.cpu_count()

    def test_verdict_cached_under_its_verification_fingerprint(
            self, tmp_path):
        from repro.verify.explorer import verify_fingerprint
        cache = ResultCache(tmp_path)
        (first,), cold = execute([_spec()], cache=cache, verified=True)
        entry = cache.get(verify_fingerprint(_spec()))
        assert set(entry) == {"spec", "verdict"}
        assert entry["verdict"] == first.to_dict()
        assert cache.get(_spec().fingerprint()) is None
        (second,), warm = execute([_spec()], cache=cache, verified=True)
        assert (cold.simulated, warm.cache_hits) == (1, 1)
        assert second.to_dict() == first.to_dict()


class TestCacheIntegration:
    def test_second_execute_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [_spec(seed=0), _spec(seed=1)]
        first, t1 = execute(specs, jobs=1, cache=cache)
        second, t2 = execute(specs, jobs=1, cache=cache)
        assert t1.simulated == 2 and t1.cache_hits == 0
        assert t2.simulated == 0 and t2.cache_hits == 2
        assert [r.cycles for r in first] == [r.cycles for r in second]

    def test_changed_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute([_spec(seed=0)], jobs=1, cache=cache)
        _, telemetry = execute([_spec(seed=99)], jobs=1, cache=cache)
        assert telemetry.cache_hits == 0 and telemetry.simulated == 1

    def test_invalidated_entry_is_resimulated(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        execute([spec], jobs=1, cache=cache)
        cache.invalidate(spec.fingerprint())
        _, telemetry = execute([spec], jobs=1, cache=cache)
        assert telemetry.cache_hits == 0 and telemetry.simulated == 1

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = _spec(max_cycles=500)
        execute([bad], jobs=1, cache=cache)
        assert len(cache) == 0
        _, telemetry = execute([bad], jobs=1, cache=cache)
        assert telemetry.cache_hits == 0

    def test_schema1_entry_of_a_bumped_seed_is_resimulated(self, tmp_path):
        # An entry written while the engine still retried livelocks
        # under bumped seeds: it may hold another seed's run under this
        # spec's key.  Its schema no longer matches, so it is dropped.
        cache = ResultCache(tmp_path)
        spec = _spec(seed=5)
        (fresh,), _ = execute([spec], jobs=1, cache=cache)
        entry = cache.get(spec.fingerprint())
        entry["result"].update(schema=1, attempts=2, seed_used=1_000_008)
        entry["result"]["stats"]["total_cycles"] += 1
        cache.put(spec.fingerprint(), entry)
        (again,), telemetry = execute([spec], jobs=1, cache=cache)
        assert (telemetry.cache_hits, telemetry.simulated) == (0, 1)
        assert again.to_dict() == fresh.to_dict()
        stored = cache.get(spec.fingerprint())["result"]
        assert stored == fresh.to_dict()
        assert "attempts" not in stored and "seed_used" not in stored

    def test_progress_callback_sees_every_run(self, tmp_path):
        seen = []
        execute([_spec(seed=0), _spec(seed=1)], jobs=1,
                progress=lambda done, total, outcome:
                seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestUnifiedRun:
    def test_runspec_returns_runresult(self):
        result = harness_run(_spec())
        assert isinstance(result, RunResult)
        assert result.cycles > 0

    def test_failed_spec_returns_failed_run(self):
        outcome = harness_run(_spec(max_cycles=500))
        assert isinstance(outcome, FailedRun)

    def test_workload_legacy_path(self):
        result = harness_run(single_counter(2, 32),
                             SystemConfig(num_cpus=2,
                                          max_cycles=20_000_000))
        assert isinstance(result, RunResult)
        assert result.workload_name == "single-counter"

    def test_experiment_by_name(self):
        sweep = harness_run("figure9", total_increments=32,
                            processor_counts=(2,),
                            include_strict_ts=False)
        assert sweep.cycles(SyncScheme.TLR, 2) > 0

    def test_unknown_experiment_name(self):
        with pytest.raises(KeyError, match="registered"):
            harness_run("figure99")

    def test_bad_spec_type(self):
        with pytest.raises(TypeError, match="cannot run"):
            harness_run(42)

    def test_validate_false_propagates(self):
        result = harness_run(_spec(), validate=False)
        assert isinstance(result, RunResult)


class TestShimRemoval:
    def test_runner_exposes_only_execute_workload(self):
        import repro.harness.runner as runner
        assert callable(runner.execute_workload)
        for name in ("run", "run_scheme", "compare_schemes"):
            assert not hasattr(runner, name)
