"""Job envelope (``submit(JobSpec)``), job-level cache replay, cache
statistics persistence, and incremental invalidation planning."""

import json
import threading

import pytest

from repro.harness import invalidate, jobs
from repro.harness.cache import ResultCache
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.jobs import JOB_CACHE_PREFIX, submit
from repro.harness.spec import JobSpec, RunSpec


def _run_spec():
    return RunSpec(workload="single-counter",
                   config=SystemConfig(num_cpus=2, scheme=SyncScheme.TLR,
                                       max_cycles=20_000_000),
                   workload_args={"total_increments": 16})


class TestSubmit:
    def test_run_job_and_replay(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        spec = JobSpec.run(_run_spec())

        first = submit(spec, cache=store)
        assert first.result["ok"] is True
        assert first.cached is False
        assert (first.telemetry or {}).get("simulated") == 1

        second = submit(spec, cache=store)
        assert second.cached is True
        assert second.telemetry is None  # nothing executed
        assert second.result == first.result

    def test_timed_out_job_is_not_cached(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        spec = JobSpec.run(RunSpec(workload="linked-list",
                                   config=SystemConfig(num_cpus=8),
                                   workload_args={"total_ops": 256}))
        cut = submit(spec, cache=store, timeout=0.001)
        assert cut.result["ok"] is False
        assert cut.result["outcome"]["error"] == "RunTimeout"
        again = submit(spec, cache=store)
        assert again.cached is False
        assert again.result["ok"] is True

    def test_corrupt_job_entry_degrades_to_re_execution(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        spec = JobSpec.run(_run_spec())
        submit(spec, cache=store)

        key = JOB_CACHE_PREFIX + spec.fingerprint()
        store.put(key, {"garbage": True})  # unversioned / wrong shape
        replay = submit(spec, cache=store)
        assert replay.cached is False  # fell back to simulating
        assert replay.result["ok"] is True

    def test_verify_job(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        job = submit(JobSpec.verify(workloads=["single-counter"],
                                    num_cpus=2, seeds=1, ops=8),
                     cache=store)
        assert job.result["ok"] is True
        assert "single-counter" in job.result["workloads"]

    def test_concurrent_jobs_report_their_own_telemetry(self, monkeypatch):
        # Both jobs finish their engine calls before either reads its
        # telemetry, so a module-wide "last telemetry" would hand both
        # the same numbers.
        barrier = threading.Barrier(2, timeout=60)
        serialize = jobs.serialize_result

        def serialize_after_both(value):
            barrier.wait()
            return serialize(value)

        monkeypatch.setattr(jobs, "serialize_result", serialize_after_both)
        sizes = {"small": [2], "large": [2, 4, 6]}
        results = {}

        def run(name):
            spec = JobSpec.sweep("figure9", total_increments=16,
                                 processor_counts=sizes[name])
            results[name] = submit(spec, cache=False)

        threads = [threading.Thread(target=run, args=(name,))
                   for name in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        for name, counts in sizes.items():
            cells = len(results[name].result["series"]) * len(counts)
            assert results[name].telemetry["total_runs"] == cells

    def test_no_cache_always_executes(self):
        spec = JobSpec.run(_run_spec())
        first = submit(spec, cache=False)
        second = submit(spec, cache=False)
        assert not first.cached and not second.cached
        assert first.result == second.result  # deterministic engine


class TestCacheStats:
    def test_submit_persists_lifetime_counters(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        spec = JobSpec.run(_run_spec())
        submit(spec, cache=store)   # miss + put
        submit(spec, cache=store)   # job-level hit
        stats = store.stats()
        assert stats["entries"] >= 2  # run cell + job envelope
        assert stats["bytes"] > 0
        # submit() folds session counters into the on-disk stats, so a
        # *fresh* instance (a later `repro cache --stats`) sees them.
        reloaded = ResultCache(tmp_path / "cache").stats()
        assert reloaded["hits"] >= 1
        assert reloaded["misses"] >= 1
        assert reloaded["session_hits"] == 0

    def test_persist_counters_merges_and_resets(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        store.get("0" * 64)  # miss
        assert store.stats()["session_misses"] == 1
        store.persist_counters()
        assert store.stats()["session_misses"] == 0
        assert store.stats()["misses"] == 1
        store.get("0" * 64)  # second miss, second merge
        store.persist_counters()
        assert ResultCache(tmp_path / "cache").stats()["misses"] == 2

    def test_clear_preserves_stats_file(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        submit(JobSpec.run(_run_spec()), cache=store)
        store.persist_counters()
        store.clear()
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.stats()["entries"] == 0
        assert fresh.stats()["misses"] > 0  # lifetime counters survive


class TestInvalidate:
    def _write_artifact(self, repo, bench, config, results=None):
        payload = {"bench": bench, "config": config,
                   "results": results or {}}
        (repo / f"BENCH_{bench}.json").write_text(json.dumps(payload))

    def test_plan_regenerate_plan_cycle(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        store = ResultCache(tmp_path / "cache")
        self._write_artifact(repo, "fig07_queue",
                             {"num_cpus": 2, "total_increments": 16})

        plans = invalidate.plan(repo, cache=store)
        assert len(plans) == 1
        assert plans[0].total == 1 and len(plans[0].stale) == 1

        summary = invalidate.regenerate(plans, cache=store)
        assert summary["simulated"] == 1
        assert summary["failures"] == 0

        replanned = invalidate.plan(repo, cache=store)
        assert replanned[0].fresh == 1 and not replanned[0].stale

    def test_shared_cells_deduplicated_across_artifacts(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        store = ResultCache(tmp_path / "cache")
        config = {"num_cpus": 2, "total_increments": 16}
        self._write_artifact(repo, "fig07_queue", config)
        (repo / "BENCH_copy.json").write_text(json.dumps(
            {"bench": "fig07_queue", "config": config, "results": {}}))

        plans = invalidate.plan(repo, cache=store)
        assert sum(len(p.stale) for p in plans) == 2
        summary = invalidate.regenerate(plans, cache=store)
        assert summary["stale"] == 1  # same fingerprint, run once

    def test_unplannable_artifacts_are_reported_not_ignored(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        store = ResultCache(tmp_path / "cache")
        self._write_artifact(repo, "mystery_bench", {})

        plans = {p.bench: p for p in invalidate.plan(repo, cache=store)}
        assert plans["mystery_bench"].skipped == "no cell planner"

        report = invalidate.render_plan(list(plans.values()))
        assert "skipped" in report
        assert "stale cells to regenerate: 0" in report

    def test_verified_cells_regenerate_through_the_verifier(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        store = ResultCache(tmp_path / "cache")
        params = {"policies": ["timestamp"], "workloads": ["single-counter"],
                  "processor_counts": [2], "seeds": 1, "ops": 8,
                  "app_scale": 12}
        self._write_artifact(repo, "policies", params)

        (entry,) = invalidate.plan(repo, cache=store)
        assert entry.verified and entry.total == 1 and len(entry.stale) == 1
        summary = invalidate.regenerate([entry], cache=store)
        assert summary["simulated"] == 1 and summary["failures"] == 0
        (replanned,) = invalidate.plan(repo, cache=store)
        assert replanned.fresh == replanned.total and not replanned.stale

        # The grid itself replays the verdicts --regen primed.
        telemetry = submit(JobSpec.sweep("policies", **params),
                           cache=store).telemetry
        assert telemetry["cache_hits"] == telemetry["total_runs"] == 1

    @pytest.mark.parametrize("name, payload, reason", [
        ("BENCH_fig08_multiple_counter.json",
         {"bench": "fig08_multiple_counter", "config": {}, "results": {}},
         "bad config: KeyError: 'processor_counts'"),
        ("BENCH_x.json", [1, 2], "not a JSON object"),
    ])
    def test_malformed_artifacts_are_skipped_with_a_reason(
            self, tmp_path, name, payload, reason):
        (tmp_path / name).write_text(json.dumps(payload))
        (entry,) = invalidate.plan(tmp_path, cache=None)
        assert entry.skipped == reason
        assert "stale cells to regenerate: 0" in invalidate.render_plan(
            [entry])

    def test_render_plan_sizes_the_name_column_to_the_longest_name(self):
        plans = [invalidate.ArtifactPlan(
                     "BENCH_ablation_single_block_relaxation.json",
                     "ablation_single_block_relaxation", total=2),
                 invalidate.ArtifactPlan("BENCH_fig07_queue.json",
                                         "fig07_queue", total=1)]
        header, *rows = invalidate.render_plan(plans).splitlines()[:3]
        # Every row's columns line up under the header's.
        assert [len(row) for row in rows] == [len(header)] * 2
