"""Job envelope (``submit(JobSpec)``), job-level cache replay, cache
statistics persistence, and incremental invalidation planning."""

import json

import pytest

from repro.harness import invalidate
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
