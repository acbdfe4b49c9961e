"""Unit tests for run fingerprinting, the on-disk result cache, and the
stable to_dict/from_dict serialization contracts."""

import json

import pytest

from repro.harness.cache import ResultCache, resolve_cache
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.experiments import (AppResult, SweepLookupError,
                                       SweepResult)
from repro.harness.parallel import FailedRun
from repro.harness.parallel import run
from repro.harness.runner import RunResult
from repro.harness.spec import (RunSpec, config_from_dict, config_to_dict,
                                scheme_from_str, scheme_to_str)
from repro.workloads.microbench import single_counter


def _spec(seed=0, ops=64, cpus=2, scheme=SyncScheme.TLR) -> RunSpec:
    return RunSpec(workload="single-counter",
                   config=SystemConfig(num_cpus=cpus, scheme=scheme,
                                       seed=seed, max_cycles=20_000_000),
                   workload_args={"total_increments": ops})


class TestFingerprint:
    def test_deterministic(self):
        assert _spec().fingerprint() == _spec().fingerprint()

    def test_sensitive_to_seed(self):
        assert _spec(seed=0).fingerprint() != _spec(seed=1).fingerprint()

    def test_sensitive_to_workload_args(self):
        assert _spec(ops=64).fingerprint() != _spec(ops=128).fingerprint()

    def test_sensitive_to_scheme_and_cpus(self):
        base = _spec().fingerprint()
        assert _spec(scheme=SyncScheme.BASE).fingerprint() != base
        assert _spec(cpus=4).fingerprint() != base

    def test_sensitive_to_nested_config(self):
        spec = _spec()
        spec.config.spec.rmw_predictor_enabled = False
        assert spec.fingerprint() != _spec().fingerprint()

    def test_insensitive_to_validate_flag(self):
        a, b = _spec(), _spec()
        b.validate = False
        assert a.fingerprint() == b.fingerprint()

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="no-such-workload"):
            RunSpec(workload="no-such-workload", config=SystemConfig())


class TestSpecSerialization:
    def test_round_trip(self):
        spec = _spec(seed=7)
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_to_dict_is_json_serializable(self):
        json.dumps(_spec().to_dict())

    def test_config_round_trip_strict_ts(self):
        cfg = SystemConfig(scheme=SyncScheme.TLR_STRICT_TS)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert again.spec.single_block_relaxation is False

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_v8_config_image_with_backend_key_still_loads(self, backend):
        # Clients written against v8 still post config images carrying
        # the retired event-core backend field; both values ran the same
        # simulation, so the key is ignored.
        cfg = SystemConfig(num_cpus=4, seed=3)
        image = config_to_dict(cfg)
        assert config_from_dict({**image, "kernel_backend": backend}) \
            == config_from_dict(image) == cfg

    @pytest.mark.parametrize("policy,retention", [
        ("timestamp", "defer"), ("nack", "nack"), ("backoff", "defer")])
    def test_v11_config_image_with_retention_key_still_loads(
            self, policy, retention):
        # v11 images carry the retired retention_policy knob; it always
        # matched contention_policy, so dropping it loses nothing.
        cfg = SystemConfig(num_cpus=4, seed=3).with_policy(policy)
        image = config_to_dict(cfg)
        image["spec"] = {**image["spec"], "retention_policy": retention}
        assert config_from_dict(image) == cfg

    def test_scheme_string_forms(self):
        for scheme in SyncScheme:
            assert scheme_from_str(scheme_to_str(scheme)) is scheme
            assert scheme_from_str(scheme.value) is scheme
        with pytest.raises(KeyError, match="unknown scheme"):
            scheme_from_str("NOPE")

    def test_build_workload_uses_config_cpus(self):
        workload = _spec(cpus=2).build_workload()
        assert workload.num_threads == 2


class TestRunResultSerialization:
    def test_round_trip_preserves_cycles_stats_store(self):
        result = run(single_counter(2, 32),
                     SystemConfig(num_cpus=2, max_cycles=20_000_000))
        again = RunResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert again.cycles == result.cycles
        assert again.workload_name == result.workload_name
        assert again.stats.summary() == result.stats.summary()
        assert again.store.snapshot() == result.store.snapshot()
        assert again.config == result.config
        assert again.stats.cpu(0).restart_reasons == \
            result.stats.cpu(0).restart_reasons


class TestSweepAndAppSerialization:
    def _sweep(self) -> SweepResult:
        sweep = SweepResult(name="demo", processor_counts=[2, 4])
        sweep.series[SyncScheme.BASE] = [100, 200]
        sweep.series[SyncScheme.TLR] = [50, None]
        sweep.failures.append(FailedRun(
            workload="single-counter", scheme="TLR", num_cpus=4, seed=0,
            fingerprint="ff", error="SimulationError", message="livelock"))
        return sweep

    def test_sweep_round_trip(self):
        sweep = self._sweep()
        again = SweepResult.from_dict(
            json.loads(json.dumps(sweep.to_dict())))
        assert again.series == sweep.series
        assert again.processor_counts == sweep.processor_counts
        assert again.failures[0].message == "livelock"

    def test_sweep_schemes_serialized_as_strings(self):
        data = self._sweep().to_dict()
        assert set(data["series"]) == {"BASE", "TLR"}

    def test_app_round_trip(self):
        app = AppResult(
            name="demo",
            cycles={SyncScheme.BASE: 1000, SyncScheme.TLR: 500},
            lock_cycles={SyncScheme.BASE: 300, SyncScheme.TLR: 10},
            restarts={SyncScheme.BASE: 0, SyncScheme.TLR: 5},
            resource_fallbacks={SyncScheme.BASE: 0, SyncScheme.TLR: 1},
            critical_sections={SyncScheme.BASE: 10, SyncScheme.TLR: 10})
        again = AppResult.from_dict(json.loads(json.dumps(app.to_dict())))
        assert again.cycles == app.cycles
        assert again.speedup(SyncScheme.TLR) == 2.0


class TestSweepCyclesLookup:
    def _sweep(self) -> SweepResult:
        sweep = SweepResult(name="demo", processor_counts=[2, 4])
        sweep.series[SyncScheme.TLR] = [50, None]
        return sweep

    def test_missing_processor_count_names_available(self):
        with pytest.raises(SweepLookupError, match=r"available processor "
                                                   r"counts: \[2, 4\]"):
            self._sweep().cycles(SyncScheme.TLR, 8)

    def test_missing_scheme_names_available(self):
        with pytest.raises(SweepLookupError, match="available schemes"):
            self._sweep().cycles(SyncScheme.MCS, 2)

    def test_failed_slot_points_at_failures(self):
        with pytest.raises(SweepLookupError, match="failed"):
            self._sweep().cycles(SyncScheme.TLR, 4)

    def test_lookup_error_is_both_key_and_value_error(self):
        # Old callers caught ValueError (list.index); new callers can
        # catch KeyError.  Both must keep working.
        with pytest.raises(ValueError):
            self._sweep().cycles(SyncScheme.TLR, 8)
        with pytest.raises(KeyError):
            self._sweep().cycles(SyncScheme.TLR, 8)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" + "0" * 62) is None
        cache.put("ab" + "0" * 62, {"x": 1})
        assert cache.get("ab" + "0" * 62) == {"x": 1}
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_invalidate(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cd" + "0" * 62, {"x": 1})
        assert cache.invalidate("cd" + "0" * 62)
        assert cache.get("cd" + "0" * 62) is None
        assert not cache.invalidate("cd" + "0" * 62)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        fingerprint = "ef" + "0" * 62
        cache.put(fingerprint, {"x": 1})
        cache._path(fingerprint).write_text("{not json")
        assert cache.get(fingerprint) is None
        assert not cache._path(fingerprint).exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" + "0" * 62, {})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_default_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "here"))
        assert ResultCache().root == tmp_path / "here"

    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(tmp_path).root == tmp_path
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache
        assert isinstance(resolve_cache(True), ResultCache)


class TestCacheVersioning:
    """Entries live under a per-schema directory; superseded schemas
    (and the original unversioned layout) are prunable garbage."""

    @staticmethod
    def _plant_stale(root):
        """One entry under an old schema dir and one under the legacy
        unversioned two-char fan-out; returns their parent dirs."""
        old_version = root / "v1" / "ab"
        old_version.mkdir(parents=True)
        (old_version / ("ab" + "0" * 62 + ".json")).write_text("{}")
        legacy = root / "cd"
        legacy.mkdir()
        (legacy / ("cd" + "0" * 62 + ".json")).write_text("{}")
        return old_version.parent, legacy

    def test_entries_land_under_current_version_dir(self, tmp_path):
        from repro.harness.spec import FINGERPRINT_VERSION

        cache = ResultCache(tmp_path)
        fingerprint = "ab" + "0" * 62
        cache.put(fingerprint, {"x": 1})
        path = cache._path(fingerprint)
        assert path.is_file()
        assert path.parent.parent == tmp_path / f"v{FINGERPRINT_VERSION}"

    def test_prune_removes_stale_keeps_current(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ee" + "0" * 62, {"keep": 1})
        old_dir, legacy_dir = self._plant_stale(tmp_path)
        assert cache.prune() == 2
        assert not old_dir.exists() and not legacy_dir.exists()
        assert cache.get("ee" + "0" * 62) == {"keep": 1}
        assert len(cache) == 1
        assert cache.prune() == 0  # idempotent

    def test_first_miss_prunes_once_per_instance(self, tmp_path):
        cache = ResultCache(tmp_path)
        old_dir, legacy_dir = self._plant_stale(tmp_path)
        assert cache.get("ff" + "0" * 62) is None
        assert not old_dir.exists() and not legacy_dir.exists()
        # Only the first miss pays the scan: stale dirs planted later
        # survive further misses on the same instance.
        old_dir, _ = self._plant_stale(tmp_path)
        assert cache.get("ff" + "1" * 62) is None
        assert old_dir.exists()

    def test_len_counts_current_schema_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "0" * 62, {})
        self._plant_stale(tmp_path)
        assert len(cache) == 1

    def test_clear_spans_all_schema_versions(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "0" * 62, {})
        self._plant_stale(tmp_path)
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_stale_version_entry_is_never_a_hit(self, tmp_path):
        # The same fingerprint cached under an old schema dir must not
        # satisfy a current-schema lookup.
        fingerprint = "ab" + "0" * 62
        stale = tmp_path / "v1" / "ab" / f"{fingerprint}.json"
        stale.parent.mkdir(parents=True)
        stale.write_text('{"stale": true}')
        assert ResultCache(tmp_path).get(fingerprint) is None


class TestCacheTtl:
    """``prune(ttl=...)`` ages out current-version entries by mtime."""

    @staticmethod
    def _put_aged(cache, fingerprint, age_seconds):
        import os
        import time
        cache.put(fingerprint, {})
        stamp = time.time() - age_seconds
        os.utime(cache._path(fingerprint), (stamp, stamp))

    def test_expired_entries_removed_fresh_kept(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._put_aged(cache, "aa" + "0" * 62, age_seconds=3600)
        self._put_aged(cache, "bb" + "0" * 62, age_seconds=10)
        assert cache.prune(ttl=600) == 1
        assert cache.get("aa" + "0" * 62) is None
        assert cache.get("bb" + "0" * 62) == {}

    def test_eviction_is_oldest_first(self, tmp_path):
        # All three expired: the removal count covers them all, and the
        # (mtime-sorted) order means a crash mid-prune loses the oldest
        # results first.
        cache = ResultCache(tmp_path)
        for i, age in enumerate((300, 100, 200)):
            self._put_aged(cache, f"{i:02d}" + "c" * 62, age)
        assert cache.prune(ttl=50) == 3
        assert len(cache) == 0

    def test_no_ttl_means_no_age_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._put_aged(cache, "dd" + "0" * 62, age_seconds=10**6)
        assert cache.prune() == 0
        assert cache.get("dd" + "0" * 62) == {}

    def test_ttl_also_prunes_superseded_versions(self, tmp_path):
        cache = ResultCache(tmp_path)
        old = tmp_path / "v1" / "ab"
        old.mkdir(parents=True)
        (old / ("ab" + "0" * 62 + ".json")).write_text("{}")
        self._put_aged(cache, "ee" + "0" * 62, age_seconds=3600)
        assert cache.prune(ttl=600) == 2


class TestJobPriority:
    """JobSpec.priority orders serve-queue dispatch but never identity."""

    def _spec(self, priority=0, seeds=1):
        from repro.harness.spec import JobSpec
        return JobSpec(kind="verify", params={"seeds": seeds, "ops": 8},
                       priority=priority)

    def test_priority_excluded_from_fingerprint(self):
        urgent = self._spec(priority=9)
        lazy = self._spec(priority=0)
        assert urgent.fingerprint() == lazy.fingerprint()

    def test_priority_round_trips(self):
        from repro.harness.spec import JobSpec
        spec = self._spec(priority=3)
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.priority == 3
        # Default priority stays out of the serialized form entirely,
        # so pre-priority payload bytes are unchanged.
        assert "priority" not in self._spec(priority=0).to_dict()

    def test_priority_must_be_an_int(self):
        from repro.harness.spec import JobSpec
        with pytest.raises(TypeError, match="priority"):
            JobSpec(kind="verify", params={}, priority="high")
        with pytest.raises(TypeError, match="priority"):
            JobSpec(kind="verify", params={}, priority=True)

    def test_queue_drains_highest_priority_first_ties_fifo(self):
        from repro.serve.queue import JobQueue
        queue = JobQueue(workers=1, start=False)
        ids = {}
        for name, (priority, seeds) in {
                "low": (0, 1), "urgent": (5, 2),
                "mid": (1, 3), "urgent2": (5, 4)}.items():
            job, coalesced = queue.submit(self._spec(priority, seeds))
            assert not coalesced
            ids[job.id] = name
        drained = [ids[queue._pending.get_nowait()[2]] for _ in range(4)]
        assert drained == ["urgent", "urgent2", "mid", "low"]

    def test_stop_sentinel_sorts_after_pending_jobs(self):
        from repro.serve.queue import JobQueue
        queue = JobQueue(workers=1, start=False)
        queue.submit(self._spec(0, seeds=9))
        queue._stopped = True
        queue._pending.put((float("inf"), next(queue._seq), None))
        first = queue._pending.get_nowait()
        assert first[2] is not None     # the real job drains first
        assert queue._pending.get_nowait()[2] is None

    def test_priority_does_not_defeat_coalescing(self):
        from repro.serve.queue import JobQueue
        queue = JobQueue(workers=1, start=False)
        first, coalesced_a = queue.submit(self._spec(priority=0, seeds=7))
        second, coalesced_b = queue.submit(self._spec(priority=9, seeds=7))
        assert not coalesced_a and coalesced_b
        assert second is first
