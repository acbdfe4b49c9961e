"""Guards for the hand-written result serializers.

``config_to_dict`` and ``CpuStats.to_dict`` copy fields by name from
tables built once per class, and the result cache writes one-shot
``json.dumps`` output.  These tests pin that the images are exactly what
the generic ``dataclasses.asdict`` walk produces (same keys, same order,
same values) and that every config leaf stays a JSON scalar, so a future
list- or dataclass-valued field fails here instead of being aliased
into a cached payload.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.harness.cache import STATS_FILE, ResultCache
from repro.harness.config import (BusConfig, CacheConfig, DirectoryConfig,
                                  MemoryConfig, SchedConfig,
                                  SpeculationConfig, SyncScheme, SystemConfig)
from repro.harness.spec import config_to_dict
from repro.sim.stats import CpuStats


def _non_default_config() -> SystemConfig:
    """A config whose every field, in every sub-config, is off default."""
    return SystemConfig(
        num_cpus=4,
        scheme=SyncScheme.TLR_STRICT_TS,
        cache=CacheConfig(size_bytes=64 * 1024, assoc=8, line_bytes=32,
                          hit_latency=2, victim_entries=8),
        bus=BusConfig(snoop_latency=25, occupancy=3, max_outstanding=64),
        directory=DirectoryConfig(request_latency=21, processing_latency=11,
                                  home_occupancy=3, num_homes=8,
                                  max_outstanding=1000, snoop_latency=19),
        protocol="directory",
        memory=MemoryConfig(l2_latency=13, dram_latency=71, data_latency=21,
                            l2_capacity_lines=1024,
                            data_bandwidth_interval=4),
        spec=SpeculationConfig(
            write_buffer_entries=32, elision_depth=4,
            store_pair_predictor_entries=32, rmw_predictor_entries=64,
            rmw_predictor_enabled=False, sle_restart_threshold=2,
            read_escalation_threshold=3, single_block_relaxation=False,
            contention_policy="nack",
            contention_fallback_k=None, nack_retry_delay=40,
            misspec_penalty=11, restart_backoff_step=21,
            untimestamped_policy="abort"),
        seed=7,
        latency_jitter=0,
        metrics=False,
        schedule_chaos=3,
        max_cycles=None,
        sched=SchedConfig(scheduler="rr", quantum=500, threads_per_cpu=2,
                          migrate=True, context_switch_penalty=31,
                          migration_penalty=51))


def _leaves(image: dict, prefix: str = ""):
    for key, value in image.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _asdict_image(config: SystemConfig) -> dict:
    data = dataclasses.asdict(config)
    data["scheme"] = config.scheme.name
    return data


def _key_orders(image: dict) -> list:
    return [list(image)] + [list(value) for value in image.values()
                            if isinstance(value, dict)]


CONFIGS = {"default": SystemConfig(), "non-default": _non_default_config()}


def test_non_default_config_moves_every_leaf():
    default = dict(_leaves(config_to_dict(SystemConfig())))
    moved = dict(_leaves(config_to_dict(_non_default_config())))
    assert moved.keys() == default.keys()
    assert [k for k in default if default[k] == moved[k]] == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_image_matches_asdict(name):
    config = CONFIGS[name]
    image = config_to_dict(config)
    assert image == _asdict_image(config)
    assert _key_orders(image) == _key_orders(_asdict_image(config))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_image_holds_only_json_scalars(name):
    scalars = (str, int, float, bool, type(None))
    for key, value in config_to_dict(CONFIGS[name]).items():
        if isinstance(value, dict):
            bad = {k: v for k, v in value.items()
                   if not isinstance(v, scalars)}
            assert bad == {}, f"{key}: non-scalar fields {bad}"
        else:
            assert isinstance(value, scalars), f"{key}: {value!r}"


def test_config_image_shares_nothing_with_the_config():
    config = _non_default_config()
    image = config_to_dict(config)
    image["spec"]["elision_depth"] = 99
    assert config.spec.elision_depth == 4


def test_cpu_stats_image_matches_asdict():
    names = [f.name for f in dataclasses.fields(CpuStats)]
    stats = CpuStats(**{name: i + 1 for i, name in enumerate(names)
                        if name != "restart_reasons"},
                     restart_reasons=Counter({"conflict": 3, "capacity": 1}))
    image = stats.to_dict()
    expected = dataclasses.asdict(stats)
    expected["restart_reasons"] = dict(stats.restart_reasons)
    assert image == expected
    assert list(image) == list(expected) == names
    assert type(image["restart_reasons"]) is dict
    image["restart_reasons"]["conflict"] = 0
    assert stats.restart_reasons["conflict"] == 3


def test_cache_put_writes_one_shot_dumps(tmp_path):
    cache = ResultCache(tmp_path)
    payload = {"spec": {"config": config_to_dict(_non_default_config())},
               "result": {"cycles": 12345, "ratio": 0.1 + 0.2,
                          "label": "café", "none": None}}
    fingerprint = "ab" + "0" * 62
    cache.put(fingerprint, payload)
    path = cache.version_dir / "ab" / f"{fingerprint}.json"
    assert path.read_text(encoding="utf-8") == json.dumps(payload)
    assert cache.get(fingerprint) == payload


def test_persist_counters_writes_one_shot_dumps(tmp_path):
    cache = ResultCache(tmp_path)
    cache.hits, cache.misses = 3, 2
    merged = cache.persist_counters()
    assert merged == {"hits": 3, "misses": 2}
    text = (tmp_path / STATS_FILE).read_text(encoding="utf-8")
    assert text == json.dumps(merged)
