"""Shared test fixtures and helpers.

``small_config`` keeps simulations fast: a small L1 (so capacity tests
can exercise evictions), short workloads, and a hard cycle cap so a
liveness bug fails the test instead of hanging the suite.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional

import pytest

from repro.harness.config import (CacheConfig, SpeculationConfig, SyncScheme,
                                  SystemConfig)
from repro.harness.machine import Machine
from repro.runtime.env import ThreadEnv
from repro.runtime.program import Workload
from repro.workloads.common import AddressSpace


def small_config(num_cpus: int = 2,
                 scheme: SyncScheme = SyncScheme.TLR,
                 seed: int = 0, **overrides) -> SystemConfig:
    cfg = SystemConfig(num_cpus=num_cpus, scheme=scheme, seed=seed,
                       max_cycles=20_000_000)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def run_threads(threads: Iterable[Callable[[ThreadEnv], Generator]],
                config: Optional[SystemConfig] = None,
                validate: Optional[Callable] = None,
                space: Optional[AddressSpace] = None,
                name: str = "inline") -> Machine:
    """Run ad-hoc thread generators on a fresh machine; returns the
    machine (stats, store, processors all reachable from it)."""
    threads = list(threads)
    config = config or small_config(num_cpus=len(threads))
    machine = Machine(config)
    workload = Workload(name=name, threads=threads, validate=validate,
                        meta={"space": space or AddressSpace()})
    machine.run_workload(workload)
    return machine


@pytest.fixture
def space() -> AddressSpace:
    return AddressSpace()


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the sweep engine's on-disk result cache and the record-log
    auto-capture directory at per-test directories, so tests never read
    from (or write into) the user's real ``~/.cache/repro-tlr`` or the
    working tree's ``artifacts/``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))


ALL_SCHEMES = (SyncScheme.BASE, SyncScheme.MCS, SyncScheme.SLE,
               SyncScheme.TLR, SyncScheme.TLR_STRICT_TS)
SPEC_SCHEMES = (SyncScheme.SLE, SyncScheme.TLR, SyncScheme.TLR_STRICT_TS)
