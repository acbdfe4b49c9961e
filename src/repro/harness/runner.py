"""Single-run execution: where a workload meets a machine.

:func:`execute_workload` is the one low-level entry point -- everything
else (the unified API :func:`repro.harness.run`, the parallel sweep
engine, the job-queue service) routes through it.  Above it, use
``repro.harness.run(spec, *, jobs=..., timeout=..., cache=...,
validate=...)`` with a :class:`~repro.harness.spec.RunSpec`, a raw
:class:`~repro.runtime.program.Workload`, or a registered experiment
name (see :mod:`repro.harness.experiments`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Optional

from repro.coherence.memory import ValueStore
from repro.harness.config import SystemConfig
from repro.harness.machine import Machine
from repro.harness.spec import (check_schema, config_from_dict,
                                config_to_dict, stamp_schema)
from repro.obs import default_observers
from repro.runtime.program import Workload
from repro.sim.stats import SimStats


@dataclass
class RunResult:
    """Everything one simulation produced.

    ``seed_used``/``attempts`` record livelock-retry outcomes from the
    sweep engine: a run that needed a seed bump reports the seed it
    actually completed with and how many attempts it took.
    """

    config: SystemConfig
    workload_name: str
    stats: SimStats
    store: ValueStore
    seed_used: Optional[int] = None
    attempts: int = 1
    # Conflict/latency telemetry (repro.obs registry export); None when
    # the run was executed with config.metrics off or loaded from a
    # pre-metrics cache payload.  Deliberately NOT part of
    # result_fingerprint: telemetry describes a run, it is not part of
    # its observable outcome.
    metrics: Optional[dict] = None

    @property
    def cycles(self) -> int:
        """Parallel execution time (the paper's y-axis metric)."""
        return self.stats.total_cycles

    def speedup_over(self, other: "RunResult") -> float:
        """Paper convention: cycles(other) / cycles(self); >1 is faster."""
        if self.cycles == 0:
            return float("inf")
        return other.cycles / self.cycles

    # -- serialization (stable public contract; used by the result
    # cache, the worker boundary, HTTP transport and ``--json``) --------
    @property
    def ok(self) -> bool:
        """Always true: an engine run that fails is a ``FailedRun``."""
        return True

    def to_dict(self) -> dict:
        return stamp_schema({
            "workload_name": self.workload_name,
            "config": config_to_dict(self.config),
            "stats": self.stats.to_dict(),
            "store": {str(addr): value
                      for addr, value in self.store.snapshot().items()},
            "seed_used": self.seed_used,
            "attempts": self.attempts,
            "metrics": self.metrics,
        })

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        check_schema(data, "RunResult")
        store = ValueStore()
        for addr, value in (data.get("store") or {}).items():
            store.write(int(addr), value)
        return cls(config=config_from_dict(data["config"]),
                   workload_name=data["workload_name"],
                   stats=SimStats.from_dict(data["stats"]),
                   store=store,
                   seed_used=data.get("seed_used"),
                   attempts=data.get("attempts", 1),
                   metrics=data.get("metrics"))


def result_fingerprint(result: RunResult) -> str:
    """Digest of a run's *observable outcome* -- workload name, the full
    statistics image and final memory -- independent of the config that
    produced it.  Two runs with the same fingerprint behaved
    identically; this is the behavior-preservation oracle the policy
    refactor's golden tests check against."""
    payload = {
        "workload": result.workload_name,
        "stats": result.stats.to_dict(),
        "store": {str(addr): value
                  for addr, value in result.store.snapshot().items()},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def execute_workload(workload: Workload, config: SystemConfig,
                     validate: bool = True,
                     timeout: Optional[float] = None) -> RunResult:
    """Execute ``workload`` on a freshly built machine.

    ``timeout`` is a wall-clock budget in seconds: the kernel raises
    :class:`~repro.sim.kernel.RunTimeout` once it has passed.
    """
    machine = Machine(config)
    if timeout:
        machine.sim.deadline = time.monotonic() + timeout
    export = default_observers(machine) if config.metrics else None
    stats = machine.run_workload(workload, validate=validate)
    metrics = export() if export is not None else None
    return RunResult(config=config, workload_name=workload.name,
                     stats=stats, store=machine.store, metrics=metrics)
