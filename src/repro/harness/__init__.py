"""Experiment harness: configuration, machine building, runners.

``run`` is the unified experiment API (see
:func:`repro.harness.parallel.run`): it executes a
:class:`~repro.harness.spec.RunSpec`, the name of an experiment in
:data:`~repro.harness.experiments.EXPERIMENTS` ("figure9", ...), or a
raw :class:`~repro.runtime.program.Workload`, with keyword-only engine
options ``jobs``/``timeout``/``cache``/``validate``.  A run that
livelocks, deadlocks or times out is a
:class:`~repro.harness.parallel.FailedRun` at the seed it asked for;
nothing re-runs it under another seed.
:func:`~repro.harness.jobs.submit` wraps the same dispatch in the
:class:`~repro.harness.spec.JobSpec` envelope shared with the
``repro serve`` HTTP service; :func:`~repro.harness.runner.execute_workload`
is the single low-level entry point beneath both.
"""

from repro.harness.config import (BusConfig, CacheConfig, MemoryConfig,
                                  SpeculationConfig, SyncScheme, SystemConfig)
from repro.harness.cache import ResultCache, default_cache_dir
from repro.harness.machine import Machine
from repro.harness.parallel import (FailedRun, RunTimeout, SweepTelemetry,
                                    execute, run, use_engine)
from repro.harness.jobs import JobResult, submit
from repro.harness.runner import RunResult, execute_workload
from repro.harness.spec import JobSpec, RunSpec, SchemaError
from repro.harness.experiments import EXPERIMENTS
from repro.harness import experiments, report

__all__ = [
    "SystemConfig", "SyncScheme", "CacheConfig", "BusConfig", "MemoryConfig",
    "SpeculationConfig", "Machine", "RunResult", "run", "execute_workload",
    "experiments", "report",
    "RunSpec", "EXPERIMENTS", "ResultCache",
    "default_cache_dir", "FailedRun", "RunTimeout", "SweepTelemetry",
    "execute", "JobSpec", "JobResult", "submit", "SchemaError",
    "use_engine",
]
