"""repro -- a reproduction of "Transactional Lock-Free Execution of
Lock-Based Programs" (Rajwar & Goodman, ASPLOS 2002).

The package simulates a snooping cache-coherent multiprocessor in enough
detail to reproduce the paper's evaluation: Speculative Lock Elision,
Transactional Lock Removal (timestamp-ordered deferral of conflicting
coherence requests), test&test&set and MCS locks, and the paper's
microbenchmarks and application-style workloads.

Typical use::

    from repro import SystemConfig, SyncScheme, run
    from repro.workloads import single_counter

    result = run(single_counter(num_threads=8),
                 SystemConfig(num_cpus=8, scheme=SyncScheme.TLR))
    print(result.cycles, result.stats.summary())

``run`` also takes the name of one of the paper's experiments
(``repro.harness.experiments.EXPERIMENTS``) plus its parameters, e.g.
``run("figure9", processor_counts=[2, 4], jobs=2)``; ``submit`` runs
the same work as a :class:`JobSpec`, the envelope the CLI and
``repro serve`` share.
"""

from repro.harness.cache import ResultCache
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.jobs import JobResult, submit
from repro.harness.parallel import FailedRun, SweepTelemetry, run
from repro.harness.runner import RunResult, execute_workload
from repro.harness.spec import JobSpec, RunSpec
from repro.runtime.env import ThreadEnv
from repro.runtime.program import ValidationError, Workload

__version__ = "1.0.0"

__all__ = [
    "SystemConfig", "SyncScheme", "Machine", "RunResult",
    "run", "execute_workload", "submit",
    "RunSpec", "JobSpec", "JobResult",
    "ResultCache", "FailedRun", "SweepTelemetry",
    "ThreadEnv", "Workload", "ValidationError",
    "__version__",
]
