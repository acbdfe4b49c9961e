"""Observability: metrics and lock profiling.

The paper's evaluation is an exercise in *explaining* performance --
stall attribution, restart counts, deferral behaviour -- so the
reproduction carries a first-class observability layer:

* :mod:`repro.obs.metrics` -- a dependency-free metrics registry
  (counters, gauges, fixed-bucket histograms) plus
  :class:`~repro.obs.collect.MachineMetrics`, the collector that
  subscribes to the machine's observation seam
  (:mod:`repro.sim.taps`) like every other observer: an emit point
  nobody subscribes to costs its component one truth test.
* a run's event history is its flight log (:mod:`repro.record`):
  :class:`~repro.record.timeline.Timeline` pairs txn-begin with its
  commit/abort/loss into transaction spans and answers time-travel
  queries from the log alone.
* :mod:`repro.obs.profile` -- the causal profiling layer: per-lock
  contention profiles (commit rates, abort causes, cycles lost,
  deferral waits) and the who-aborts-whom conflict matrix, built live
  from the machine taps (each abort's ``misspec`` names its aborter);
  :mod:`repro.obs.causal` rebuilds the identical profile post-hoc from
  a v3 record log (kept out of this namespace to avoid an eager
  ``repro.record`` import).
* :func:`~repro.obs.collect.default_observers` -- the default path:
  attaches the metrics collector and the lock profiler, and exports
  both after the run (``execute_workload`` and ``record_run``).
"""

from repro.obs.metrics import (DEPTH_BUCKETS, LATENCY_BUCKETS, RETRY_BUCKETS,
                               Histogram, MetricsRegistry,
                               openmetrics_from_dict, summarize_metrics)
from repro.obs.collect import MachineMetrics, default_observers
from repro.obs.profile import (ABORT_CAUSES, LockProfiler, ProfileBuilder,
                               cause_of, critical_path, describe_chain,
                               matrix_canonical_json, render_folded,
                               render_markdown)

__all__ = [
    "ABORT_CAUSES", "DEPTH_BUCKETS", "LATENCY_BUCKETS", "RETRY_BUCKETS",
    "Histogram", "LockProfiler", "MetricsRegistry", "MachineMetrics",
    "ProfileBuilder", "cause_of", "critical_path",
    "default_observers", "describe_chain", "matrix_canonical_json",
    "openmetrics_from_dict", "render_folded", "render_markdown",
    "summarize_metrics",
]
