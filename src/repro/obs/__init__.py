"""Observability: metrics, span tracing support and lock profiling.

The paper's evaluation is an exercise in *explaining* performance --
stall attribution, restart counts, deferral behaviour -- so the
reproduction carries a first-class observability layer:

* :mod:`repro.obs.metrics` -- a dependency-free metrics registry
  (counters, gauges, fixed-bucket histograms) plus
  :class:`~repro.obs.collect.MachineMetrics`, the collector that the
  coherence controllers and processors publish into through gated
  ``obs`` attributes (same pattern as the verify layer's ``monitor``
  hook: ``None`` in normal runs, one attribute test on the hot path).
* span events live in :mod:`repro.sim.trace` (the :class:`Tracer`
  pairs txn-begin/commit, defer/service and request/data into duration
  spans for Perfetto).
* :mod:`repro.obs.profile` -- the causal profiling layer: per-lock
  contention profiles (commit rates, abort causes, cycles lost,
  deferral waits) and the who-aborts-whom conflict matrix, built live
  from the machine taps; :mod:`repro.obs.causal` rebuilds the identical
  profile post-hoc from a v3 record log (kept out of this namespace to
  avoid an eager ``repro.record`` import).
"""

from repro.obs.metrics import (DEPTH_BUCKETS, LATENCY_BUCKETS, RETRY_BUCKETS,
                               Histogram, MetricsRegistry,
                               openmetrics_from_dict, summarize_metrics)
from repro.obs.collect import MachineMetrics
from repro.obs.profile import (ABORT_CAUSES, LockProfiler, ProfileBuilder,
                               TxnTapFolder, cause_of, critical_path,
                               describe_chain, matrix_canonical_json,
                               render_folded, render_markdown)

__all__ = [
    "ABORT_CAUSES", "DEPTH_BUCKETS", "LATENCY_BUCKETS", "RETRY_BUCKETS",
    "Histogram", "LockProfiler", "MetricsRegistry", "MachineMetrics",
    "ProfileBuilder", "TxnTapFolder", "cause_of", "critical_path",
    "describe_chain", "matrix_canonical_json", "openmetrics_from_dict",
    "render_folded", "render_markdown", "summarize_metrics",
]
