"""Lightweight metrics primitives: counters, gauges, histograms.

No external dependencies, no locks (the simulator is single-threaded),
no background sampling events -- a metric is only ever touched from an
instrumentation hook that already fired, so attaching the registry can
never change the event schedule.  Export is a plain ``dict`` tree
suitable for JSON (``MetricsRegistry.to_dict``) plus a compact flat
summary (:func:`summarize_metrics`) for tables and sweep telemetry.

Histograms use fixed bucket boundaries declared at creation time so
exports from different runs are always merge/diff-compatible.
``buckets`` are inclusive upper bounds; one overflow bin catches
everything beyond the last bound.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

#: Deferral-queue depth at each push (queue capacity is 4*num_cpus).
DEPTH_BUCKETS: tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64)
#: Per-request retry counts (NACK re-arbitrations, restart streaks).
RETRY_BUCKETS: tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64)
#: Cycle latencies (defer->service, request->data, marker/probe flight,
#: restart backoff); power-of-two bounds from one cycle to ~4K cycles.
LATENCY_BUCKETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256,
                                    512, 1024, 2048, 4096)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins); tracks its own max."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.max = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max:
            self.max = value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are inclusive upper bounds in ascending order; an
    observation larger than the last bound lands in the overflow bin
    (exported as ``"+Inf"``).
    """

    __slots__ = ("name", "buckets", "counts", "overflow", "count", "sum",
                 "min", "max")

    def __init__(self, name: str, buckets: Sequence[int]):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(
                tuple(buckets)):
            raise ValueError(f"histogram {name!r}: buckets must be "
                             f"strictly ascending, got {buckets!r}")
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bisect.bisect_left(self.buckets, value)
        if index == len(self.buckets):
            self.overflow += 1
        else:
            self.counts[index] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named metric families, created on first touch.

    ``counter``/``gauge``/``histogram`` are get-or-create so publishers
    need no registration step; re-requesting a histogram under a
    different bucket layout is an error (exports must stay comparable).
    """

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  buckets: Sequence[int] = LATENCY_BUCKETS) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name, buckets)
        elif metric.buckets != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} re-declared with different buckets: "
                f"{metric.buckets} vs {tuple(buckets)}")
        return metric

    def to_dict(self) -> dict:
        """Full JSON-serializable export (sorted for stable diffs)."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: {"value": g.value, "max": g.max}
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.to_dict()
                           for name, h in sorted(self.histograms.items())},
        }

    def to_openmetrics(self, meta: Optional[dict] = None) -> str:
        """The registry in OpenMetrics text exposition format.

        ``meta`` labels (service name, schema versions, ...) are
        rendered as a ``target_info`` sample, matching what
        :meth:`~repro.obs.collect.MachineMetrics.finalize` payloads
        carry in their ``meta`` section."""
        payload = self.to_dict()
        if meta:
            payload["meta"] = dict(meta)
        return openmetrics_from_dict(payload)


def _om_name(name: str) -> str:
    """Dotted metric names to OpenMetrics-legal snake names."""
    return name.replace(".", "_").replace("-", "_")


def openmetrics_from_dict(payload: Optional[dict]) -> str:
    """Render a :meth:`MetricsRegistry.to_dict` export (or a
    :meth:`~repro.obs.collect.MachineMetrics.finalize` payload, which
    adds a ``meta`` section) as OpenMetrics text exposition format:
    ``# TYPE`` headers, ``_total`` counter samples, cumulative
    ``_bucket{le=...}`` histogram series and a final ``# EOF``.

    The same dict that lands in ``RunResult.metrics`` (and the result
    cache) renders identically, so cached runs can be re-exported
    without re-simulating.
    """
    lines: list[str] = []
    payload = payload or {}
    meta = payload.get("meta") or {}
    if meta:
        labels = ",".join(f'{_om_name(str(key))}="{value}"'
                          for key, value in sorted(meta.items()))
        lines.append("# TYPE target info")
        lines.append(f"target_info{{{labels}}} 1")
    for name, value in sorted((payload.get("counters") or {}).items()):
        om = _om_name(name)
        lines.append(f"# TYPE {om} counter")
        lines.append(f"{om}_total {value}")
    for name, gauge in sorted((payload.get("gauges") or {}).items()):
        om = _om_name(name)
        lines.append(f"# TYPE {om} gauge")
        lines.append(f"{om} {gauge['value']}")
        lines.append(f"# TYPE {om}_max gauge")
        lines.append(f"{om}_max {gauge['max']}")
    for name, hist in sorted((payload.get("histograms") or {}).items()):
        om = _om_name(name)
        lines.append(f"# TYPE {om} histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            lines.append(f'{om}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{om}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{om}_sum {hist['sum']}")
        lines.append(f"{om}_count {hist['count']}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def summarize_metrics(metrics: Optional[dict]) -> dict:
    """Flatten a :meth:`MetricsRegistry.to_dict` export into a compact
    ``{dotted.name: number}`` dict (histograms reduce to count/mean/max)
    for tables, sweep telemetry and quick assertions."""
    if not metrics:
        return {}
    flat: dict[str, float] = {}
    for name, value in (metrics.get("counters") or {}).items():
        flat[name] = value
    for name, gauge in (metrics.get("gauges") or {}).items():
        flat[f"{name}.last"] = gauge["value"]
        flat[f"{name}.max"] = gauge["max"]
    for name, hist in (metrics.get("histograms") or {}).items():
        flat[f"{name}.count"] = hist["count"]
        if hist["count"]:
            flat[f"{name}.mean"] = round(hist["sum"] / hist["count"], 3)
            flat[f"{name}.max"] = hist["max"]
    return flat
