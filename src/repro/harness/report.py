"""Text rendering of experiment results.

The paper's figures are line plots (cycles vs processor count) and
normalized stacked bars; these helpers print the same data as aligned
text tables so a terminal run of the benchmark harness reproduces every
row/series the paper reports.  ``ascii_series`` additionally draws a
small terminal plot for the microbenchmark sweeps.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.harness.config import SyncScheme
from repro.harness.experiments import (AppResult, PolicyGridResult,
                                       SchedGridResult, SweepResult)


def _cell(value) -> str:
    """Render one sweep datum; a failed run (``None``) prints as FAIL."""
    return "FAIL" if value is None else str(value)


def sweep_table(result: SweepResult) -> str:
    """Cycles-vs-processors table for one microbenchmark figure."""
    schemes = list(result.series)
    header = ["procs"] + [s.value for s in schemes]
    rows = [[str(n)] + [_cell(result.series[s][i]) for s in schemes]
            for i, n in enumerate(result.processor_counts)]
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) + 2
              for c in range(len(header))]
    lines = ["".join(h.rjust(w) for h, w in zip(header, widths))]
    lines += ["".join(c.rjust(w) for c, w in zip(row, widths))
              for row in rows]
    return "\n".join(lines)


def ascii_series(result: SweepResult, height: int = 12,
                 width: int = 64) -> str:
    """A rough terminal plot of one sweep (cycles vs processor count)."""
    schemes = list(result.series)
    peak = max((point for series in result.series.values()
                for point in series if point is not None), default=1)
    grid = [[" "] * width for _ in range(height)]
    marks = "ox+*#@"
    xs = result.processor_counts
    for si, scheme in enumerate(schemes):
        for i, n in enumerate(xs):
            point = result.series[scheme][i]
            if point is None:       # failed run: no mark at this x
                continue
            x = int((n - xs[0]) / max(1, xs[-1] - xs[0]) * (width - 1))
            y = int(point / peak * (height - 1))
            grid[height - 1 - y][x] = marks[si % len(marks)]
    legend = "  ".join(f"{marks[i % len(marks)]}={s.value}"
                       for i, s in enumerate(schemes))
    body = "\n".join("|" + "".join(row) for row in grid)
    axis = "+" + "-" * width
    return (f"{result.name} (y: cycles, peak={peak})\n"
            f"{body}\n{axis}\n procs {xs[0]}..{xs[-1]}\n {legend}")


def figure11_table(results: Mapping[str, AppResult]) -> str:
    """The Figure 11 bars as numbers: normalized execution time with the
    lock / non-lock split, plus in-text speedups over BASE and MCS."""
    lines = [
        f"{'app':<12}{'scheme':<22}{'norm':>7}{'lock':>7}{'rest':>7}"
        f"{'speedup/BASE':>14}{'restarts':>10}{'fallbacks':>11}"
    ]
    for name, app in results.items():
        for scheme in app.cycles:
            lock, nonlock = app.normalized_parts(scheme)
            lines.append(
                f"{name:<12}{scheme.value:<22}"
                f"{lock + nonlock:>7.2f}{lock:>7.2f}{nonlock:>7.2f}"
                f"{app.speedup(scheme):>14.2f}"
                f"{app.restarts[scheme]:>10}"
                f"{app.resource_fallbacks[scheme]:>11}")
        lines.append("")
    return "\n".join(lines)


def speedup_summary(results: Mapping[str, AppResult]) -> str:
    """TLR-vs-BASE and MCS-vs-BASE per app (the Section 6.3 numbers)."""
    lines = [f"{'app':<12}{'TLR/BASE':>10}{'MCS/BASE':>10}{'TLR/MCS':>10}"]
    for name, app in results.items():
        tlr = app.speedup(SyncScheme.TLR)
        mcs = (app.speedup(SyncScheme.MCS)
               if SyncScheme.MCS in app.cycles else float("nan"))
        lines.append(f"{name:<12}{tlr:>10.2f}{mcs:>10.2f}"
                     f"{tlr / mcs if mcs == mcs else float('nan'):>10.2f}")
    return "\n".join(lines)


def telemetry_line(telemetry: Optional[Mapping]) -> str:
    """One-line summary of a sweep's engine telemetry: how many runs
    were simulated vs served from cache, failures, wall time and (when
    parallel) worker utilization."""
    if not telemetry:
        return ""
    parts = [f"{telemetry.get('total_runs', 0)} runs:",
             f"{telemetry.get('simulated', 0)} simulated,",
             f"{telemetry.get('cache_hits', 0)} cached,",
             f"{telemetry.get('failures', 0)} failed;",
             f"jobs={telemetry.get('jobs', 1)}",
             f"wall={telemetry.get('wall_seconds', 0.0):.2f}s"]
    if telemetry.get("jobs", 1) > 1:
        parts.append(f"workers {telemetry.get('utilization', 0.0):.0%} busy")
    return "[sweep] " + " ".join(parts)


def failures_table(failures: Iterable) -> str:
    """One row per :class:`~repro.harness.parallel.FailedRun`."""
    lines = []
    for failed in failures:
        lines.append(
            f"FAILED {failed.workload} scheme={failed.scheme} "
            f"cpus={failed.num_cpus} seed={failed.seed} "
            f"({failed.error}: {failed.message})")
    return "\n".join(lines)


def policy_grid_table(result: PolicyGridResult) -> str:
    """The contention-policy grid: one block per workload, one row per
    policy, one cycles column per processor count.  A cell whose runs
    failed verification prints the cycles with a ``!`` marker (the
    violations live in ``result.cells``)."""
    lines = []
    for workload in result.workloads:
        lines.append(f"{workload}  (cycles; ! = failed verification, "
                     f"{result.seeds} seeds/cell)")
        header = f"{'policy':<16}" + "".join(
            f"{f'{n}p':>10}" for n in result.processor_counts)
        lines.append(header)
        for policy in result.policies:
            row = f"{policy:<16}"
            for n in result.processor_counts:
                cell = result.cell(policy, workload, n)
                mark = "" if cell["ok"] else "!"
                row += f"{str(cell['cycles']) + mark:>10}"
            lines.append(row)
        lines.append("")
    if result.failures:
        lines.append(f"{len(result.failures)} cell(s) failed "
                     "verification:")
        for key in result.failures:
            cell = result.cells[key]
            problem = cell["error"] or (cell["violations"][0]
                                        if cell["violations"] else "?")
            lines.append(f"  {key}: {problem}")
    return "\n".join(lines)


def sched_grid_table(result: SchedGridResult) -> str:
    """The preemptive-scheduler grid: one block per workload, one row
    per (scheduler, quantum), cycles plus the preemption /
    context-switch-abort counts per contention policy.  A cell whose
    runs failed verification prints with a ``!`` marker."""
    lines = [f"{result.num_cpus} threads over "
             f"{max(1, result.num_cpus // result.threads_per_cpu)} CPU "
             f"slot(s), {result.seeds} seed(s)/cell "
             f"(cycles/preempt/cs-abort; ! = failed verification)"]
    lines.append("")
    for workload in result.workloads:
        lines.append(workload)
        header = f"{'scheduler':<14}" + "".join(
            f"{policy:>26}" for policy in result.policies)
        lines.append(header)
        for scheduler in result.schedulers:
            for quantum in result.quanta:
                row = f"{scheduler + '/q' + str(quantum):<14}"
                for policy in result.policies:
                    cell = result.cell(scheduler, quantum, policy,
                                       workload)
                    mark = "" if cell["ok"] else "!"
                    row += (f"{cell['cycles']}"
                            f"/{cell.get('preemptions', 0)}"
                            f"/{cell.get('context_switch_aborts', 0)}"
                            f"{mark}").rjust(26)
                lines.append(row)
        lines.append("")
    if result.failures:
        lines.append(f"{len(result.failures)} cell(s) failed "
                     "verification:")
        for key in result.failures:
            cell = result.cells[key]
            problem = cell["error"] or (cell["violations"][0]
                                        if cell["violations"] else "?")
            lines.append(f"  {key}: {problem}")
    return "\n".join(lines)


def _histogram_bar(hist: Mapping, width: int = 24) -> str:
    """Populated buckets of one histogram export as ``<=bound:count``
    pairs (plus ``>bound`` for the overflow bin), bar-scaled."""
    pairs = [(f"<={bound}", count) for bound, count
             in zip(hist["buckets"], hist["counts"]) if count]
    if hist.get("overflow"):
        pairs.append((f">{hist['buckets'][-1]}", hist["overflow"]))
    if not pairs:
        return "(empty)"
    peak = max(count for _, count in pairs)
    return "  ".join(f"{label}:{count}"
                     + "#" * max(1, count * 8 // peak)
                     for label, count in pairs[:width])


def metrics_table(metrics: Optional[Mapping],
                  title: str = "telemetry") -> str:
    """One run's conflict-telemetry payload (a
    :meth:`repro.obs.MetricsRegistry.to_dict` export, as carried by
    ``RunResult.metrics`` / ``VerifyResult.metrics``) as an aligned
    text block: counters, gauges (last/max) and per-histogram
    count/mean/max with the populated buckets."""
    if not metrics:
        return ""
    lines = [title]
    for name, value in (metrics.get("counters") or {}).items():
        lines.append(f"  {name:<30}{value}")
    for name, gauge in (metrics.get("gauges") or {}).items():
        lines.append(f"  {name:<30}{gauge['value']} "
                     f"(max {gauge['max']})")
    for name, hist in (metrics.get("histograms") or {}).items():
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        lines.append(f"  {name:<30}n={hist['count']} mean={mean:.1f} "
                     f"max={hist['max']}")
        lines.append(f"    {_histogram_bar(hist)}")
    return "\n".join(lines)


def dict_table(data: Mapping[str, float], title: str = "") -> str:
    width = max(len(str(k)) for k in data) + 2
    lines = [title] if title else []
    for key, value in data.items():
        rendered = f"{value:.2f}" if isinstance(value, float) else str(value)
        lines.append(f"{str(key):<{width}}{rendered}")
    return "\n".join(lines)
