"""Benchmark-harness helpers.

Each benchmark regenerates one of the paper's tables or figures: it runs
the experiment sweep, prints the same rows/series the paper reports (so
``PYTHONPATH=src python -m pytest benchmarks -q -s`` reproduces the
evaluation on a terminal), writes a text artifact under
``benchmarks/out/``, and drops a machine-readable ``BENCH_<name>.json``
at the repo root via :func:`bench_json` (schema: the sweep's
configuration knobs and the raw per-point results).  The results are
simulated cycles; nothing here times the simulator -- ``bench/run.py``
does that.

Scale knobs: ``REPRO_BENCH_SCALE`` (default 1) multiplies workload
sizes; ``REPRO_BENCH_FULL=1`` switches to the full processor-count sweep
(2..16 in steps of 2) instead of the quick {2,4,8,16}.

Engine knobs: ``REPRO_BENCH_JOBS`` (default 1) fans each sweep's
independent runs out over worker processes (results are bit-identical
to serial); ``REPRO_BENCH_CACHE=1`` enables the on-disk result cache
(off by default so every run really simulates).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"
REPO_ROOT = Path(__file__).parent.parent


def scale() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))


def jobs() -> int:
    return max(0, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


def engine_kwargs() -> dict:
    """Uniform sweep-engine arguments for every figure/table benchmark."""
    return {"jobs": jobs(),
            "cache": bool(os.environ.get("REPRO_BENCH_CACHE"))}


def processor_counts() -> tuple[int, ...]:
    if os.environ.get("REPRO_BENCH_FULL"):
        return (2, 4, 6, 8, 10, 12, 14, 16)
    return (2, 4, 8, 16)


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def sweep_results(result) -> dict:
    """Flatten a SweepResult into the BENCH json ``results`` shape:
    per-scheme cycles at each processor count plus speedups over BASE
    (``None`` where a run failed)."""
    cycles = {scheme.value: list(series)
              for scheme, series in result.series.items()}
    out = {"processor_counts": list(result.processor_counts),
           "cycles": cycles}
    base = cycles.get("BASE")
    if base:
        out["speedups_over_base"] = {
            name: [b / c if b and c else None
                   for b, c in zip(base, series)]
            for name, series in cycles.items()}
    # Summarized conflict telemetry per sweep point ("SCHEME/procs" ->
    # {metric: number}); deterministic, so trend-comparable.
    metrics = result.extra.get("metrics")
    if metrics:
        out["metrics"] = metrics
    return out


def bench_json(name: str, config: dict, results: dict) -> None:
    """Write ``BENCH_<name>.json`` at the repo root.

    ``config`` holds the sweep's knobs (scale, processor counts, seeds,
    ...), ``results`` the raw numbers (per-point cycles / speedups).
    """
    payload = {"bench": name, "config": config, "results": results}
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
