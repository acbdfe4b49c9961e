"""Simulator-throughput measurement (the perf-regression harness).

The golden-fingerprint tests pin *what* the simulator computes; this
module measures *how fast*.  It drives the three hottest configurations
from the profiling work -- the Figure 9 single-counter sweep point, the
Figure 10 linked-list point, and one contention-policy grid cell -- and
a 64-CPU directory-protocol scale point
directly on a :class:`~repro.harness.machine.Machine` (bypassing the
sweep engine, so ``Simulator.events_fired`` is observable) and reports,
per workload:

* ``events_per_sec`` -- kernel events dispatched per wall second, the
  primary throughput metric (machine-dependent but far less noisy than
  raw wall time because every run dispatches an identical event count);
* ``wall_s`` -- best-of-``repeats`` wall seconds;
* ``events`` / ``cycles`` -- deterministic run shape (identical across
  machines; movement means the simulation itself changed);
* ``peak_rss_kb`` -- process peak resident set after the run;
* ``fingerprint`` -- :func:`~repro.harness.runner.result_fingerprint`,
  so a perf artifact doubles as a behaviour record.

The payload mirrors the ``BENCH_<name>.json`` artifact schema
(``bench``/``config``/``results``/``wall_seconds``) so ``repro trend``
picks it up with no special casing: ``events_per_sec`` falling or
``wall_s`` rising classifies as a regression (see
:mod:`repro.harness.trend`).  Reference numbers recorded at
measurement time live under ``config`` (``baseline``/``speedup``),
which trend deliberately skips -- they describe the machine that wrote
the artifact, not the commit under test.

Checking against a reference payload (``repro perf --check REF``) has
two gates: :func:`check_shape` hard-fails on any change to a workload's
deterministic shape (fingerprint, events, cycles), and
:func:`check_throughput` fails when events/sec dropped beyond a noise
tolerance.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Union

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.runner import RunResult, result_fingerprint
from repro.harness.spec import RunSpec, stamp_schema

ARTIFACT_NAME = "BENCH_perf.json"

#: Workload sizes: the profiled configurations (full) and a CI-friendly
#: quarter-size variant (quick).
_SIZES = {"full": {"fig09_single_counter": 2048,
                   "fig10_linked_list": 2048,
                   "policy_grid_cell": 1024,
                   "big_machine": 512},
          "quick": {"fig09_single_counter": 512,
                    "fig10_linked_list": 512,
                    "policy_grid_cell": 256,
                    "big_machine": 64}}


def perf_specs(quick: bool = False) -> dict[str, RunSpec]:
    """The measured workloads, name -> :class:`RunSpec`.

    ``big_machine`` is the scale point: 64 CPUs contending on the
    linked list over the directory protocol, where the kernel queue is
    deepest and same-cycle events are most numerous.
    """
    sizes = _SIZES["quick" if quick else "full"]
    cfg = SystemConfig(num_cpus=8, scheme=SyncScheme.TLR, seed=0)
    return {
        "fig09_single_counter": RunSpec(
            workload="single-counter", config=cfg,
            workload_args={"total_increments":
                           sizes["fig09_single_counter"]}),
        "fig10_linked_list": RunSpec(
            workload="linked-list", config=cfg,
            workload_args={"total_ops": sizes["fig10_linked_list"]}),
        "policy_grid_cell": RunSpec(
            workload="linked-list", config=cfg.with_policy("backoff"),
            workload_args={"total_ops": sizes["policy_grid_cell"]}),
        "big_machine": RunSpec(
            workload="linked-list",
            config=replace(cfg, num_cpus=64, protocol="directory"),
            workload_args={"total_ops": sizes["big_machine"]}),
    }


def _peak_rss_kb() -> Optional[int]:
    """Process peak RSS in KiB (Linux ``ru_maxrss`` unit), or ``None``
    where the ``resource`` module is unavailable (non-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only fallback
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _measure_once(spec: RunSpec) -> tuple:
    """One timed run on a fresh machine: (wall, events, cycles, fp)."""
    workload = spec.build_workload()
    machine = Machine(spec.config)
    start = time.perf_counter()
    stats = machine.run_workload(workload, validate=spec.validate)
    wall = time.perf_counter() - start
    fingerprint = result_fingerprint(RunResult(
        config=spec.config, workload_name=workload.name,
        stats=stats, store=machine.store))
    return wall, machine.sim.events_fired, stats.total_cycles, fingerprint


def measure_spec(spec: RunSpec, repeats: int = 3) -> dict:
    """Run ``spec`` ``repeats`` times on fresh machines; report the
    best wall time (least-noise estimator for a deterministic job) and
    the run's deterministic shape."""
    best_wall, events, cycles, fingerprint = min(
        _measure_once(spec) for _ in range(max(1, repeats)))
    return {
        "wall_s": round(best_wall, 6),
        "events": events,
        "cycles": cycles,
        "events_per_sec": round(events / best_wall) if best_wall else 0,
        "peak_rss_kb": _peak_rss_kb(),
        "fingerprint": fingerprint,
    }


def run_perf(quick: bool = False, repeats: int = 3,
             baseline: Optional[dict] = None) -> dict:
    """Measure every perf workload; returns a BENCH-schema payload.

    ``baseline`` is an earlier ``run_perf`` payload (e.g. measured on
    the parent commit on the same machine); when given, per-workload
    speedups are recorded under ``config`` for human consumption.
    """
    specs = perf_specs(quick=quick)
    total_start = time.perf_counter()
    results = {name: measure_spec(spec, repeats=repeats)
               for name, spec in specs.items()}
    payload = stamp_schema({
        "bench": "perf",
        "config": {
            "quick": quick,
            "repeats": repeats,
            "workload_sizes": dict(_SIZES["quick" if quick else "full"]),
        },
        "results": results,
        "wall_seconds": round(time.perf_counter() - total_start, 3),
    })
    if baseline is not None:
        base_results = baseline.get("results", {})
        speedups = {}
        for name, row in results.items():
            base_row = base_results.get(name) or {}
            base_eps = base_row.get("events_per_sec")
            if base_eps:
                speedups[name] = round(row["events_per_sec"] / base_eps, 3)
        payload["config"]["baseline"] = {
            name: {key: row.get(key)
                   for key in ("wall_s", "events_per_sec")}
            for name, row in base_results.items()}
        payload["config"]["speedup_events_per_sec"] = speedups
    return payload


# ----------------------------------------------------------------------
# Regression check
# ----------------------------------------------------------------------
def load_reference(source: str, repo: Union[str, Path] = ".") -> dict:
    """A reference perf payload: a JSON file if ``source`` names one,
    otherwise ``git show <source>:BENCH_perf.json``."""
    path = Path(source)
    if path.is_file():
        return json.loads(path.read_text())
    blob = subprocess.run(
        ["git", "-C", str(repo), "show", f"{source}:{ARTIFACT_NAME}"],
        capture_output=True, text=True)
    if blob.returncode != 0:
        raise FileNotFoundError(
            f"no perf reference at {source!r} (neither a file nor "
            f"{source}:{ARTIFACT_NAME}): {blob.stderr.strip()}")
    return json.loads(blob.stdout)


def check_throughput(current: dict, reference: dict,
                     max_drop: float = 0.25) -> list[str]:
    """Failures where ``events_per_sec`` fell more than ``max_drop``
    relative to the reference (wall noise is deliberately not checked:
    only the throughput ratio gates)."""
    failures = []
    ref_results = reference.get("results", {})
    for name, row in current.get("results", {}).items():
        ref_row = ref_results.get(name)
        if not ref_row or not ref_row.get("events_per_sec"):
            continue
        ratio = row["events_per_sec"] / ref_row["events_per_sec"]
        if ratio < 1.0 - max_drop:
            failures.append(
                f"{name}: events/sec {row['events_per_sec']} is "
                f"{1 - ratio:.0%} below reference "
                f"{ref_row['events_per_sec']} (limit {max_drop:.0%})")
    return failures


def check_shape(current: dict, reference: dict) -> list[str]:
    """Failures where a workload's deterministic shape -- fingerprint,
    events or cycles -- differs from the reference payload.

    The shape is identical on every machine, so unlike throughput there
    is no noise tolerance: any difference means the simulation changed.
    Payloads measured at different workload sizes (a full run against a
    quick artifact) are not comparable and yield no failures.
    """
    sizes = current.get("config", {}).get("workload_sizes")
    if sizes != reference.get("config", {}).get("workload_sizes"):
        return []
    failures = []
    ref_results = reference.get("results", {})
    for name, row in current.get("results", {}).items():
        ref_row = ref_results.get(name)
        if ref_row is None:
            continue
        for key in ("fingerprint", "events", "cycles"):
            if row.get(key) != ref_row.get(key):
                failures.append(f"{name}: {key} {row.get(key)} != "
                                f"reference {ref_row.get(key)}")
    return failures


def render_table(payload: dict) -> str:
    """Human-readable summary of a perf payload."""
    config = payload.get("config", {})
    lines = [f"{'workload':<24} {'events/s':>12} {'wall_s':>9} "
             f"{'events':>9} {'cycles':>9}  fingerprint"]
    for name, row in payload.get("results", {}).items():
        lines.append(
            f"{name:<24} {row['events_per_sec']:>12,} "
            f"{row['wall_s']:>9.3f} {row['events']:>9,} "
            f"{row['cycles']:>9,}  {row['fingerprint'][:16]}")
    speedups = config.get("speedup_events_per_sec")
    if speedups:
        pretty = ", ".join(f"{k}: {v:.2f}x" for k, v in speedups.items())
        lines.append(f"speedup vs recorded baseline: {pretty}")
    return "\n".join(lines)
