"""Incremental invalidation of committed ``BENCH_*.json`` artifacts.

Every figure/table artifact in the repo root records the knobs that
produced it (workload sizes, processor counts, cpu counts).  Those
knobs are enough to reconstruct the artifact's *cells* -- the
individual :class:`~repro.harness.spec.RunSpec` simulations behind it
-- and every cell has a deterministic fingerprint.  :func:`plan`
rebuilds each artifact's cell list and checks which fingerprints are
missing from the result cache; :func:`regenerate` re-simulates only
those, priming the cache so a subsequent sweep (or a job submitted to
``repro serve``, which shares the same cache) finds everything warm.

This is what makes ``repro serve --regen`` cheap after an incremental
change: a fingerprint-neutral edit re-runs nothing; a bump of
:data:`~repro.harness.spec.FINGERPRINT_VERSION` (or a config change)
re-runs exactly the affected cells.

Artifacts whose cells this module cannot reconstruct (the ablation
grids with bespoke config surgery) are reported as skipped rather than
silently ignored.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.harness import parallel
from repro.harness.cache import resolve_cache
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.experiments import APP_SCHEMES, MICRO_SCHEMES, _spec
from repro.harness.spec import RunSpec
from repro.workloads.apps import ALL_APPS


# ----------------------------------------------------------------------
# Per-artifact cell planners: BENCH config knobs -> list[RunSpec]
# ----------------------------------------------------------------------
def _plan_micro_sweep(workload: str, size_key: str, schemes) -> Callable:
    def planner(config: dict, results: dict) -> list[RunSpec]:
        base = SystemConfig()
        return [_spec(workload, base, scheme, n, True,
                      **{size_key: config[size_key]})
                for scheme in schemes
                for n in config["processor_counts"]]
    return planner


def _plan_fig07(config: dict, results: dict) -> list[RunSpec]:
    return [_spec("single-counter", SystemConfig(), SyncScheme.TLR,
                  config["num_cpus"], True,
                  total_increments=config["total_increments"])]


def _plan_fig11(config: dict, results: dict) -> list[RunSpec]:
    base = SystemConfig()
    apps = sorted(results) if results else sorted(ALL_APPS)
    return [_spec(name, base, scheme, config["num_cpus"], True)
            for name in apps for scheme in APP_SCHEMES]


def _plan_coarse_vs_fine(config: dict, results: dict) -> list[RunSpec]:
    base = SystemConfig()
    specs = []
    for coarse in (False, True):
        for scheme in (SyncScheme.BASE, SyncScheme.TLR, SyncScheme.MCS):
            workload = "mp3d-coarse" if coarse else "mp3d"
            specs.append(_spec(workload, base, scheme,
                               config["num_cpus"], True))
    return specs


def _plan_rmw_predictor(config: dict, results: dict) -> list[RunSpec]:
    base = SystemConfig()
    speedups = results.get("speedups_base_over_base_noopt")
    apps = sorted(speedups) if isinstance(speedups, dict) else sorted(
        ALL_APPS)
    specs = []
    for name in apps:
        for enabled in (True, False):
            spec = _spec(name, base, SyncScheme.BASE,
                         config["num_cpus"], True)
            spec.config.spec.rmw_predictor_enabled = enabled
            specs.append(spec)
    return specs


def _plan_profile(config: dict, results: dict) -> list[RunSpec]:
    from repro.harness.spec import SIZE_PARAM
    specs = []
    for policy in config["policies"]:
        for workload in config["workloads"]:
            cfg = SystemConfig(num_cpus=config["num_cpus"],
                               scheme=SyncScheme.TLR).with_policy(policy)
            specs.append(RunSpec(
                workload=workload, config=cfg,
                workload_args={SIZE_PARAM[workload]: config["ops"]}))
    return specs


#: bench name (the artifact's ``"bench"`` field) -> cell planner.
PLANNERS: dict[str, Callable[[dict, dict], list[RunSpec]]] = {
    "fig07_queue": _plan_fig07,
    "fig08_multiple_counter": _plan_micro_sweep(
        "multiple-counter", "total_increments", MICRO_SCHEMES),
    "fig09_single_counter": _plan_micro_sweep(
        "single-counter", "total_increments",
        tuple(MICRO_SCHEMES) + (SyncScheme.TLR_STRICT_TS,)),
    "fig10_linked_list": _plan_micro_sweep(
        "linked-list", "total_ops", MICRO_SCHEMES),
    "fig11_applications": _plan_fig11,
    "profile": _plan_profile,
    "tab_coarse_vs_fine": _plan_coarse_vs_fine,
    "tab_rmw_predictor": _plan_rmw_predictor,
}


@dataclass
class ArtifactPlan:
    """One artifact's invalidation verdict."""

    artifact: str                  # file name, e.g. "BENCH_fig09_...json"
    bench: str
    total: int = 0                 # reconstructable cells
    stale: list[RunSpec] = field(default_factory=list)
    skipped: Optional[str] = None  # reason when cells can't be planned

    @property
    def fresh(self) -> int:
        return self.total - len(self.stale)


def plan(repo: Union[str, Path] = ".", cache=True) -> list[ArtifactPlan]:
    """Reconstruct every plannable artifact's cells and classify each
    as fresh (fingerprint present in the cache) or stale."""
    store = resolve_cache(cache)
    plans: list[ArtifactPlan] = []
    for path in sorted(Path(repo).glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            plans.append(ArtifactPlan(artifact=path.name, bench="?",
                                      skipped=f"unreadable: {exc}"))
            continue
        bench = payload.get("bench", "?")
        planner = PLANNERS.get(bench)
        if planner is None:
            plans.append(ArtifactPlan(artifact=path.name, bench=bench,
                                      skipped="no cell planner"))
            continue
        specs = planner(payload.get("config") or {},
                        payload.get("results") or {})
        stale = [spec for spec in specs
                 if store is None or store.get(spec.fingerprint()) is None]
        plans.append(ArtifactPlan(artifact=path.name, bench=bench,
                                  total=len(specs), stale=stale))
    return plans


def render_plan(plans: list[ArtifactPlan]) -> str:
    """Human-readable invalidation report."""
    lines = [f"{'artifact':<42} {'cells':>6} {'fresh':>6} {'stale':>6}"]
    for entry in plans:
        if entry.skipped:
            lines.append(f"{entry.artifact:<42} "
                         f"{'skipped (' + entry.skipped + ')'}")
        else:
            lines.append(f"{entry.artifact:<42} {entry.total:>6} "
                         f"{entry.fresh:>6} {len(entry.stale):>6}")
    total_stale = sum(len(entry.stale) for entry in plans)
    lines.append(f"stale cells to regenerate: {total_stale}")
    return "\n".join(lines)


def regenerate(plans: list[ArtifactPlan], *, jobs: int = 1,
               timeout: Optional[float] = None,
               retries: Optional[int] = None,
               cache=True, progress=None) -> dict:
    """Re-simulate every stale cell (deduplicated across artifacts --
    figures share points), priming the cache.  Returns a summary dict.
    """
    store = resolve_cache(cache)
    specs: list[RunSpec] = []
    seen: set[str] = set()
    for entry in plans:
        for spec in entry.stale:
            fingerprint = spec.fingerprint()
            if fingerprint not in seen:
                seen.add(fingerprint)
                specs.append(spec)
    started = time.perf_counter()
    if specs:
        _, telemetry = parallel.execute(specs, jobs=jobs, timeout=timeout,
                                        retries=retries, cache=store,
                                        progress=progress)
        simulated, failures = telemetry.simulated, telemetry.failures
    else:
        simulated = failures = 0
    return {"artifacts": sum(1 for entry in plans if not entry.skipped),
            "stale": len(specs),
            "simulated": simulated,
            "failures": failures,
            "wall_seconds": time.perf_counter() - started}
