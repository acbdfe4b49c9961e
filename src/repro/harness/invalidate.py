"""Incremental invalidation of committed ``BENCH_*.json`` artifacts.

Every artifact in the repo root records the knobs that produced it in
its ``config`` block.  The artifact registry
(:data:`~repro.harness.artifacts.ARTIFACTS`) turns that config back
into the artifact's *cells* -- the individual
:class:`~repro.harness.spec.RunSpec` simulations behind it -- and every
cell has a deterministic cache key.  :func:`plan` rebuilds each
artifact's cell list and checks which keys are missing from the result
cache; :func:`regenerate` re-simulates only those, priming the cache so
a subsequent sweep (or a job submitted to ``repro serve``, which shares
the same cache) finds everything warm.  Cells of a verified artifact
(the policy and scheduler grids) run through the verifier and are keyed
by their verification fingerprint.

This is what makes ``repro serve --regen`` cheap after an incremental
change: a fingerprint-neutral edit re-runs nothing; a bump of
:data:`~repro.harness.spec.FINGERPRINT_VERSION` (or a config change)
re-runs exactly the affected cells.

An artifact whose cells cannot be planned -- unreadable, not a JSON
object, an unknown ``bench``, or a config the planner rejects -- is
reported as skipped with its reason rather than silently ignored.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.harness.artifacts import ARTIFACTS
from repro.harness.cache import resolve_cache
from repro.harness.parallel import cell_key, execute
from repro.harness.spec import RunSpec
from repro.verify.explorer import VerifyOptions


@dataclass
class ArtifactPlan:
    """One artifact's invalidation verdict."""

    artifact: str                  # file name, e.g. "BENCH_fig09_...json"
    bench: str
    total: int = 0                 # reconstructable cells
    stale: list[RunSpec] = field(default_factory=list)
    skipped: Optional[str] = None  # reason when cells can't be planned
    verify: Optional[VerifyOptions] = None  # set: cells run verified

    @property
    def verified(self) -> bool:
        return self.verify is not None

    @property
    def fresh(self) -> int:
        return self.total - len(self.stale)


def plan(repo: Union[str, Path] = ".", cache=True) -> list[ArtifactPlan]:
    """Reconstruct every plannable artifact's cells and classify each
    as fresh (key present in the cache) or stale."""
    store = resolve_cache(cache)
    plans: list[ArtifactPlan] = []
    for path in sorted(Path(repo).glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            plans.append(ArtifactPlan(artifact=path.name, bench="?",
                                      skipped=f"unreadable: {exc}"))
            continue
        if not isinstance(payload, dict):
            plans.append(ArtifactPlan(artifact=path.name, bench="?",
                                      skipped="not a JSON object"))
            continue
        bench = str(payload.get("bench", "?"))
        entry = ARTIFACTS.get(bench)
        if entry is None:
            plans.append(ArtifactPlan(artifact=path.name, bench=bench,
                                      skipped="no cell planner"))
            continue
        try:
            specs = entry.cells(payload.get("config"))
        except (KeyError, TypeError, ValueError) as exc:
            plans.append(ArtifactPlan(
                artifact=path.name, bench=bench,
                skipped=f"bad config: {type(exc).__name__}: {exc}"))
            continue
        stale = [spec for spec in specs if store is None or store.get(
            cell_key(spec, entry.verify)) is None]
        plans.append(ArtifactPlan(artifact=path.name, bench=bench,
                                  total=len(specs), stale=stale,
                                  verify=entry.verify))
    return plans


def render_plan(plans: list[ArtifactPlan]) -> str:
    """Human-readable invalidation report."""
    width = max([len("artifact")] + [len(entry.artifact) for entry in plans])
    lines = [f"{'artifact':<{width}} {'cells':>6} {'fresh':>6} {'stale':>6}"]
    for entry in plans:
        if entry.skipped:
            lines.append(f"{entry.artifact:<{width}} "
                         f"skipped ({entry.skipped})")
        else:
            lines.append(f"{entry.artifact:<{width}} {entry.total:>6} "
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
    batches: dict[Optional[VerifyOptions], dict[str, RunSpec]] = {}
    for entry in plans:
        for spec in entry.stale:
            batches.setdefault(entry.verify, {}).setdefault(
                cell_key(spec, entry.verify), spec)
    started = time.perf_counter()
    simulated = failures = 0
    for options, specs in batches.items():
        _, telemetry = execute(
            list(specs.values()), jobs=jobs, timeout=timeout,
            retries=retries, cache=store, progress=progress, verify=options)
        simulated += telemetry.simulated
        failures += telemetry.failures
    return {"artifacts": sum(1 for entry in plans if not entry.skipped),
            "stale": sum(len(specs) for specs in batches.values()),
            "simulated": simulated,
            "failures": failures,
            "wall_seconds": time.perf_counter() - started}
