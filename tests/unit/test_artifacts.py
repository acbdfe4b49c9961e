"""Contract of the committed ``BENCH_*.json`` artifacts.

Every artifact at the repo root is written by the figure benchmarks'
``bench_json`` helper: exactly ``bench``, ``config`` and ``results``,
with ``bench`` naming the file.  Results are simulated quantities only;
no artifact carries a wall-clock field, so ``repro trend`` compares
like with like across commits and machines.  Artifacts whose bench has
a cell planner must reconstruct their cells for ``repro invalidate``.
"""

import json
from pathlib import Path

import pytest

from repro.harness import invalidate, trend

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACTS = sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json"))


def _load(name: str) -> dict:
    return json.loads((REPO_ROOT / name).read_text())


def test_artifacts_are_committed():
    assert len(ARTIFACTS) >= len(invalidate.PLANNERS)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_has_bench_json_shape(name):
    payload = _load(name)
    assert set(payload) == {"bench", "config", "results"}
    assert name == f"BENCH_{payload['bench']}.json"
    assert isinstance(payload["config"], dict)
    flat = trend.flatten_results(payload)
    assert flat, "no numeric result for the trend report to compare"
    assert not any(path.endswith(("wall_s", "wall_seconds",
                                  "events_per_sec")) for path in flat)


@pytest.fixture(scope="module")
def plans():
    return {entry.bench: entry
            for entry in invalidate.plan(REPO_ROOT, cache=None)}


@pytest.mark.parametrize("bench", sorted(invalidate.PLANNERS))
def test_planned_artifact_reconstructs_its_cells(bench, plans):
    entry = plans[bench]
    assert entry.skipped is None
    assert entry.total > 0
    # Without a cache every reconstructed cell is stale.
    assert len(entry.stale) == entry.total
