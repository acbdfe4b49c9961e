"""Contract of the committed ``BENCH_*.json`` artifacts.

The artifact registry (:data:`repro.harness.artifacts.ARTIFACTS`)
declares every committed artifact once.  Each file holds exactly
``bench``, ``config`` and ``results``, with ``bench`` naming the file
and ``config`` equal to its registry entry's.  Results are simulated
quantities only; no artifact carries a wall-clock field, so
``repro trend`` compares like with like across commits and machines.
Every artifact's cells can be planned from its committed config (what
``invalidate.plan`` and ``repro serve --regen`` do), and every claim of
the paper the registry states holds on the committed file -- so a
figure regenerated with broken behaviour fails here.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import invalidate, trend
from repro.harness.artifacts import ARTIFACTS, failed_claims

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json"))


def _load(name: str) -> dict:
    return json.loads((REPO_ROOT / name).read_text())


def test_artifacts_are_committed():
    assert COMMITTED == sorted(entry.filename
                               for entry in ARTIFACTS.values())


@pytest.mark.parametrize("name", COMMITTED)
def test_artifact_has_bench_json_shape(name):
    payload = _load(name)
    assert set(payload) == {"bench", "config", "results"}
    assert name == f"BENCH_{payload['bench']}.json"
    assert isinstance(payload["config"], dict)
    flat = trend.flatten_results(payload)
    assert flat, "no numeric result for the trend report to compare"
    assert not any(path.endswith(("wall_s", "wall_seconds",
                                  "events_per_sec")) for path in flat)


@pytest.mark.parametrize("bench", sorted(ARTIFACTS))
def test_artifact_config_is_the_registry_config(bench):
    entry = ARTIFACTS[bench]
    assert _load(entry.filename)["config"] == entry.config


@pytest.mark.parametrize("bench", sorted(ARTIFACTS))
def test_paper_claims_hold_on_committed_artifact(bench):
    entry = ARTIFACTS[bench]
    assert entry.claims, "an artifact with no claim checks nothing"
    assert failed_claims(entry, _load(entry.filename)["results"]) == []


def test_swapped_fig09_series_fail_a_claim():
    """Swapping BASE and TLR in a copy of Figure 9 breaks the paper's
    shape, and the claims notice."""
    results = copy.deepcopy(_load("BENCH_fig09_single_counter.json")
                            ["results"])
    cycles = results["cycles"]
    cycles["BASE"], cycles["BASE+SLE+TLR"] = (cycles["BASE+SLE+TLR"],
                                              cycles["BASE"])
    assert "tlr_lowest_at_every_point" in failed_claims(
        ARTIFACTS["fig09_single_counter"], results)


def test_import_repro_does_not_load_the_registry():
    code = ("import sys, repro, repro.harness; "
            "print('repro.harness.artifacts' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "False"


@pytest.fixture(scope="module")
def plans():
    return {entry.bench: entry
            for entry in invalidate.plan(REPO_ROOT, cache=None)}


@pytest.mark.parametrize("bench", sorted(ARTIFACTS))
def test_planned_artifact_reconstructs_its_cells(bench, plans):
    entry = plans[bench]
    assert entry.skipped is None
    assert entry.total > 0
    assert entry.verified == ARTIFACTS[bench].verified
    # Without a cache every reconstructed cell is stale.
    assert len(entry.stale) == entry.total
