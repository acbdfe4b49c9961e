"""Contract of the committed ``BENCH_*.json`` artifacts.

The artifact registry (:data:`repro.harness.artifacts.ARTIFACTS`)
declares every committed artifact once.  Each file holds exactly
``bench``, ``config`` and ``results``, with ``bench`` naming the file
and ``config`` equal to its registry entry's.  Results are simulated
quantities only; no artifact carries a wall-clock field, so a
regenerated file is byte-identical on any machine.
Every artifact's cells can be planned from its committed config (what
``invalidate.plan`` and ``repro serve --regen`` do), and every claim of
the paper the registry states holds on the committed file -- so a
figure regenerated with broken behaviour fails here.  Each claim also
fails on a copy of its file with the stated shape broken, so none
holds vacuously.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import invalidate
from repro.harness.artifacts import (ARTIFACTS, BASE, MCS, SLE, STRICT, TLR,
                                     failed_claims)

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
    paths = list(_numeric_paths(payload["results"], "results"))
    assert paths, "no numeric result"
    assert not any(path.endswith(("wall_s", "wall_seconds",
                                  "events_per_sec")) for path in paths)


def _numeric_paths(node, path: str):
    """Dotted paths of the numeric leaves under ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_paths(value, f"{path}.{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_paths(value, f"{path}.{index}")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


@pytest.mark.parametrize("bench", sorted(ARTIFACTS))
def test_artifact_config_is_the_registry_config(bench):
    entry = ARTIFACTS[bench]
    assert _load(entry.filename)["config"] == entry.config


@pytest.mark.parametrize("bench", sorted(ARTIFACTS))
def test_paper_claims_hold_on_committed_artifact(bench):
    entry = ARTIFACTS[bench]
    assert entry.claims, "an artifact with no claim checks nothing"
    assert failed_claims(entry, _load(entry.filename)["results"]) == []


def _set(*path, to):
    """Set the result at ``path`` to ``to(results)``."""
    def mutate(results):
        *parents, leaf = path
        node = results
        for key in parents:
            node = node[key]
        node[leaf] = to(results)
    return mutate


def _at(*path):
    """The result at ``path``, read from the copy being mutated."""
    def read(results):
        for key in path:
            results = results[key]
        return results
    return read


def _swap_base_and_tlr(results):
    cycles = results["cycles"]
    cycles[BASE], cycles[TLR] = cycles[TLR], cycles[BASE]


# One mutated copy per registry claim: (bench, claim, mutation that
# breaks the paper's shape that claim states).
MUTATIONS = [
    ("fig09_single_counter", "tlr_lowest_at_every_point",
     _swap_base_and_tlr),
    # TLR at 16p takes 0.6x its 8p time instead of about half.
    ("fig08_multiple_counter", "tlr_halves_per_doubling",
     _set("cycles", TLR, 3, to=lambda r: int(r["cycles"][TLR][2] * 0.6))),
    # TLR at 16p only 3x over BASE.
    ("fig09_single_counter", "tlr_about_4x_over_base_at_16p",
     _set("cycles", TLR, 3, to=lambda r: r["cycles"][BASE][3] // 3)),
    # SLE at 16p 10% above BASE.
    ("fig10_linked_list", "sle_within_4pct_of_base",
     _set("cycles", SLE, 3, to=lambda r: int(r["cycles"][BASE][3] * 1.1))),
    # TLR at 8p only 2x over BASE.
    ("fig10_linked_list", "tlr_about_3x_over_base_at_4_and_8p",
     _set("cycles", TLR, 2, to=lambda r: r["cycles"][BASE][2] // 2)),
    # A restart storm: one section in four restarts.
    ("fig07_queue", "restarts_stay_rare",
     _set("restarts", to=lambda r: r["critical_sections"] // 4)),
    ("fig07_queue", "requests_queue_on_the_data",
     _set("deferrals", to=lambda r: 0)),
    ("fig08_multiple_counter", "sle_equals_tlr_at_every_point",
     _set("cycles", SLE, 0, to=lambda r: r["cycles"][TLR][0] + 1)),
    ("fig08_multiple_counter", "tlr_below_base_and_mcs_at_every_point",
     _set("cycles", TLR, 0, to=_at("cycles", MCS, 0))),
    ("fig08_multiple_counter", "base_rises_with_processors",
     _set("cycles", BASE, 3, to=_at("cycles", BASE, 2))),
    # STRICT's gap over TLR at 16p no wider than at 8p.
    ("fig09_single_counter", "strict_ts_gap_grows",
     _set("cycles", STRICT, 3, to=lambda r: (
         r["cycles"][TLR][3] + r["cycles"][STRICT][2] - r["cycles"][TLR][2]))),
    ("fig09_single_counter", "sle_within_4pct_of_base",
     _set("cycles", SLE, 0, to=lambda r: int(r["cycles"][BASE][0] * 0.9))),
    ("fig10_linked_list", "tlr_lowest_at_every_point",
     _set("cycles", TLR, 1, to=_at("cycles", SLE, 1))),
    ("fig11_applications", "tlr_never_loses_to_base",
     _set("ocean-cont", "speedups_over_base", TLR, to=lambda r: 0.9)),
    ("fig11_applications", "radiosity_tlr_speedup_above_1_3",
     _set("radiosity", "speedups_over_base", TLR, to=lambda r: 1.25)),
    ("fig11_applications", "mp3d_tlr_speedup_above_1_2",
     _set("mp3d", "speedups_over_base", TLR, to=lambda r: 1.15)),
    ("fig11_applications", "mp3d_mcs_loses_to_base",
     _set("mp3d", "speedups_over_base", MCS, to=lambda r: 1.0)),
    ("fig11_applications", "water_nsq_mcs_loses_to_base",
     _set("water-nsq", "speedups_over_base", MCS, to=lambda r: 1.0)),
    ("tab_coarse_vs_fine", "coarse_tlr_beats_fine_base_by_1_3x",
     _set("speedup_tlr_coarse_over_base_fine", to=lambda r: 1.3)),
    ("tab_coarse_vs_fine", "coarse_tlr_beats_fine_tlr",
     _set("speedup_tlr_coarse_over_tlr_fine", to=lambda r: 1.0)),
    ("tab_coarse_vs_fine", "coarse_lock_more_than_doubles_base",
     _set("coarse/BASE", to=lambda r: 2 * r["fine/BASE"])),
    ("tab_rmw_predictor", "predictor_never_hurts",
     _set("speedups_base_over_base_noopt", "mp3d", to=lambda r: 0.9)),
    ("tab_rmw_predictor", "predictor_helps_some_app",
     _set("speedups_base_over_base_noopt", to=lambda r: dict.fromkeys(
         r["speedups_base_over_base_noopt"], 1.0))),
    ("policies", "every_cell_passes_the_oracle",
     _set("failed_cells", to=lambda r: ["nack/linked-list/8"])),
    ("policies", "timestamp_at_most_requester_wins_when_contended",
     _set("cycles", "timestamp/linked-list/8", to=lambda r: (
         r["cycles"]["requester-wins/linked-list/8"] + 1))),
    ("sched", "every_cell_passes_the_oracle",
     _set("failed_cells", to=lambda r: ["cfs/q200/nack/linked-list"])),
    ("sched", "short_quantum_preempts_at_least_as_often",
     _set("preemptions", "cfs/q200/nack/linked-list", to=lambda r: (
         r["preemptions"]["cfs/q800/nack/linked-list"] - 1))),
    ("profile", "timestamp_aborts_at_most_nack",
     _set("totals", "timestamp/linked-list", "aborts", to=lambda r: (
         r["totals"]["nack/linked-list"]["aborts"] + 1))),
    # Every attempt commits: the cell never contended.
    ("profile", "every_cell_contends",
     _set("totals", "nack/single-counter", "attempts",
          to=_at("totals", "nack/single-counter", "commits"))),
    ("protocols", "tlr_beats_base_on_both_substrates",
     _set("cycles", f"directory/list/{TLR}",
          to=_at("cycles", f"directory/list/{BASE}"))),
    ("ablation_retention_policy", "defer_sends_no_nacks",
     _set("defer/nacks", to=lambda r: 1)),
    ("ablation_retention_policy", "nack_sends_nacks",
     _set("nack/nacks", to=lambda r: 0)),
    ("ablation_single_block_relaxation", "relaxation_cuts_restarts",
     _set("relaxed/restarts", to=_at("strict/restarts"))),
    ("ablation_single_block_relaxation", "relaxation_never_slows",
     _set("relaxed/cycles", to=lambda r: r["strict/cycles"] + 1)),
    ("ablation_write_buffer", "big_buffer_elides_more",
     _set("wb64/elided", to=_at("wb8/elided"))),
    ("ablation_restart_backoff", "backoff_suppresses_restart_storm",
     _set("backoff20/restarts", to=_at("backoff0/restarts"))),
    ("ablation_data_bandwidth", "throttling_never_speeds_base",
     _set(f"bw16/{BASE}", to=lambda r: r[f"bw0/{BASE}"] - 1)),
    ("ablation_data_bandwidth", "throttling_never_speeds_tlr",
     _set(f"bw16/{TLR}", to=lambda r: r[f"bw0/{TLR}"] - 1)),
    ("ablation_untimestamped_policy", "defer_equals_abort",
     _set("defer/cycles", to=lambda r: r["abort/cycles"] + 1)),
]


def test_every_claim_has_a_mutation():
    assert sorted((bench, claim) for bench, claim, _ in MUTATIONS) == sorted(
        (bench, claim) for bench, entry in ARTIFACTS.items()
        for claim in entry.claims)


@pytest.mark.parametrize("bench, claim, mutate", MUTATIONS,
                         ids=[f"{b}.{c}" for b, c, _ in MUTATIONS])
def test_broken_paper_shape_fails_its_claim(bench, claim, mutate):
    """A copy of a committed file with the paper's shape broken fails
    the claim that states that shape, so no claim holds vacuously."""
    entry = ARTIFACTS[bench]
    results = copy.deepcopy(_load(entry.filename)["results"])
    assert claim not in failed_claims(entry, results)
    mutate(results)
    assert claim in failed_claims(entry, results)


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
