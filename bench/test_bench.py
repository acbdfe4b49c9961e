"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

Each smoke set runs one short traced slice of every workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import MODULE_LAYERS, LayerMapper, layer_of, module_name

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]
#: Per-layer metrics that only the simulation's deterministic outcome
#: sets, so two runs with one seed must agree on them exactly.
COUNTS = ["model.cycles", "sim.events"] + [
    m["name"] for m in DEFINITION["per_layer"]
    if m["name"].startswith(("coherence.", "tlr."))
    and not m["name"].endswith("_share")]


def run_bench(*args, timeout=120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=timeout)


def smoke_set(tmp: Path, *args) -> tuple:
    out = tmp / "set.json"
    proc = run_bench("--smoke", "--out", str(out), *args)
    runs = json.loads(out.read_text())["runs"] if out.exists() else None
    return proc, runs


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two smoke sets of every workload with the same seed."""
    sets = []
    for k in range(2):
        proc, runs = smoke_set(tmp_path_factory.mktemp(f"smoke{k}"))
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        sets.append(runs)
    return sets


def test_every_metric_has_its_unit_on_every_workload(smoke_runs):
    for runs in smoke_runs:
        assert sorted(runs) == sorted(WORKLOADS)
        for name in WORKLOADS:
            (record,) = runs[name]
            for section, key in (("end_to_end", "metrics"),
                                 ("per_layer", "per_layer")):
                got = {metric: row["unit"]
                       for metric, row in record[key].items()}
                want = {m["name"]: m["unit"] for m in DEFINITION[section]}
                assert got == want, (name, section)


def test_layer_shares_sum_to_one(smoke_runs):
    for name in WORKLOADS:
        per_layer = smoke_runs[0][name][0]["per_layer"]
        total = sum(row["value"] for metric, row in per_layer.items()
                    if metric.endswith(".self_share"))
        assert total == pytest.approx(1.0, abs=0.01), name


def test_counts_repeat_across_smoke_runs(smoke_runs):
    first, second = smoke_runs
    for name in WORKLOADS:
        for metric in COUNTS:
            assert (first[name][0]["per_layer"][metric]["value"]
                    == second[name][0]["per_layer"][metric]["value"]), (
                name, metric)


def test_every_module_maps_to_exactly_one_layer():
    modules = [module_name(path, SRC)
               for path in sorted((SRC / "repro").rglob("*.py"))]
    unassigned = [m for m in modules if layer_of(m) is None]
    assert not unassigned, f"add to bench/layers.py: {unassigned}"
    mapper = LayerMapper(SRC)
    for path in (SRC / "repro").rglob("*.py"):
        assert mapper(str(path)) != "stdlib", path
    assert mapper(json.__file__) == "stdlib"
    # Package-wide entries never shadow a split package's modules.
    assert layer_of("repro.sim.not_a_module") is None
    assert layer_of("repro.not_a_package.mod") is None
    assert set(MODULE_LAYERS.values()) <= {
        "sim", "cpu", "coherence", "tlr", "obs", "workloads", "harness",
        "serve"}


def copy_bench(root: Path) -> Path:
    """``BENCHMARK.json`` and ``bench/`` under ``root``; returns the
    copy of ``run.py``."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH, root / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return root / "bench" / "run.py"


def test_tampered_pin_fails_the_run(tmp_path):
    run_py = copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(SRC)
    expected = tmp_path / "bench" / "expected.json"
    pins = json.loads(expected.read_text())
    pins["private_counters"]["0"] = "0" * 64
    expected.write_text(json.dumps(pins))
    out = tmp_path / "set.json"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--smoke", "--workload",
         "private_counters", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    runs = json.loads(out.read_text())["runs"]
    record = runs["private_counters"][0]
    assert record["failed"] / record["attempted"] > 0
    assert not record["correct"]


def _set(values: dict) -> dict:
    return {"runs": {name: [
        {"metrics": {m["name"]: {"value": values.get(m["name"], 1.0) * (
            1 + 0.001 * k), "unit": m["unit"]}
            for m in DEFINITION["end_to_end"]}} for k in range(10)]
        for name in WORKLOADS}}


def test_compare_flags_a_worsening_beyond_its_bound(tmp_path):
    base, same, slower = (tmp_path / f"{n}.json" for n in ("a", "b", "c"))
    base.write_text(json.dumps(_set({})))
    same.write_text(json.dumps(_set({})))
    slower.write_text(json.dumps(_set({"op_p50_ref_ms": 2.0})))
    proc = run_bench("--compare", str(base), str(same))
    assert proc.returncode == 0 and "WORSE" not in proc.stdout
    proc = run_bench("--compare", str(base), str(slower))
    assert proc.returncode == 1
    assert proc.stdout.count("WORSE") == len(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    copy_bench(tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
