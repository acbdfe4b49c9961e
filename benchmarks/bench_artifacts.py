"""Regenerate every committed ``BENCH_*.json`` from the artifact registry.

One case per entry of :data:`repro.harness.artifacts.ARTIFACTS`: run the
entry's cells (verified entries through the oracle and monitors), reduce
their outcomes to the file's ``results``, write ``BENCH_<bench>.json`` at
the repo root, and assert every one of the entry's claims -- the paper's
shape -- on what was just written.  The results are simulated cycles;
nothing here times the simulator (``bench/run.py`` does that).

    PYTHONPATH=src python -m pytest benchmarks -q                 # all
    PYTHONPATH=src python -m pytest benchmarks -k fig09_single    # one

``REPRO_BENCH_JOBS`` (default 1) fans each entry's cells out over worker
processes; results are bit-identical to serial.  No result cache is
used, so every cell really simulates.  ``git diff`` afterwards shows any
moved result, and ``repro figure9`` (etc.) prints the same tables.
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness.artifacts import ARTIFACTS, failed_claims, regenerate

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("bench", sorted(ARTIFACTS))
def test_artifact(bench):
    entry = ARTIFACTS[bench]
    payload = regenerate(
        entry, jobs=max(0, int(os.environ.get("REPRO_BENCH_JOBS", "1"))))
    (REPO_ROOT / entry.filename).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert not failed_claims(entry, payload["results"])
