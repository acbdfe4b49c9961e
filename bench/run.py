#!/usr/bin/env python3
"""Benchmark runner: the paths people run, end to end and per layer.

One workload (the last stdout line is the result)::

    python3 bench/run.py --workload contended_list --seed 0 --trace 0

Every workload, round-robin, optionally ``--runs`` times with seeds
``S, S+1, ...``, saved as a set::

    python3 bench/run.py [--seed N] [--trace] [--runs 10] [--out F]

Two sets compared against the bounds in ``BENCHMARK.json``::

    python3 bench/run.py --compare A.json B.json

``--smoke`` runs one short traced slice of every workload (the tests
use it); ``--pin`` rewrites ``bench/expected.json`` from seed 0.
Children get ``src`` on ``PYTHONPATH``, so nothing needs installing.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
#: Each untraced run is this many slices, each in a fresh process.
SLICES = 4
#: A child that outlives this is killed with its process group.
CHILD_TIMEOUT_S = 170
#: Reference host speed for the timing metrics: an op's time is scaled
#: by REFERENCE_S / (the median time of ``child.reference_work`` near
#: it), i.e. to a host that runs the reference in 2.8 ms.
REFERENCE_S = 2.8e-3
SMOKE_SECONDS = 1.0


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(workload: str, seed: int, slice_index: int, seconds: float,
          trace: bool) -> dict:
    """Run one slice in a fresh process; returns its result dict."""
    workdir = OUT / "tmp" / f"{workload}-{slice_index}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(workdir),
               REPRO_CACHE_DIR=str(workdir / "repro-cache"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    spawned_at = time.monotonic()
    argv = [sys.executable, str(BENCH / "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--slice", str(slice_index), "--seconds", str(seconds),
            "--spawned-at", repr(spawned_at), "--workdir", str(workdir),
            "--result", str(result)]
    if trace:
        argv.append("--trace")
    try:
        # Own process group, so stopping it also stops the child's server.
        proc = subprocess.Popen(argv, env=env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:  # timed out, or this runner is stopping
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise RuntimeError(f"{workload} slice {slice_index} exited "
                               f"with {code}")
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def quantile_spread(values: list) -> float:
    """(Q3 - Q1) / median, the run-to-run spread used for bounds."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def with_units(values: dict, section: list) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of a
    ``BENCHMARK.json`` section, in its order."""
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in section}


def aggregate(slices: list, definition: dict) -> dict:
    """One run's record from its slices: end-to-end metrics from the
    pooled plain samples, per-layer metrics from a traced slice, and
    the checks, including fingerprints that differ between slices."""
    plain = [(row, REFERENCE_S / row["reference_s"]) for s in slices
             for row in s["samples"] if row["kind"] == "plain"]
    walls = sorted(row["wall"] for row, _scale in plain)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * REFERENCE_S
                                     / s["reference_s"] for s in slices),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in slices),
        "op_p50_ref_ms": statistics.median(
            row["wall"] * scale for row, scale in plain) * 1e3,
        "cycles_per_ref_s": statistics.median(
            row["cycles"] / (row["wall"] * scale) for row, scale in plain),
    }
    attempted = sum(s["attempted"] for s in slices)
    failed = sum(s["failed"] for s in slices)
    errors = [e for s in slices for e in s["errors"]]
    seen: dict = {}
    for s in slices:
        for key, fingerprint in s["fingerprints"].items():
            if seen.setdefault(key, fingerprint) != fingerprint:
                failed += 1
                errors.append(f"{key}: fingerprint differs between slices")
    extra = {"samples": len(walls),
             "reference_ms": statistics.median(
                 s["reference_s"] for s in slices) * 1e3,
             "raw_setup_s": statistics.median(s["setup_s"] for s in slices),
             "raw_op_p50_ms": statistics.median(walls) * 1e3,
             "raw_cycles_per_s": statistics.median(
                 row["cycles"] / row["wall"] for row, _scale in plain)}
    if len(walls) >= 100:  # ten samples beyond the 90th percentile
        extra["raw_op_p90_ms"] = walls[int(0.9 * len(walls))] * 1e3
    details = sorted({name for row, _scale in plain
                      for name in row["details"]})
    for name in details:
        extra[f"{name}_p50"] = statistics.median(
            row["details"][name] for row, _scale in plain
            if name in row["details"])
    per_layer = next((s["per_layer"] for s in slices if s["per_layer"]), None)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "errors": errors[:20],
            "metrics": with_units(metrics, definition["end_to_end"]),
            "per_layer": (with_units(per_layer, definition["per_layer"])
                          if per_layer else None),
            "extra": extra}


def print_record(name: str, seed: int, record: dict) -> None:
    print(f"workload {name}  seed {seed}  nproc {os.cpu_count()}")
    for metric, row in {**record["metrics"],
                        **(record["per_layer"] or {})}.items():
        print(f"  {metric:<34} {row['value']:>16.6g} {row['unit']}")
    for metric, value in record["extra"].items():
        print(f"  {metric:<34} {value:>16.6g} (detail)")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")


def run_one(args, definition: dict) -> int:
    if args.trace:
        slices = [spawn(args.workload, args.seed, 0, args.seconds, True)]
    else:
        slices = [spawn(args.workload, args.seed, j, args.seconds / SLICES,
                        False) for j in range(SLICES)]
    record = aggregate(slices, definition)
    print_record(args.workload, args.seed, record)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer" if args.trace else "metrics"]}))
    return 0 if record["correct"] else 1


def run_set(args, definition: dict) -> int:
    """Every workload (or ``--workload``), ``--runs`` times.  Untraced
    slices go round-robin (slice j of every workload before slice j+1
    of any), so slow host phases spread over all workloads instead of
    landing on one."""
    names = ([args.workload] if args.workload
             else [w["name"] for w in definition["workloads"]])
    runs = {name: [] for name in names}
    for i in range(args.runs):
        seed = args.seed + i
        if args.smoke:
            slices = {name: [spawn(name, seed, 0, args.seconds, True)]
                      for name in names}
        else:
            slices = {name: [] for name in names}
            for j in range(SLICES):
                for name in names:
                    slices[name].append(spawn(
                        name, seed, j, args.seconds / SLICES, False))
            if args.trace:
                for name in names:
                    slices[name].append(spawn(name, seed, 0, args.seconds,
                                              True))
        for name in names:
            record = aggregate(slices[name], definition)
            record["seed"] = seed
            runs[name].append(record)
            print_record(name, seed, record)
    payload = {"nproc": os.cpu_count(), "seconds": args.seconds,
               "slices": SLICES, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=1))
    ok = all(r["correct"] for records in runs.values() for r in records)
    print(json.dumps({"correct": ok, "runs": args.runs,
                      "workloads": names, "out": str(args.out or "")}))
    return 0 if ok else 1


def compare(path_a: Path, path_b: Path, definition: dict) -> int:
    """Each end-to-end metric's median delta, per workload, against its
    bound; unresolved when either set's spread exceeds the bound.
    Returns 1 when any metric got worse by more than its bound."""
    sets = [json.loads(Path(p).read_text())["runs"] for p in (path_a,
                                                               path_b)]
    worse = 0
    print(f"{'workload':<18} {'metric':<17} {'median A':>12} "
          f"{'median B':>12} {'delta':>8} {'spread A':>9} "
          f"{'spread B':>9} {'bound':>6}  verdict")
    for workload in definition["workloads"]:
        name = workload["name"]
        for metric in definition["end_to_end"]:
            values = [[r["metrics"][metric["name"]]["value"]
                       for r in s.get(name, [])] for s in sets]
            if not all(values):
                print(f"{name:<18} {metric['name']:<17} missing")
                continue
            med_a, med_b = (statistics.median(v) for v in values)
            spread_a, spread_b = (quantile_spread(v) for v in values)
            delta = (med_b - med_a) / med_a
            lower = metric["better"] == "lower"
            worsening = delta if lower else -delta
            bound = metric["bound"]
            a, b = values
            if max(spread_a, spread_b) > bound:
                # Too noisy to call, unless every B run beats every A run.
                b_wins = max(b) < min(a) if lower else min(b) > max(a)
                verdict = "better" if b_wins else "unresolved"
            elif worsening > bound:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "ok"
            print(f"{name:<18} {metric['name']:<17} {med_a:>12.5g} "
                  f"{med_b:>12.5g} {delta:>+8.1%} {spread_a:>9.1%} "
                  f"{spread_b:>9.1%} {bound:>6.0%}  {verdict}")
    return 1 if worse else 0


def pin() -> int:
    """Rewrite ``expected.json`` with seed-0 fingerprints computed
    in-process through ``execute_workload``."""
    sys.path.insert(0, str(SRC))
    from repro import execute_workload
    from repro.harness.runner import result_fingerprint

    import scenarios

    def fingerprint(spec) -> str:
        return result_fingerprint(execute_workload(spec.build_workload(),
                                                   spec.config))

    pins: dict = {}
    for name, (spec_args, config) in scenarios.SIM_WORKLOADS.items():
        pins[name] = {
            str(seed): fingerprint(scenarios.sim_spec(*spec_args, seed,
                                                      **config))
            for seed in range(scenarios.SIM_SEEDS)}
    pins["sweep"] = {scenarios.cell_key(spec): fingerprint(spec)
                     for spec in scenarios.grid_specs(0)}
    pins["serve"] = {str(seed): fingerprint(scenarios.serve_spec(seed))
                     for seed in range(scenarios.HIT_JOBS)}
    EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, pins.values()))} fingerprints to {EXPECTED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer (traced) run")
    parser.add_argument("--runs", type=int, default=1,
                        help="set mode: runs per workload")
    parser.add_argument("--out", type=Path, help="set mode: write the set")
    parser.add_argument("--smoke", action="store_true",
                        help="set mode: one short traced slice per "
                             "workload (with --workload: that one)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A", "B"))
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from seed 0")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    definition = load_definition()
    if args.compare:
        return compare(*args.compare, definition)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.seconds is None:
        args.seconds = float(definition["run_seconds"])
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.workload and args.workload not in {
            w["name"] for w in definition["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload and not args.smoke:
        return run_one(args, definition)
    return run_set(args, definition)


if __name__ == "__main__":
    sys.exit(main())
