"""Tests for the simulator-throughput harness (``repro perf``)."""

import copy
import json

import pytest

from repro.harness import perf
from repro.harness.config import SyncScheme


@pytest.fixture(scope="module")
def quick_payload():
    """One real quick-size measurement, shared across the module (the
    simulation dominates the test's cost)."""
    baseline = {"results": {"fig09_single_counter":
                            {"events_per_sec": 1000, "wall_s": 1.0}}}
    return perf.run_perf(quick=True, repeats=1, baseline=baseline)


class TestSpecs:
    def test_profiled_workloads(self):
        specs = perf.perf_specs()
        assert set(specs) == {"fig09_single_counter", "fig10_linked_list",
                              "policy_grid_cell", "big_machine"}
        for spec in specs.values():
            assert spec.config.scheme is SyncScheme.TLR
            assert spec.config.seed == 0

    def test_big_machine_is_the_scale_point(self):
        spec = perf.perf_specs()["big_machine"]
        assert spec.config.num_cpus == 64
        assert spec.config.protocol == "directory"

    def test_quick_sizes_are_smaller(self):
        full = perf.perf_specs(quick=False)
        quick = perf.perf_specs(quick=True)
        for name in full:
            full_size = next(iter(full[name].workload_args.values()))
            quick_size = next(iter(quick[name].workload_args.values()))
            assert quick_size < full_size

    def test_policy_cell_uses_backoff(self):
        spec = perf.perf_specs()["policy_grid_cell"]
        assert spec.config.spec.contention_policy == "backoff"

    def test_specs_are_cacheable_runs(self):
        # A perf workload must fingerprint like any other RunSpec so the
        # artifact's fingerprint column is comparable across commits.
        specs = perf.perf_specs(quick=True)
        fingerprints = {spec.fingerprint() for spec in specs.values()}
        assert len(fingerprints) == len(specs)


class TestMeasurement:
    def test_payload_matches_bench_schema(self, quick_payload):
        assert quick_payload["bench"] == "perf"
        assert set(quick_payload) == {"bench", "config", "results",
                                      "wall_seconds", "schema"}
        assert quick_payload["config"]["quick"] is True
        json.dumps(quick_payload)  # artifact must be serializable

    def test_every_workload_measured(self, quick_payload):
        results = quick_payload["results"]
        assert set(results) == set(perf.perf_specs())
        for row in results.values():
            assert row["events"] > 0
            assert row["cycles"] > 0
            assert row["wall_s"] > 0
            assert row["events_per_sec"] == pytest.approx(
                row["events"] / row["wall_s"], rel=0.01)
            assert row["fingerprint"]

    def test_peak_rss_reported_on_posix(self, quick_payload):
        for row in quick_payload["results"].values():
            assert row["peak_rss_kb"] is None or row["peak_rss_kb"] > 0

    def test_run_shape_is_deterministic(self, quick_payload):
        # Same spec, fresh machine: wall time may move, the simulated
        # shape (events, cycles, fingerprint) may not.
        spec = perf.perf_specs(quick=True)["policy_grid_cell"]
        again = perf.measure_spec(spec, repeats=1)
        row = quick_payload["results"]["policy_grid_cell"]
        assert again["events"] == row["events"]
        assert again["cycles"] == row["cycles"]
        assert again["fingerprint"] == row["fingerprint"]

    def test_baseline_speedup_recorded_under_config(self, quick_payload):
        config = quick_payload["config"]
        assert "baseline" in config and "speedup_events_per_sec" in config
        speedup = config["speedup_events_per_sec"]
        # Only the workload present in the baseline gets a ratio.
        assert set(speedup) == {"fig09_single_counter"}
        current = quick_payload["results"]["fig09_single_counter"]
        assert speedup["fig09_single_counter"] == pytest.approx(
            current["events_per_sec"] / 1000, rel=0.01)

    def test_trend_skips_machine_local_fields(self, quick_payload):
        # baseline/speedup live under config so the cross-commit trend
        # report never diffs one machine's numbers against another's.
        from repro.harness.trend import flatten_results

        flat = flatten_results(quick_payload)
        assert not any("baseline" in path or "speedup" in path
                       for path in flat)
        assert "results.fig09_single_counter.events_per_sec" in flat


class TestThroughputCheck:
    def _payload(self, eps):
        return {"results": {"w": {"events_per_sec": eps}}}

    def test_within_budget_passes(self):
        assert perf.check_throughput(self._payload(80),
                                     self._payload(100)) == []

    def test_beyond_budget_fails_with_context(self):
        failures = perf.check_throughput(self._payload(60),
                                         self._payload(100))
        assert len(failures) == 1
        assert "w" in failures[0] and "40%" in failures[0]

    def test_max_drop_is_configurable(self):
        assert perf.check_throughput(self._payload(60), self._payload(100),
                                     max_drop=0.5) == []

    def test_missing_or_zero_reference_is_skipped(self):
        assert perf.check_throughput(self._payload(60),
                                     {"results": {}}) == []
        assert perf.check_throughput(self._payload(60),
                                     self._payload(0)) == []

    def test_improvement_never_fails(self):
        assert perf.check_throughput(self._payload(500),
                                     self._payload(100)) == []


class TestShapeCheck:
    @pytest.fixture
    def tampered(self, quick_payload):
        reference = copy.deepcopy(quick_payload)
        reference["results"]["big_machine"]["fingerprint"] = "deadbeef" * 8
        return reference

    def test_identical_shape_passes(self, quick_payload):
        assert perf.check_shape(quick_payload,
                                copy.deepcopy(quick_payload)) == []

    def test_fingerprint_mismatch_is_reported(self, quick_payload,
                                              tampered):
        tampered["results"]["big_machine"]["events"] += 1
        failures = perf.check_shape(quick_payload, tampered)
        assert len(failures) == 2  # fingerprint + events
        assert all("big_machine" in failure for failure in failures)

    def test_other_workload_sizes_are_not_compared(self, quick_payload,
                                                   tampered):
        tampered["config"]["workload_sizes"]["big_machine"] += 1
        assert perf.check_shape(quick_payload, tampered) == []

    def test_cli_check_fails_on_tampered_fingerprint(
            self, quick_payload, tampered, tmp_path, monkeypatch, capsys):
        from repro.cli import main as cli_main
        monkeypatch.setattr(perf, "run_perf",
                            lambda **_: copy.deepcopy(quick_payload))
        clean = tmp_path / "clean.json"
        clean.write_text(json.dumps(quick_payload))
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(tampered))
        argv = ["perf", "--quick", "--repeats", "1", "--check"]
        assert cli_main(argv + [str(clean)]) == 0
        assert cli_main(argv + [str(bad)]) == 1
        assert "big_machine: fingerprint" in capsys.readouterr().err


class TestReferenceLoading:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps({"bench": "perf", "results": {}}))
        assert perf.load_reference(str(path))["bench"] == "perf"

    def test_missing_reference_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no perf reference"):
            perf.load_reference(str(tmp_path / "absent.json"),
                                repo=tmp_path)


class TestRendering:
    def test_table_lists_workloads_and_speedups(self, quick_payload):
        text = perf.render_table(quick_payload)
        assert "events/s" in text
        for name in perf.perf_specs():
            assert name in text
        assert "speedup vs recorded baseline" in text
