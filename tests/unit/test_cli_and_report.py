"""Tests for the CLI and the report renderers."""

import pytest

from repro.cli import main as cli_main
from repro.harness.config import SyncScheme
from repro.harness.experiments import AppResult, SweepResult
from repro.harness import report


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "single-counter" in out
        assert "TLR" in out

    def test_run_workload(self, capsys):
        assert cli_main(["run", "single-counter", "--scheme", "TLR",
                         "--cpus", "2", "--ops", "64"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert "elisions_committed" in out

    def test_run_rejects_unknown_scheme(self, capsys):
        assert cli_main(["run", "single-counter", "--scheme", "XYZ",
                         "--cpus", "2", "--ops", "32"]) == 2

    def test_perf_is_not_a_subcommand(self, capsys):
        # Wall time is measured by bench/run.py only.
        with pytest.raises(SystemExit) as exited:
            cli_main(["perf", "--quick"])
        assert exited.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "no-such-workload"])

    def test_figure7(self, capsys):
        assert cli_main(["figure7", "--cpus", "2", "--ops", "32"]) == 0
        out = capsys.readouterr().out
        assert "deferrals" in out

    def test_figure8_sweep_with_plot(self, capsys):
        assert cli_main(["figure8", "--procs", "2,4",
                         "--ops", "64", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "procs" in out and "BASE+SLE+TLR" in out
        assert "peak=" in out

    def test_scheme_alias_normalization(self, capsys):
        assert cli_main(["run", "single-counter", "--scheme",
                         "tlr-strict-ts", "--cpus", "2", "--ops", "32"]) == 0

    def test_verify_passes_on_clean_tlr(self, capsys):
        assert cli_main(["verify", "single-counter", "--cpus", "2",
                         "--seeds", "3", "--ops", "32"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "3 seeds" in out

    def test_verify_json_output(self, capsys):
        import json

        assert cli_main(["verify", "single-counter", "--cpus", "2",
                         "--seeds", "2", "--ops", "32", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["workloads"]["single-counter"]["seeds"] == 2

    def test_verify_rejects_unknown_workload(self, capsys):
        assert cli_main(["verify", "no-such-workload",
                         "--seeds", "1"]) == 2

    def test_verify_rejects_unknown_scheme(self, capsys):
        assert cli_main(["verify", "--scheme", "XYZ", "--seeds", "1"]) == 2


def _sweep() -> SweepResult:
    result = SweepResult(name="demo", processor_counts=[2, 4])
    result.series[SyncScheme.BASE] = [100, 200]
    result.series[SyncScheme.TLR] = [50, 25]
    return result


class TestReport:
    def test_sweep_table_alignment(self):
        text = report.sweep_table(_sweep())
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].split() == ["procs", "BASE", "BASE+SLE+TLR"]
        assert lines[1].split() == ["2", "100", "50"]
        # Columns align: every row has the same width.
        assert len({len(line) for line in lines}) == 1

    def test_sweep_cycles_accessor(self):
        sweep = _sweep()
        assert sweep.cycles(SyncScheme.TLR, 4) == 25
        with pytest.raises(ValueError):
            sweep.cycles(SyncScheme.TLR, 3)

    def test_ascii_series_contains_legend(self):
        text = report.ascii_series(_sweep())
        assert "o=BASE" in text
        assert "peak=200" in text

    def test_dict_table_formats_floats(self):
        text = report.dict_table({"a": 1.234, "b": 7}, title="T")
        assert text.splitlines()[0] == "T"
        assert "1.23" in text

    def _app_result(self) -> AppResult:
        return AppResult(
            name="demo",
            cycles={SyncScheme.BASE: 1000, SyncScheme.TLR: 500},
            lock_cycles={SyncScheme.BASE: 300, SyncScheme.TLR: 10},
            restarts={SyncScheme.BASE: 0, SyncScheme.TLR: 5},
            resource_fallbacks={SyncScheme.BASE: 0, SyncScheme.TLR: 1},
            critical_sections={SyncScheme.BASE: 10, SyncScheme.TLR: 10})

    def test_app_speedup(self):
        app = self._app_result()
        assert app.speedup(SyncScheme.TLR) == 2.0
        assert app.speedup(SyncScheme.BASE) == 1.0

    def test_normalized_parts_sum_to_normalized_time(self):
        app = self._app_result()
        lock, nonlock = app.normalized_parts(SyncScheme.TLR)
        assert lock + nonlock == pytest.approx(0.5)
        assert lock == pytest.approx(0.5 * (10 / 500))

    def test_figure11_table_renders_all_schemes(self):
        text = report.figure11_table({"demo": self._app_result()})
        assert "demo" in text
        assert "BASE+SLE+TLR" in text

    def test_speedup_summary(self):
        app = AppResult(
            name="demo",
            cycles={SyncScheme.BASE: 1000, SyncScheme.TLR: 500,
                    SyncScheme.MCS: 800},
            lock_cycles={s: 0 for s in (SyncScheme.BASE, SyncScheme.TLR,
                                        SyncScheme.MCS)},
            restarts={}, resource_fallbacks={}, critical_sections={})
        text = report.speedup_summary({"demo": app})
        assert "2.00" in text   # TLR/BASE
        assert "1.25" in text   # MCS/BASE


class TestCliCache:
    def test_cache_status_and_prune(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert cli_main(["cache", "--cache-dir", str(cache_dir),
                         "--prune"]) == 0
        out = capsys.readouterr().out
        assert "pruned 0 superseded entries" in out
        assert str(cache_dir) in out
        assert "0 entries" in out

    def test_cache_clear(self, tmp_path, capsys):
        from repro.harness.cache import ResultCache

        cache_dir = tmp_path / "cache"
        ResultCache(cache_dir).put("ab" + "0" * 62, {})
        assert cli_main(["cache", "--cache-dir", str(cache_dir),
                         "--clear"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert len(ResultCache(cache_dir)) == 0

    def test_run_metrics_openmetrics_format(self, tmp_path, capsys):
        assert cli_main(["run", "single-counter", "--scheme", "TLR",
                         "--cpus", "2", "--ops", "64", "--metrics",
                         "--format", "openmetrics",
                         "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "txn_commits_total" in out
        assert "target_info{" in out
        assert out.endswith("# EOF\n")


class TestCliOpsHandling:
    def test_ops_zero_is_not_silently_defaulted(self, capsys):
        """--ops 0 must produce the minimal workload, not fall back to
        the (much larger) default (falsy-zero regression)."""
        assert cli_main(["run", "single-counter", "--cpus", "2",
                         "--ops", "0"]) == 0
        out = capsys.readouterr().out
        cycles = int(out.split("cycles: ")[1].split()[0])
        assert cycles < 5_000  # default-size runs take >50k cycles

    def test_mp3d_coarse_respects_ops(self, capsys):
        assert cli_main(["run", "mp3d-coarse", "--cpus", "2",
                         "--ops", "2"]) == 0
        out = capsys.readouterr().out
        assert "critical_sections: 4" in out
