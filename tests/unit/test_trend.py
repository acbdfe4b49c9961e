"""Tests for the cross-commit BENCH trend report (``repro trend``)."""

import json
import subprocess

import pytest

from repro.cli import main
from repro.harness import trend

ARTIFACT = {
    "bench": "fig09_single_counter",
    "config": {"total_increments": 512, "processor_counts": [2, 4]},
    "results": {
        "processor_counts": [2, 4],
        "cycles": {"BASE": [1000, 2000], "BASE+SLE+TLR": [800, 900]},
        "speedups_over_base": {"BASE+SLE+TLR": [1.25, 2.22]},
        "metrics": {"TLR/4": {"defer.count": 54, "txn.commits": 96}},
    },
    "wall_seconds": 0.5,
}


def _write_artifacts(directory, payload=ARTIFACT):
    directory.mkdir(exist_ok=True)
    (directory / "BENCH_fig09.json").write_text(json.dumps(payload))
    return directory


def _regressed(payload, factor=1.10):
    """A deep copy of ``payload`` with every cycles series scaled up."""
    copy = json.loads(json.dumps(payload))
    copy["results"]["cycles"] = {
        name: [int(value * factor) for value in series]
        for name, series in copy["results"]["cycles"].items()}
    return copy


class TestFlattening:
    def test_numeric_leaves_with_dotted_paths(self):
        flat = trend.flatten_results(ARTIFACT)
        assert flat["results.cycles.BASE.0"] == 1000
        assert flat["results.cycles.BASE+SLE+TLR.1"] == 900
        assert flat["results.metrics.TLR/4.defer.count"] == 54

    def test_config_and_wall_seconds_excluded(self):
        flat = trend.flatten_results(ARTIFACT)
        assert not any(path.startswith("config") for path in flat)
        assert "wall_seconds" not in flat

    def test_booleans_are_not_metrics(self):
        flat = trend.flatten_results({"results": {"ok": True, "n": 1}})
        assert flat == {"results.n": 1}


class TestDirectionAndClassification:
    def test_direction_heuristic(self):
        assert trend.direction_of("results.cycles.BASE.0") == "lower"
        assert trend.direction_of("results.slowdown_vs_timestamp.x") == \
            "lower"
        assert trend.direction_of("results.speedups_over_base.TLR.1") == \
            "higher"
        assert trend.direction_of("results.metrics.defer.count") == \
            "neutral"

    @pytest.mark.parametrize("direction,base,current,expected", [
        ("lower", 100, 120, "regression"),
        ("lower", 100, 80, "improvement"),
        ("lower", 100, 103, "stable"),       # within 5%
        ("higher", 2.0, 1.5, "regression"),
        ("higher", 2.0, 2.5, "improvement"),
        ("neutral", 100, 200, "drift"),
        ("neutral", 100, 100, "stable"),
    ])
    def test_classify(self, direction, base, current, expected):
        delta = trend.Delta(artifact="a", path="p", base=base,
                            current=current, direction=direction)
        assert delta.classify(threshold=0.05) == expected

    def test_zero_baseline_is_infinite_change(self):
        delta = trend.Delta(artifact="a", path="p", base=0, current=5,
                            direction="lower")
        assert delta.rel_change == float("inf")
        assert delta.classify(0.05) == "regression"


class TestCompare:
    def test_identical_sets_are_clean(self):
        report = trend.compare({"BENCH_x.json": ARTIFACT},
                               {"BENCH_x.json": ARTIFACT})
        assert report.ok and report.deltas
        assert report.regressions == []
        assert report.compared_artifacts == ["BENCH_x.json"]

    def test_injected_regression_is_flagged(self):
        report = trend.compare({"BENCH_x.json": ARTIFACT},
                               {"BENCH_x.json": _regressed(ARTIFACT)})
        assert not report.ok
        paths = {d.path for d in report.regressions}
        assert any(path.startswith("results.cycles") for path in paths)
        worst = max(report.regressions, key=lambda d: d.rel_change)
        assert worst.rel_change == pytest.approx(0.10, abs=0.01)

    def test_one_sided_artifacts_listed_not_failed(self):
        report = trend.compare({"BENCH_old.json": ARTIFACT},
                               {"BENCH_new.json": ARTIFACT})
        assert report.ok
        assert report.only_base == ["BENCH_old.json"]
        assert report.only_current == ["BENCH_new.json"]

    def test_markdown_render(self):
        report = trend.compare({"BENCH_x.json": ARTIFACT},
                               {"BENCH_x.json": _regressed(ARTIFACT)})
        text = report.to_markdown()
        assert "## Regressions" in text
        assert "FAIL" in text
        assert "results.cycles" in text
        clean = trend.compare({"BENCH_x.json": ARTIFACT},
                              {"BENCH_x.json": ARTIFACT})
        assert "OK" in clean.to_markdown()


class TestCli:
    def test_identical_artifacts_exit_zero(self, tmp_path, capsys):
        base = _write_artifacts(tmp_path / "base")
        current = _write_artifacts(tmp_path / "current")
        code = main(["trend", "--against", str(base),
                     "--artifacts", str(current)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        base = _write_artifacts(tmp_path / "base")
        current = _write_artifacts(tmp_path / "current",
                                   _regressed(ARTIFACT))
        code = main(["trend", "--against", str(base),
                     "--artifacts", str(current)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        base = _write_artifacts(tmp_path / "base")
        current = _write_artifacts(tmp_path / "current",
                                   _regressed(ARTIFACT))
        code = main(["trend", "--against", str(base),
                     "--artifacts", str(current), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["regressions"]

    def test_threshold_lets_small_moves_pass(self, tmp_path):
        base = _write_artifacts(tmp_path / "base")
        current = _write_artifacts(tmp_path / "current",
                                   _regressed(ARTIFACT))
        code = main(["trend", "--against", str(base),
                     "--artifacts", str(current), "--threshold", "0.25"])
        assert code == 0

    def test_ref_and_against_together_is_usage_error(self, tmp_path):
        assert main(["trend", "HEAD~1", "--against", "HEAD"]) == 2

    def test_unresolvable_baseline_exits_two(self, tmp_path, capsys):
        current = _write_artifacts(tmp_path / "current")
        code = main(["trend", "--against", str(tmp_path / "nope"),
                     "--artifacts", str(current),
                     "--repo", str(tmp_path)])
        assert code == 2
        assert "trend:" in capsys.readouterr().err

    def test_perf_metrics_have_directions(self):
        """Throughput metrics, which older commits' artifacts carry,
        must classify, not drift: falling events/sec and rising wall_s
        are regressions."""
        assert trend.direction_of(
            "results.fig09_single_counter.events_per_sec") == "higher"
        assert trend.direction_of(
            "results.fig09_single_counter.wall_s") == "lower"
        down = trend.Delta(artifact="BENCH_old.json", path="p.events_per_sec",
                           base=100_000, current=60_000, direction="higher")
        assert down.classify(threshold=0.05) == "regression"
        up = trend.Delta(artifact="BENCH_old.json", path="p.wall_s",
                         base=1.0, current=1.5, direction="lower")
        assert up.classify(threshold=0.05) == "regression"

    def test_git_ref_baseline_against_head(self, capsys):
        """The committed artifacts compared against themselves at HEAD
        must be representable (the repo itself is the fixture); any
        regression here would mean uncommitted artifact drift, which is
        exactly what the report exists to surface -- so only the exit
        codes 0 (clean) and 1 (real drift in the working tree) are
        acceptable, never a load error."""
        code = main(["trend", "--against", "HEAD", "--artifacts", "."])
        assert code in (0, 1)
        capsys.readouterr()


def _payload(cycles):
    return {"bench": "x", "config": {"ops": 512},
            "results": {"cycles": {"TLR": [cycles]}, "constant": 7},
            "wall_seconds": 0.1}


@pytest.fixture
def history_repo(tmp_path):
    """A throwaway git repo with two commits of BENCH_x.json (cycles
    1000 then 900) and a working-tree edit to 800."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*argv):
        subprocess.run(["git", "-C", str(repo), *argv], check=True,
                       capture_output=True)

    git("init", "-q")
    git("config", "user.email", "trend@test.invalid")
    git("config", "user.name", "trend-test")
    for cycles in (1000, 900):
        (repo / "BENCH_x.json").write_text(json.dumps(_payload(cycles)))
        git("add", "-A")
        git("commit", "-q", "-m", f"cycles {cycles}")
    (repo / "BENCH_x.json").write_text(json.dumps(_payload(800)))
    return repo


class TestHistory:
    def test_series_spans_commits_and_worktree(self, history_repo):
        report = trend.history_report(1, artifacts_dir=history_repo)
        assert report.refs == ["HEAD~1", "HEAD", "worktree"]
        key = ("BENCH_x.json", "results.cycles.TLR.0")
        assert report.series[key] == [1000, 900, 800]

    def test_window_larger_than_history_degrades_gracefully(
            self, history_repo):
        report = trend.history_report(10, artifacts_dir=history_repo)
        # Only HEAD~1 exists; deeper refs are skipped, not fatal.
        assert report.refs == ["HEAD~1", "HEAD", "worktree"]

    def test_changed_filters_constant_series(self, history_repo):
        report = trend.history_report(1, artifacts_dir=history_repo)
        constant = ("BENCH_x.json", "results.constant")
        assert constant in report.series
        assert constant not in report.changed()
        assert ("BENCH_x.json", "results.cycles.TLR.0") in report.changed()

    def test_markdown_table(self, history_repo):
        text = trend.history_report(
            1, artifacts_dir=history_repo).to_markdown()
        assert "| HEAD~1 | HEAD | worktree |" in text
        assert "results.cycles.TLR.0" in text
        assert "1000 | 900 | 800" in text
        assert "results.constant" not in text  # changed-only by default

    def test_all_metrics_includes_constants(self, history_repo):
        report = trend.history_report(1, artifacts_dir=history_repo)
        text = report.to_markdown(changed_only=False)
        assert "results.constant" in text
        data = report.to_dict(changed_only=False)
        paths = {row["path"] for row in data["series"]}
        assert "results.constant" in paths

    def test_direction_annotated_in_dict(self, history_repo):
        data = trend.history_report(
            1, artifacts_dir=history_repo).to_dict()
        by_path = {row["path"]: row for row in data["series"]}
        assert by_path["results.cycles.TLR.0"]["direction"] == "lower"

    def test_retired_artifact_keeps_its_older_points(self, history_repo):
        """An artifact deleted from the tree still reports the values
        older commits carry, minus its top-level wall_seconds."""
        def git(*argv):
            subprocess.run(["git", "-C", str(history_repo), *argv],
                           check=True, capture_output=True)

        retired = history_repo / "BENCH_old.json"
        retired.write_text(json.dumps({
            "bench": "old", "config": {"quick": True}, "wall_seconds": 2.0,
            "results": {"w": {"events_per_sec": 5000, "wall_s": 0.4}}}))
        git("add", "-A")
        git("commit", "-q", "-m", "add old")
        git("rm", "-q", "BENCH_old.json")
        git("commit", "-q", "-m", "retire old")
        report = trend.history_report(1, artifacts_dir=history_repo)
        assert report.series[("BENCH_old.json",
                              "results.w.events_per_sec")] == \
            [5000, None, None]
        assert report.series[("BENCH_old.json", "results.w.wall_s")] == \
            [0.4, None, None]
        assert not any(path == "wall_seconds"
                       for _, path in report.series)

    def test_window_below_one_raises(self, history_repo):
        with pytest.raises(trend.TrendError, match=">= 1"):
            trend.history_report(0, artifacts_dir=history_repo)

    def test_cli_history_is_informational_exit_zero(self, history_repo,
                                                    capsys):
        code = main(["trend", "--history", "1",
                     "--artifacts", str(history_repo),
                     "--repo", str(history_repo)])
        assert code == 0
        out = capsys.readouterr().out
        assert "BENCH history" in out
        assert "results.cycles.TLR.0" in out

    def test_cli_history_json(self, history_repo, capsys):
        code = main(["trend", "--history", "1", "--json",
                     "--artifacts", str(history_repo),
                     "--repo", str(history_repo)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["refs"] == ["HEAD~1", "HEAD", "worktree"]
        assert payload["series"][0]["values"] == [1000, 900, 800]
