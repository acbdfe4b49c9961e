"""Cross-commit trend analysis over ``BENCH_*.json`` artifacts.

Every benchmark run writes a ``BENCH_<name>.json`` artifact at the repo
root (see :mod:`repro.harness.artifacts`); they are committed, which makes
each one a per-commit performance record -- but until this module
nothing ever *read* them back.  ``repro trend`` diffs the working
tree's artifacts against a baseline (a git ref, loaded with
``git show <ref>:BENCH_<name>.json``, or any directory of artifacts),
flags metric movements beyond a configurable threshold, and renders a
markdown or JSON report.  CI runs it on every PR so a regressing change
fails visibly instead of silently shifting the committed numbers.

What counts as a regression is inferred from the metric's dotted path:
``cycles``/``slowdown`` metrics regress when they *rise*, ``speedup``
metrics when they *fall*; everything else (event counts, histogram
summaries) is reported as informational drift only.  ``wall_seconds``
is machine timing noise and is excluded entirely, as is the ``config``
echo (inputs, not results).
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

#: Artifact filename shape (also what CI and conftest produce).
ARTIFACT_PREFIX = "BENCH_"
#: Top-level artifact keys that are not comparable results.
_SKIP_TOP_LEVEL = {"bench", "config", "wall_seconds"}

# Substring-matched against the flattened metric path.  Scheduler
# counters read "lower is better": fewer preemptions and context-switch
# aborts mean less work thrown away for the same verified result.
# Profiler families follow the same logic: "cycles" already catches
# profile.cycles_lost / deferral_cycles rising (lost work = regression),
# and a falling commit rate means more aborted speculation per attempt.
LOWER_IS_BETTER = ("cycles", "slowdown", "wall_s", "aborts",
                   "context_switch_aborts", "preemptions")
HIGHER_IS_BETTER = ("speedup", "events_per_sec", "commit_rate")


class TrendError(RuntimeError):
    """Baseline or working-tree artifacts could not be loaded."""


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_dir(path: Union[str, Path]) -> dict[str, dict]:
    """All ``BENCH_*.json`` artifacts in ``path``, name -> payload."""
    root = Path(path)
    if not root.is_dir():
        raise TrendError(f"not a directory: {root}")
    artifacts = {}
    for file in sorted(root.glob(f"{ARTIFACT_PREFIX}*.json")):
        try:
            artifacts[file.name] = json.loads(file.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise TrendError(f"unreadable artifact {file}: {exc}") from exc
    return artifacts


def load_git_ref(ref: str, repo: Union[str, Path] = ".") -> dict[str, dict]:
    """All ``BENCH_*.json`` artifacts committed at ``ref``."""
    listing = subprocess.run(
        ["git", "-C", str(repo), "ls-tree", "--name-only", ref],
        capture_output=True, text=True)
    if listing.returncode != 0:
        raise TrendError(f"cannot resolve git ref {ref!r}: "
                         f"{listing.stderr.strip()}")
    artifacts = {}
    for name in listing.stdout.splitlines():
        if not (name.startswith(ARTIFACT_PREFIX) and name.endswith(".json")):
            continue
        blob = subprocess.run(
            ["git", "-C", str(repo), "show", f"{ref}:{name}"],
            capture_output=True, text=True)
        if blob.returncode != 0:
            raise TrendError(f"cannot read {ref}:{name}: "
                             f"{blob.stderr.strip()}")
        try:
            artifacts[name] = json.loads(blob.stdout)
        except json.JSONDecodeError as exc:
            raise TrendError(f"{ref}:{name} is not JSON: {exc}") from exc
    return artifacts


def load_baseline(against: str,
                  repo: Union[str, Path] = ".") -> dict[str, dict]:
    """Baseline artifacts from ``against``: a directory path if one
    exists by that name, otherwise a git ref."""
    if Path(against).is_dir():
        return load_dir(against)
    return load_git_ref(against, repo=repo)


# ----------------------------------------------------------------------
# Flattening and comparison
# ----------------------------------------------------------------------
def flatten_results(payload: dict) -> dict[str, float]:
    """Numeric leaves of an artifact as ``{dotted.path: value}``,
    excluding the config echo and wall-clock noise."""
    flat: dict[str, float] = {}

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else str(key))
        elif isinstance(node, (list, tuple)):
            for index, value in enumerate(node):
                walk(value, f"{path}.{index}")
        elif isinstance(node, bool):
            return
        elif isinstance(node, (int, float)):
            flat[path] = node

    for key, value in payload.items():
        if key in _SKIP_TOP_LEVEL:
            continue
        walk(value, key)
    return flat


def direction_of(path: str) -> str:
    """``"lower"`` / ``"higher"`` (is better) or ``"neutral"``."""
    lowered = path.lower()
    if any(token in lowered for token in LOWER_IS_BETTER):
        return "lower"
    if any(token in lowered for token in HIGHER_IS_BETTER):
        return "higher"
    return "neutral"


@dataclass
class Delta:
    """One metric compared across baseline and current."""

    artifact: str
    path: str
    base: float
    current: float
    direction: str  # "lower" | "higher" | "neutral"

    @property
    def rel_change(self) -> float:
        """(current - base) / base; +/-inf when the baseline is zero."""
        if self.base == 0:
            if self.current == 0:
                return 0.0
            return float("inf") if self.current > 0 else float("-inf")
        return (self.current - self.base) / self.base

    def classify(self, threshold: float) -> str:
        """"regression" | "improvement" | "drift" | "stable"."""
        change = self.rel_change
        if change == 0:
            return "stable"
        if self.direction == "neutral":
            return "drift" if abs(change) > threshold else "stable"
        worse = change > 0 if self.direction == "lower" else change < 0
        if abs(change) <= threshold:
            return "stable"
        return "regression" if worse else "improvement"

    def to_dict(self) -> dict:
        return {"artifact": self.artifact, "path": self.path,
                "base": self.base, "current": self.current,
                "direction": self.direction,
                "rel_change": self.rel_change}


@dataclass
class TrendReport:
    """The comparison of two artifact sets."""

    base_label: str
    current_label: str
    threshold: float
    deltas: list[Delta] = field(default_factory=list)
    only_base: list[str] = field(default_factory=list)
    only_current: list[str] = field(default_factory=list)
    compared_artifacts: list[str] = field(default_factory=list)

    def _classified(self, wanted: str) -> list[Delta]:
        return [d for d in self.deltas
                if d.classify(self.threshold) == wanted]

    @property
    def regressions(self) -> list[Delta]:
        return self._classified("regression")

    @property
    def improvements(self) -> list[Delta]:
        return self._classified("improvement")

    @property
    def drift(self) -> list[Delta]:
        return self._classified("drift")

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "base": self.base_label,
            "current": self.current_label,
            "threshold": self.threshold,
            "ok": self.ok,
            "compared_artifacts": list(self.compared_artifacts),
            "only_base": list(self.only_base),
            "only_current": list(self.only_current),
            "regressions": [d.to_dict() for d in self.regressions],
            "improvements": [d.to_dict() for d in self.improvements],
            "drift": [d.to_dict() for d in self.drift],
            "metrics_compared": len(self.deltas),
        }

    def to_markdown(self) -> str:
        lines = [f"# BENCH trend: {self.base_label} -> "
                 f"{self.current_label}", ""]
        lines.append(f"{len(self.compared_artifacts)} artifacts, "
                     f"{len(self.deltas)} metrics compared "
                     f"(threshold {self.threshold:.0%}).")
        for label, missing in (("only in baseline", self.only_base),
                               ("only in working tree", self.only_current)):
            if missing:
                lines.append(f"Artifacts {label}: {', '.join(missing)}.")
        lines.append("")
        for title, rows in (("Regressions", self.regressions),
                            ("Improvements", self.improvements),
                            ("Drift (informational)", self.drift)):
            lines.append(f"## {title}")
            if not rows:
                lines.append("none" if title == "Regressions"
                             else "_none_")
                lines.append("")
                continue
            lines.append("| artifact | metric | base | current | change |")
            lines.append("|---|---|---:|---:|---:|")
            ordered = sorted(rows, key=lambda d: -abs(d.rel_change))
            for delta in ordered[:40]:
                lines.append(
                    f"| {delta.artifact} | `{delta.path}` "
                    f"| {delta.base:g} | {delta.current:g} "
                    f"| {delta.rel_change:+.1%} |")
            if len(ordered) > 40:
                lines.append(f"| ... | {len(ordered) - 40} more | | | |")
            lines.append("")
        verdict = ("OK: no regressions beyond threshold." if self.ok else
                   f"FAIL: {len(self.regressions)} regression(s) beyond "
                   f"threshold.")
        lines.append(verdict)
        return "\n".join(lines)


def compare(base: dict[str, dict], current: dict[str, dict],
            threshold: float = 0.05,
            base_label: str = "baseline",
            current_label: str = "current") -> TrendReport:
    """Compare two ``{artifact name: payload}`` sets metric-by-metric.

    Only metrics present on both sides are compared (a renamed or new
    metric cannot regress); artifacts on one side only are listed in
    the report but do not fail it.
    """
    report = TrendReport(base_label=base_label, current_label=current_label,
                         threshold=threshold)
    report.only_base = sorted(set(base) - set(current))
    report.only_current = sorted(set(current) - set(base))
    for name in sorted(set(base) & set(current)):
        report.compared_artifacts.append(name)
        old = flatten_results(base[name])
        new = flatten_results(current[name])
        for path in sorted(set(old) & set(new)):
            report.deltas.append(Delta(
                artifact=name, path=path, base=old[path],
                current=new[path], direction=direction_of(path)))
    return report


def trend_report(against: str, artifacts_dir: Union[str, Path] = ".",
                 repo: Union[str, Path, None] = None,
                 threshold: float = 0.05) -> TrendReport:
    """One-call convenience for the CLI: working-tree artifacts in
    ``artifacts_dir`` vs. a baseline ref or directory ``against``."""
    current = load_dir(artifacts_dir)
    base = load_baseline(against, repo=repo if repo is not None
                         else artifacts_dir)
    if not current and not base:
        raise TrendError(
            f"no {ARTIFACT_PREFIX}*.json artifacts found in "
            f"{artifacts_dir} nor at {against}")
    return compare(base, current, threshold=threshold,
                   base_label=str(against), current_label="working tree")


# ----------------------------------------------------------------------
# Multi-commit history
# ----------------------------------------------------------------------
@dataclass
class HistoryReport:
    """Per-metric value series across a window of commits.

    ``refs`` are the compared points oldest-first (``HEAD~N`` ..
    ``HEAD``, then the working tree); ``series`` maps
    ``(artifact, metric path)`` to one value per ref (``None`` where
    the metric or artifact is absent at that point).
    """

    refs: list[str] = field(default_factory=list)
    series: dict[tuple[str, str], list[Optional[float]]] = \
        field(default_factory=dict)

    def changed(self) -> dict[tuple[str, str], list[Optional[float]]]:
        """Only the series whose present values are not all equal."""
        out = {}
        for key, values in self.series.items():
            present = [v for v in values if v is not None]
            if present and any(v != present[0] for v in present):
                out[key] = values
        return out

    def to_dict(self, changed_only: bool = True) -> dict:
        series = self.changed() if changed_only else self.series
        return {
            "refs": list(self.refs),
            "series": [{"artifact": artifact, "path": path,
                        "values": values, "direction": direction_of(path)}
                       for (artifact, path), values
                       in sorted(series.items())],
        }

    def to_markdown(self, changed_only: bool = True,
                    limit: int = 60) -> str:
        series = self.changed() if changed_only else self.series
        lines = [f"# BENCH history: {self.refs[0]} -> {self.refs[-1]}"
                 if self.refs else "# BENCH history", ""]
        lines.append(f"{len(series)} changing metric(s) across "
                     f"{len(self.refs)} points"
                     + ("" if changed_only
                        else f" ({len(self.series)} total)") + ".")
        lines.append("")
        if not series:
            lines.append("_no metric moved in this window_")
            return "\n".join(lines)
        header = "| artifact | metric | " + " | ".join(self.refs) + " |"
        lines.append(header)
        lines.append("|---|---|" + "---:|" * len(self.refs))

        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:g}"

        for (artifact, path), values in sorted(series.items())[:limit]:
            lines.append(f"| {artifact} | `{path}` | "
                         + " | ".join(fmt(v) for v in values) + " |")
        if len(series) > limit:
            lines.append(f"| ... | {len(series) - limit} more | "
                         + " | ".join("" for _ in self.refs) + " |")
        return "\n".join(lines)


def history_report(count: int, artifacts_dir: Union[str, Path] = ".",
                   repo: Union[str, Path, None] = None) -> HistoryReport:
    """Metric series over ``HEAD~count`` .. ``HEAD`` plus the working
    tree, reusing the ``git show`` loader per ref.  Refs that do not
    exist (history shorter than ``count``) are skipped silently so
    shallow repos still get a partial window."""
    if count < 1:
        raise TrendError(f"history window must be >= 1, got {count}")
    repo = repo if repo is not None else artifacts_dir
    points: list[tuple[str, dict[str, dict]]] = []
    for back in range(count, 0, -1):
        ref = f"HEAD~{back}"
        try:
            points.append((ref, load_git_ref(ref, repo=repo)))
        except TrendError:
            continue
    points.append(("HEAD", load_git_ref("HEAD", repo=repo)))
    points.append(("worktree", load_dir(artifacts_dir)))
    report = HistoryReport(refs=[ref for ref, _ in points])
    flat_points = [{name: flatten_results(payload)
                    for name, payload in artifacts.items()}
                   for _, artifacts in points]
    keys = {(name, path)
            for flat in flat_points
            for name, metrics in flat.items()
            for path in metrics}
    for name, path in sorted(keys):
        report.series[(name, path)] = [
            flat.get(name, {}).get(path) for flat in flat_points]
    return report
