"""Deterministic replay: re-execute a log's run and prove it identical.

The replay-purity contract: a record log embeds the full
:class:`~repro.harness.spec.RunSpec` (and the harness mode) that
produced it, so re-executing it with a fresh recorder must yield
**byte-identical** log bytes and the same run fingerprint.  When it
does not, something non-deterministic leaked into the simulator -- and
the divergence report names the first record where the schedules part
ways, with the shared context right before it, which is the bisection
anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.harness.spec import RunSpec
from repro.record.format import (Divergence, LogFormatError, LogImage,
                                 first_divergence, load_log)
from repro.record.recorder import record_run


@dataclass
class ReplayReport:
    """Outcome of one replay-purity check."""

    ok: bool                      # bytes AND fingerprint both match
    log_identical: bool
    fingerprint_identical: bool
    original_fingerprint: str
    replay_fingerprint: str
    records: int                  # records in the original log
    events_fired: int
    final_time: int
    divergence: Optional[Divergence] = None
    error: Optional[str] = None   # replay-side run error, if any

    def render(self) -> str:
        if self.ok:
            return (f"replay pure: {self.records} records, "
                    f"{self.events_fired} events to t={self.final_time}, "
                    f"fingerprint {self.original_fingerprint[:12]}… "
                    f"byte-identical")
        lines = ["REPLAY DIVERGED:"]
        if not self.fingerprint_identical:
            lines.append(f"  fingerprint: {self.original_fingerprint} "
                         f"!= {self.replay_fingerprint}")
        if not self.log_identical and self.divergence is not None:
            lines.append(self.divergence.render())
        if self.error:
            lines.append(f"  replay error: {self.error}")
        return "\n".join(lines)


def _reexecute(image: LogImage) -> tuple[bytes, str, Optional[str]]:
    """Re-run the embedded spec under the harness mode the log names;
    returns (log bytes, fingerprint, error)."""
    spec = RunSpec.from_dict(image.spec_dict)
    harness = image.header.get("harness") or {"kind": "run"}
    if harness.get("kind") == "verify":
        # Verify runs carry monitor instrumentation whose watchdog
        # events are part of the recorded schedule; replay must attach
        # the same monitors.
        from repro.verify.explorer import verify_run
        result = verify_run(spec, record=True)
        log = result.log_bytes or b""
        return log, _end_fingerprint(log), result.error
    recorded = record_run(spec)
    return recorded.log, recorded.fingerprint, recorded.error


def _end_fingerprint(log_bytes: bytes) -> str:
    if not log_bytes:
        return ""
    image = load_log(log_bytes)
    return image.end.fingerprint if image.end is not None else ""


def replay_log(source: Union[str, bytes, "os.PathLike"]) -> ReplayReport:
    """Replay ``source`` (path or raw bytes) and compare byte-for-byte."""
    if isinstance(source, (bytes, bytearray)):
        original = bytes(source)
    else:
        with open(source, "rb") as fh:
            original = fh.read()
    image = load_log(original)
    if image.end is None:
        raise LogFormatError("log has no END record; cannot replay-check")
    replayed, replay_fp, error = _reexecute(image)
    log_identical = replayed == original
    fingerprint_identical = replay_fp == image.end.fingerprint
    divergence = None
    if not log_identical:
        divergence = first_divergence(image, load_log(replayed))
    return ReplayReport(
        ok=log_identical and fingerprint_identical,
        log_identical=log_identical,
        fingerprint_identical=fingerprint_identical,
        original_fingerprint=image.end.fingerprint,
        replay_fingerprint=replay_fp,
        records=len(image.records),
        events_fired=image.end.events_fired,
        final_time=image.end.final_time,
        divergence=divergence,
        error=error)
