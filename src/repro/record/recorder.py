"""The flight recorder: capture one run as a binary record log.

:class:`FlightRecorder` is a pure observer subscribed to the machine's
observation seam (:mod:`repro.sim.taps`):

* the kernel's ``dispatch`` point (every fired event, with its
  low-cardinality label);
* the tap vocabulary for bus transactions, coherence handlers, deferral
  edits and transaction begin/commit/abort/restart, plus the post-call
  points, where it reads coherence state through the side-effect-free
  ``cache.peek``;
* the scheduler's ``sched`` point (switch-in/out/migration).

The log it writes is a run's one event history and drops nothing:
:class:`~repro.record.timeline.Timeline`, ``repro replay``, the VCD
export and the verifier's failure window
(:func:`repro.verify.shrink_failure`) all read the same records.  Each
tap's cache line and request id come from the payload rules in
:mod:`repro.sim.taps`.

Request ids come from a process-global counter, so the recorder maps
each ``req_id`` to a dense first-seen index; that keeps logs
byte-reproducible across processes.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.harness.runner import RunResult, result_fingerprint
from repro.harness.spec import FINGERPRINT_VERSION, RunSpec
from repro.record.format import (DEFER_DRAIN, DEFER_PUSH, LOG_SCHEMA,
                                 STATE_ABSENT, STATE_NAMES, LogWriter)
from repro.sim.taps import TAP_KINDS, _line_of_args, _ref_of_args

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.machine import Machine

#: Post-call kinds after which a cache line's coherence state may have
#: changed; the recorder re-reads the touched line and logs a state
#: record when it moved.
_STATE_KINDS = frozenset({"data", "invalidation", "forward", "probe",
                          "service", "loss"})

#: Post-call kinds after which the deferral queue's depth may have
#: changed.
_DEFER_KINDS = frozenset({"defer", "service", "commit", "abort", "loss"})

_STATE_INDEX = {name: index for index, name in enumerate(STATE_NAMES)}


class _TxnWriterSink:
    """Adapts :class:`~repro.obs.profile.TxnTapFolder` events into
    ``OP_TXN`` records on the recorder's writer.

    The folder is attached without deferral handlers: the raw
    ``defer``/``service`` taps are already in the log as ``OP_TAP``
    records carrying the dense request ref, and the post-hoc fold
    (:func:`repro.obs.causal.profile_from_log`) rebuilds wait times
    from those -- duplicating them as txn records would bloat the log
    for no information.
    """

    def __init__(self, recorder: "FlightRecorder"):
        self._recorder = recorder
        #: cpu -> begin time of its open transaction (the folder's gate).
        self.open: dict[int, int] = {}

    def txn_begin(self, time: int, cpu: int, lock_line, pc: str,
                  attempts: int) -> None:
        self.open[cpu] = time
        writer = self._recorder._writer
        writer.txn_begin(time, cpu, lock_line, writer.intern(pc), attempts)

    def txn_commit(self, time: int, cpu: int) -> None:
        del self.open[cpu]
        self._recorder._writer.txn_commit(time, cpu)

    def txn_abort(self, time: int, cpu: int, reason: str, conflict_line,
                  aborter: int) -> None:
        del self.open[cpu]
        writer = self._recorder._writer
        writer.txn_abort(time, cpu, writer.intern(reason), conflict_line,
                         aborter)


def artifact_dir() -> str:
    """Where auto-captured logs land: ``$REPRO_ARTIFACT_DIR`` or
    ``./artifacts`` (created on first use)."""
    path = os.environ.get("REPRO_ARTIFACT_DIR") or "artifacts"
    os.makedirs(path, exist_ok=True)
    return path


class FlightRecorder:
    """Records one machine's execution into a binary log stream.

    ``harness`` describes how the run is being driven (``{"kind":
    "run"}`` or ``{"kind": "verify"}``) so the replayer can reconstruct
    the *same* instrumentation -- a verify run carries
    monitor-scheduled watchdog events whose kernel dispatches are part
    of the log.

    Every record is kept: the log is the run's whole event history, up
    to the END record :meth:`finish` writes.
    """

    def __init__(self, spec: RunSpec, *, locks: Optional[list] = None,
                 harness: Optional[dict] = None, stream=None):
        self.spec = spec
        self._buffer = stream if stream is not None else io.BytesIO()
        header = {
            "log_schema": LOG_SCHEMA,
            "fingerprint_version": FINGERPRINT_VERSION,
            "spec": spec.to_dict(),
            "harness": harness or {"kind": "run"},
            "locks": sorted(locks or []),
        }
        self._writer = LogWriter(self._buffer, header)
        self._kind_ids: dict[str, int] = {}
        self._refs: dict[int, int] = {}
        self._line_states: dict[tuple[int, int], tuple[int, int]] = {}
        self._defer_depth: dict[int, int] = {}
        self._machine: Optional["Machine"] = None
        self._finished = False

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, machine: "Machine") -> "FlightRecorder":
        """Subscribe to the machine's observation seam.  Call before
        ``run_workload``."""
        from repro.obs.profile import TxnTapFolder

        self._machine = machine
        taps = machine.taps
        taps.subscribe(self._on_dispatch, "dispatch")
        taps.subscribe(self.on_tap, *TAP_KINDS)
        taps.subscribe(self.on_tap_post, *(_STATE_KINDS | _DEFER_KINDS),
                       post=True)
        # The txn folder subscribes *after* the raw-tap writer above,
        # so each OP_TXN record lands right behind the OP_TAP record of
        # the event it folds -- a deterministic interleaving the
        # post-hoc profiler relies on.
        self._folder = TxnTapFolder(_TxnWriterSink(self)).attach(
            machine, deferrals=False)
        # Scheduler switch-in/out/migration events (repro.sched) become
        # OP_SCHED records.  With the scheduler off (the default) the
        # engine is never constructed, the point never fires, and the
        # record stream is byte-identical to a pre-sched log.
        taps.subscribe(self._on_sched, "sched")
        return self

    # ------------------------------------------------------------------
    # Kernel dispatch point
    # ------------------------------------------------------------------
    def _on_dispatch(self, time: int, cpu: int, kind: str, args: tuple,
                     obj: object) -> None:
        writer = self._writer
        writer.dispatch(time, writer.intern(args[0]))

    # ------------------------------------------------------------------
    # Machine points
    # ------------------------------------------------------------------
    def _ref_id(self, req_id: Optional[int]) -> Optional[int]:
        """Dense, first-seen-order request id (the raw counter is
        process-global and would break byte reproducibility)."""
        if req_id is None:
            return None
        dense = self._refs.get(req_id)
        if dense is None:
            dense = len(self._refs) + 1
            self._refs[req_id] = dense
        return dense

    def on_tap(self, time: int, cpu: int, kind: str, args: tuple,
               obj: object) -> None:
        kind_id = self._kind_ids.get(kind)
        if kind_id is None:
            kind_id = self._writer.intern(kind)
            self._kind_ids[kind] = kind_id
        self._writer.tap(time, cpu, kind_id, _line_of_args(args, kind),
                         self._ref_id(_ref_of_args(args)))

    def _on_sched(self, time: int, slot: int, kind: str, args: tuple,
                  obj: object) -> None:
        sched_kind, thread = args
        self._writer.sched(time, sched_kind, slot, thread)

    def on_tap_post(self, time: int, cpu: int, kind: str, args: tuple,
                    obj: object) -> None:
        if kind in _STATE_KINDS:
            line_addr = _line_of_args(args, kind)
            cache = getattr(obj, "cache", None)
            if line_addr is not None and cache is not None:
                line = cache.peek(line_addr)
                if line is None:
                    snapshot = (STATE_ABSENT, 0)
                else:
                    flags = (1 if line.accessed else 0) | (
                        2 if line.spec_written else 0)
                    snapshot = (_STATE_INDEX[line.state.value], flags)
                key = (cpu, line_addr)
                if self._line_states.get(key) != snapshot:
                    self._line_states[key] = snapshot
                    self._writer.state(time, cpu, line_addr,
                                       snapshot[0], snapshot[1])
        if kind in _DEFER_KINDS:
            deferred = getattr(obj, "deferred", None)
            if deferred is not None:
                depth = len(deferred)
                known = self._defer_depth.get(cpu, 0)
                if depth != known:
                    self._defer_depth[cpu] = depth
                    op = DEFER_PUSH if depth > known else DEFER_DRAIN
                    self._writer.defer_edit(time, cpu, op, depth)

    # ------------------------------------------------------------------
    # Finish
    # ------------------------------------------------------------------
    def finish(self, fingerprint: str) -> bytes:
        """Write the END record and return the complete log bytes (for
        a ``BytesIO``-backed recorder; file-backed streams return
        ``b""`` and the caller owns the file)."""
        if self._finished:
            raise RuntimeError("recorder already finished")
        self._finished = True
        sim = self._machine.sim if self._machine is not None else None
        self._writer.end(sim.now if sim is not None else 0,
                         sim.events_fired if sim is not None else 0,
                         fingerprint)
        if sim is not None:
            # Nothing may follow END: a finished recorder observes no more.
            sim.taps.unsubscribe(self._on_dispatch, self.on_tap,
                                 self.on_tap_post, self._on_sched)
            self._folder.detach(self._machine)
        if isinstance(self._buffer, io.BytesIO):
            return self._buffer.getvalue()
        return b""


# ----------------------------------------------------------------------
# One recorded run
# ----------------------------------------------------------------------
@dataclass
class RecordedRun:
    """What :func:`record_run` produced.  ``error`` is non-None when
    the run ended in a validation failure or a kernel error -- the log
    still captures everything up to that point, which is exactly the
    debugging story a failing run needs."""

    result: RunResult
    log: bytes
    fingerprint: str
    error: Optional[str] = None


def record_run(spec: RunSpec) -> RecordedRun:
    """Execute ``spec`` on a fresh machine with a recorder attached.

    Mirrors :func:`repro.harness.runner.execute_workload` (same
    machine construction, same default observers) so a recorded run's
    fingerprint matches an unrecorded run of the same spec -- the
    record-on ≡ record-off contract the golden tests pin.
    """
    from repro.harness.machine import Machine
    from repro.obs import default_observers
    from repro.runtime.program import ValidationError
    from repro.sim.kernel import SimulationError

    workload = spec.build_workload()
    machine = Machine(spec.config)
    recorder = FlightRecorder(
        spec, locks=sorted(workload.lock_addrs)).attach(machine)
    export = default_observers(machine) if spec.config.metrics else None
    error: Optional[str] = None
    try:
        machine.run_workload(workload, validate=spec.validate)
    except (ValidationError, SimulationError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    metrics = export() if export is not None else None
    result = RunResult(
        config=spec.config, workload_name=workload.name,
        stats=machine.stats, store=machine.store, metrics=metrics)
    fingerprint = result_fingerprint(result)
    log = recorder.finish(fingerprint)
    return RecordedRun(result=result, log=log, fingerprint=fingerprint,
                       error=error)
