"""repro.verify -- correctness oracle for TLR/SLE executions.

Three layers, composable or standalone:

* :mod:`repro.verify.recorder` -- non-invasive footprint recording of
  every committed transaction (reads with provenance, write sets,
  commit order) plus the chronological log of plain writes.
* :mod:`repro.verify.oracle` -- post-hoc serializability judgement:
  sequential replay in witness commit order and cache-line
  conflict-graph acyclicity.
* :mod:`repro.verify.monitors` -- during-run invariant monitors wired
  into the coherence controllers: MOESI state compatibility, deferral
  timestamp-order and waits-for acyclicity, starvation watchdog.

:mod:`repro.verify.explorer` fans all of it across seeds (and the
kernel's schedule-chaos choice points) through the parallel engine
(``execute(..., verified=True)``), and shrinks any failing seed to a
minimal traced reproduction.  The verifier has one configuration:
every verified run attaches the recorder, the oracle and every
monitor.  CLI: ``repro verify --seeds N --jobs J``.
"""

from repro.verify.explorer import (DEFAULT_VERIFY_WORKLOADS,
                                   ExplorationResult, ShrunkFailure,
                                   VerifyResult, VerifySuiteResult,
                                   explore, shrink_failure, verify_run,
                                   verify_suite)
from repro.verify.monitors import InvariantViolation, MonitorSuite, Violation
from repro.verify.oracle import (OracleReport, OracleViolation,
                                 SerializabilityOracle)
from repro.verify.recorder import (CommittedTxn, FootprintRecorder,
                                   ReadObservation)

__all__ = [
    "CommittedTxn",
    "DEFAULT_VERIFY_WORKLOADS",
    "ExplorationResult",
    "FootprintRecorder",
    "InvariantViolation",
    "MonitorSuite",
    "OracleReport",
    "OracleViolation",
    "ReadObservation",
    "SerializabilityOracle",
    "ShrunkFailure",
    "VerifyResult",
    "VerifySuiteResult",
    "Violation",
    "explore",
    "shrink_failure",
    "verify_run",
    "verify_suite",
]
