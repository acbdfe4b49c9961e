"""Post-hoc causal profiling from record logs.

A v3 record log carries ``OP_TXN`` records -- transaction
begin/commit/abort events the flight recorder writes in tap order
right behind the raw ``OP_TAP`` records of the same events.  An abort
record carries the ``misspec`` point's reason, conflicting line and
aborter, the same payload the live profiler reads at each
transaction's close, and a begin record carries what the live profiler
reads off the transaction's checkpoint.  Replaying the records (plus
the ``defer``/``service`` taps, whose dense request refs pair each
deferral push with its service) through a fresh
:class:`~repro.obs.profile.ProfileBuilder` therefore reconstructs the
live profile exactly: same conflict matrix, same histograms, same
causal chains, same open transactions.  The integration tests compare
the two snapshots' canonical JSON byte for byte.  The recorder drops no record, so every
log folds to its run's whole profile.
"""

from __future__ import annotations

from typing import Union

from repro.obs.profile import ProfileBuilder
from repro.record.format import (TXN_ABORT, TXN_BEGIN, TXN_COMMIT,
                                 LogImage, load_log)


def builder_from_log(image: LogImage) -> ProfileBuilder:
    """Fold ``image``'s transaction and deferral records into a
    :class:`ProfileBuilder`."""
    builder = ProfileBuilder()
    for record in image.records:
        if record.op == "txn":
            if record.flags == TXN_BEGIN:
                builder.txn_begin(record.time, record.cpu, record.line,
                                  record.label, record.ref)
            elif record.flags == TXN_COMMIT:
                builder.txn_commit(record.time, record.cpu)
            elif record.flags == TXN_ABORT:
                builder.txn_abort(
                    record.time, record.cpu, record.label, record.line,
                    record.ref if record.ref is not None else -1)
        elif record.op == "tap" and record.ref is not None:
            # Deferral waits: the dense request ref pairs each push
            # with its eventual service, mirroring the live
            # DeferralTally's req_id matching (keys differ, durations
            # do not).
            if record.label == "defer":
                builder.defer_push(record.time, record.cpu, record.ref)
            elif record.label == "service":
                builder.defer_service(record.time, record.ref)
    return builder


def profile_from_log(source: Union[str, bytes, LogImage]) -> dict:
    """The contention-profile snapshot of a recorded run.

    ``source`` is a log path, raw log bytes, or an already-decoded
    :class:`LogImage`.
    """
    image = source if isinstance(source, LogImage) else load_log(source)
    return builder_from_log(image).snapshot()
