"""The ``repro serve`` job-queue service.

An always-on front end over the same :func:`repro.harness.jobs.submit`
API the CLI uses: HTTP clients POST :class:`~repro.harness.spec.JobSpec`
envelopes to ``/jobs``, poll ``/jobs/<id>`` or stream per-cell progress
from ``/jobs/<id>/events`` (SSE), and scrape ``/metrics``
(OpenMetrics).  Work is sharded across a persistent
:class:`~repro.harness.parallel.WorkerPool`; identical jobs are deduped
both in flight (one execution, many watchers) and across completions
(fingerprint-keyed replay: from a finished job the queue still keeps,
at submission, or else from the result cache).
"""

from repro.serve.app import build_server, serve
from repro.serve.queue import Job, JobQueue

__all__ = ["Job", "JobQueue", "build_server", "serve"]
