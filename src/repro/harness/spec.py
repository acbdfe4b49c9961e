"""Serializable run/experiment specifications.

The parallel sweep engine (:mod:`repro.harness.parallel`) ships work to
``multiprocessing`` workers and keys the on-disk result cache
(:mod:`repro.harness.cache`), so a run must be describable *as data*:
a workload **name** plus keyword arguments (looked up in
:data:`WORKLOAD_BUILDERS` inside the worker -- thread factories are
closures and cannot be pickled), a :class:`~repro.harness.config.SystemConfig`,
and a validation flag.  :class:`RunSpec` is that description; its
:meth:`~RunSpec.fingerprint` is a deterministic digest of everything
that can change a simulation's outcome, and is the cache key.
:class:`JobSpec` is the envelope every front end submits work in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

from repro.harness.config import (BusConfig, CacheConfig, DirectoryConfig,
                                  MemoryConfig, SchedConfig,
                                  SpeculationConfig, SyncScheme, SystemConfig)
from repro.runtime.program import Workload
from repro.workloads.apps import ALL_APPS, mp3d
from repro.workloads.litmus import (LITMUS_WORKLOADS, litmus_atomicity,
                                    litmus_publication, litmus_write_skew)
from repro.workloads.microbench import (linked_list, multiple_counter,
                                        single_counter)

# Bumped whenever the simulator's observable behaviour changes in a way
# that invalidates previously cached results.
# v2: SystemConfig grew ``schedule_chaos`` (kernel choice-point hook).
# v3: SpeculationConfig grew ``contention_policy``/``contention_fallback_k``
#     (repro.policies).
# v4: RunResult grew ``metrics`` (repro.obs); cached pre-v4 payloads would
#     silently come back without telemetry.
# v5: every result ``to_dict`` is schema-stamped (``"schema"`` field,
#     checked by ``from_dict``); pre-v5 payloads lack the stamp.
# v6: SystemConfig grew ``sched`` (repro.sched preemptive scheduler);
#     the knobs change simulated schedules, so they must key the cache.
# v7: RunResult metrics grew the ``profile`` section (repro.obs.profile
#     per-lock contention profiles, conflict matrix, profile.* families);
#     cached v6 payloads would come back without it.
# v8: SystemConfig grew an event-core backend field (reference |
#     batched, bit-identical), so the serialized config image changed
#     shape and pre-v8 cache keys no longer match.
# v9: the batched event core is gone: the config image lost the backend
#     field and the metrics lost the kernel batch-size histogram and the
#     backend entry under ``meta``.  Simulated behaviour is unchanged;
#     :func:`config_from_dict` still accepts (and ignores) the v8 key.
# v10: the metrics lost the one-hop flight-time pairing (the marker
#     and probe received counters and flight-time histograms); the
#     sent, NACK and deferral counters are read from the CPU stats.
#     Simulated behaviour is unchanged; cached v9 payloads would replay
#     the dropped families.
# v11: the metrics lost the kernel's lazy-cancel compaction counter
#     (the kernel no longer compacts).  Simulated behaviour is
#     unchanged; cached v10 payloads would replay the dropped family.
FINGERPRINT_VERSION = 11


# ----------------------------------------------------------------------
# Result-payload schema stamping
# ----------------------------------------------------------------------
#: Version of every result ``to_dict`` payload (RunResult, SweepResult,
#: AppResult, VerifyResult, PolicyGridResult, JobResult).
#: The v4 fingerprint bump documents the hazard this solves: a cached or
#: HTTP-transported payload whose schema silently drifted used to come
#: back with fields quietly dropped.  Now every payload carries an
#: explicit ``"schema"`` field and ``from_dict`` fails loudly on a
#: missing or unknown version.
RESULT_SCHEMA = 1


class SchemaError(ValueError):
    """A serialized payload carries a missing or incompatible schema."""


def stamp_schema(payload: dict) -> dict:
    """Stamp ``payload`` (in place) with the current result schema."""
    payload["schema"] = RESULT_SCHEMA
    return payload


def check_schema(data: dict, what: str) -> dict:
    """Validate the ``"schema"`` stamp of a payload being deserialized.

    Raises :class:`SchemaError` (a :class:`ValueError`, so cache readers
    that treat undecodable entries as misses keep working) when the
    stamp is absent or names a version this code does not speak.
    """
    version = data.get("schema")
    if version is None:
        raise SchemaError(
            f"{what} payload has no 'schema' field (pre-v{RESULT_SCHEMA} "
            f"or hand-built dict); refusing to deserialize silently")
    if version != RESULT_SCHEMA:
        raise SchemaError(
            f"{what} payload has schema v{version}, this code speaks "
            f"v{RESULT_SCHEMA}; refusing to drop fields silently")
    return data


def _mp3d_coarse(num_threads: int, **kwargs) -> Workload:
    return mp3d(num_threads, coarse=True, **kwargs)


#: Name -> builder.  Every builder takes the thread count first and
#: accepts only keyword arguments after it, so a ``RunSpec`` can rebuild
#: the workload inside a worker process.
WORKLOAD_BUILDERS: dict[str, Callable[..., Workload]] = {
    "multiple-counter": multiple_counter,
    "single-counter": single_counter,
    "linked-list": linked_list,
    "mp3d-coarse": _mp3d_coarse,
    "litmus-write-skew": litmus_write_skew,
    "litmus-publication": litmus_publication,
    "litmus-atomicity": litmus_atomicity,
    **ALL_APPS,
}

#: The keyword each builder uses for its "total work" knob (the CLI's
#: ``--ops``): total operations for the microbenchmarks, per-thread
#: iteration scale for the application kernels.
SIZE_PARAM: dict[str, str] = {
    "multiple-counter": "total_increments",
    "single-counter": "total_increments",
    "linked-list": "total_ops",
    "mp3d-coarse": "scale",
    **{name: "total_rounds" for name in LITMUS_WORKLOADS},
    **{name: "scale" for name in ALL_APPS},
}


# ----------------------------------------------------------------------
# SystemConfig <-> dict
# ----------------------------------------------------------------------
def scheme_to_str(scheme: SyncScheme) -> str:
    """Stable string form of a scheme (the enum *name*, e.g. ``"TLR"``)."""
    return scheme.name


def scheme_from_str(name: str) -> SyncScheme:
    """Inverse of :func:`scheme_to_str`; also accepts the paper label
    (enum value, e.g. ``"BASE+SLE+TLR"``)."""
    try:
        return SyncScheme[name]
    except KeyError:
        for scheme in SyncScheme:
            if scheme.value == name:
                return scheme
        raise KeyError(
            f"unknown scheme {name!r}; known: "
            f"{[s.name for s in SyncScheme]}") from None


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


_SUB_CONFIGS = {"cache": CacheConfig, "bus": BusConfig,
                "directory": DirectoryConfig, "memory": MemoryConfig,
                "spec": SpeculationConfig, "sched": SchedConfig}

#: Each :class:`SystemConfig` field with its sub-config's field names
#: (``None`` for a scalar field), in declaration order.  Every leaf is a
#: JSON scalar, so copying by name builds the same image a recursive
#: deep copy of the dataclass tree would, at a fraction of the cost.
_CONFIG_FIELDS = tuple(
    (name, _field_names(_SUB_CONFIGS[name]) if name in _SUB_CONFIGS
     else None)
    for name in _field_names(SystemConfig))


def config_to_dict(config: SystemConfig) -> dict:
    """A JSON-serializable image of a :class:`SystemConfig`."""
    data = {}
    for name, sub_fields in _CONFIG_FIELDS:
        value = getattr(config, name)
        if sub_fields is not None:
            value = {key: getattr(value, key) for key in sub_fields}
        data[name] = value
    data["scheme"] = scheme_to_str(config.scheme)
    return data


def config_from_dict(data: dict) -> SystemConfig:
    data = dict(data)
    return SystemConfig(
        num_cpus=data["num_cpus"],
        scheme=scheme_from_str(data["scheme"]),
        cache=CacheConfig(**data["cache"]),
        bus=BusConfig(**data["bus"]),
        directory=DirectoryConfig(**data["directory"]),
        protocol=data["protocol"],
        memory=MemoryConfig(**data["memory"]),
        spec=SpeculationConfig(**data["spec"]),
        seed=data["seed"],
        latency_jitter=data["latency_jitter"],
        metrics=data.get("metrics", True),
        schedule_chaos=data.get("schedule_chaos", 0),
        max_cycles=data["max_cycles"],
        # Pre-v6 images have no "sched" key; the default is the off
        # switch, which is behaviourally identical to what they ran.
        sched=SchedConfig(**(data.get("sched") or {})),
        # v8 images also carry the retired event-core backend key; both
        # of its values ran the same simulation, so it is ignored.
    )


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
@dataclass
class RunSpec:
    """One simulation, described as picklable/JSON-able data."""

    workload: str
    config: SystemConfig
    workload_args: dict = field(default_factory=dict)
    validate: bool = True

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_BUILDERS:
            raise KeyError(
                f"unknown workload {self.workload!r}; known: "
                f"{sorted(WORKLOAD_BUILDERS)}")

    def build_workload(self) -> Workload:
        """Instantiate the workload for ``config.num_cpus`` threads."""
        builder = WORKLOAD_BUILDERS[self.workload]
        return builder(self.config.num_cpus, **self.workload_args)

    def with_seed(self, seed: int) -> "RunSpec":
        return replace(self, config=replace(self.config, seed=seed))

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "workload_args": dict(self.workload_args),
            "config": config_to_dict(self.config),
            "validate": self.validate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        return cls(workload=data["workload"],
                   workload_args=dict(data.get("workload_args") or {}),
                   config=config_from_dict(data["config"]),
                   validate=data.get("validate", True))

    def fingerprint(self) -> str:
        """Deterministic digest of everything that determines the
        simulation's outcome (workload identity + full config, including
        the seed; *not* the validate flag, which cannot change results).
        """
        payload = {
            "v": FINGERPRINT_VERSION,
            "workload": self.workload,
            "workload_args": self.workload_args,
            "config": config_to_dict(self.config),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# JobSpec: the unified job envelope
# ----------------------------------------------------------------------
#: Version of the JobSpec envelope itself (the ``kind``/``params``
#: contract), independent of :data:`RESULT_SCHEMA` (what results look
#: like) and :data:`FINGERPRINT_VERSION` (what simulations compute).
JOBSPEC_SCHEMA = 1

#: The kinds of work a job can describe.  ``run`` wraps one
#: :class:`RunSpec`; ``sweep`` names an experiment of
#: :data:`repro.harness.experiments.EXPERIMENTS` plus its parameters
#: (the figure/table sweeps and the policy and scheduler grids);
#: ``verify`` is the verification suite, which explores seeds and then
#: shrinks the first failure.
JOB_KINDS = ("run", "sweep", "verify")


@dataclass
class JobSpec:
    """One unit of work -- run, sweep or verify -- as a single
    serializable, fingerprintable envelope.

    This is the API the CLI and the ``repro serve`` HTTP service share:
    both build a ``JobSpec`` and hand it to
    :func:`repro.harness.jobs.submit`, so "two transports, one API".
    ``params`` must be JSON-serializable (configs travel as
    :func:`config_to_dict` images); :meth:`fingerprint` is the dedup
    key for both in-flight coalescing and the completed-job cache.
    """

    kind: str
    params: dict = field(default_factory=dict)
    #: Queue priority (``repro serve``): higher runs first, ties FIFO.
    #: Deliberately *excluded* from :meth:`fingerprint` -- priority is
    #: how urgently a job runs, never what it computes, so a high- and
    #: a low-priority submission of the same work coalesce and share
    #: one cache entry.
    priority: int = 0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; known: {JOB_KINDS}")
        if not isinstance(self.params, dict):
            raise TypeError(
                f"JobSpec params must be a dict, got "
                f"{type(self.params).__name__}")
        if not isinstance(self.priority, int) or isinstance(self.priority,
                                                            bool):
            raise TypeError("JobSpec priority must be an int")

    # -- constructors ---------------------------------------------------
    @classmethod
    def run(cls, spec: "RunSpec") -> "JobSpec":
        """Wrap one :class:`RunSpec` as a job."""
        return cls(kind="run", params=spec.to_dict())

    @classmethod
    def sweep(cls, experiment: str, **params) -> "JobSpec":
        """A registered experiment (``"figure9"``, ``"policies"``, ...)
        plus its keyword parameters.  A ``config`` parameter may be a
        :class:`~repro.harness.config.SystemConfig` (serialized here)
        or an already-serialized dict."""
        if isinstance(params.get("config"), SystemConfig):
            params["config"] = config_to_dict(params["config"])
        return cls(kind="sweep", params={"experiment": experiment, **params})

    @classmethod
    def verify(cls, **params) -> "JobSpec":
        """A verification-suite job: ``params`` are the keywords of
        :func:`repro.verify.verify_suite`.  ``scheme`` may be a
        :class:`~repro.harness.config.SyncScheme` (serialized here)."""
        if isinstance(params.get("scheme"), SyncScheme):
            params["scheme"] = scheme_to_str(params["scheme"])
        return cls(kind="verify", params=params)

    # -- accessors ------------------------------------------------------
    def run_spec(self) -> "RunSpec":
        """The wrapped :class:`RunSpec` (``kind == "run"`` only)."""
        if self.kind != "run":
            raise ValueError(f"job kind {self.kind!r} wraps no RunSpec")
        return RunSpec.from_dict(self.params)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        payload = {"schema": JOBSPEC_SCHEMA,
                   "kind": self.kind,
                   "params": dict(self.params)}
        if self.priority:
            payload["priority"] = self.priority
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        version = data.get("schema", JOBSPEC_SCHEMA)
        if version != JOBSPEC_SCHEMA:
            raise SchemaError(
                f"JobSpec payload has schema v{version}, this code "
                f"speaks v{JOBSPEC_SCHEMA}")
        return cls(kind=data["kind"], params=dict(data.get("params") or {}),
                   priority=int(data.get("priority", 0)))

    def fingerprint(self) -> str:
        """Deterministic digest of everything that determines the job's
        outcome: the envelope schema, the simulator fingerprint version,
        the kind and the canonicalized parameters."""
        payload = {
            "jobspec": JOBSPEC_SCHEMA,
            "v": FINGERPRINT_VERSION,
            "kind": self.kind,
            "params": self.params,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
