"""Always-on flight recorder: bounded rings + postmortem crash bundles.

The black-box pattern for the clustering substrate.  A
:class:`FlightRecorder` keeps a bounded ring buffer (one
``deque(maxlen=capacity)`` per stream, O(1) memory) of the most recent

* **spans** (closed host spans, from :class:`~repro.obs.tracer.Tracer`),
* **kernels** (simulated kernel launches),
* **collectives** (fleet ``comm.*`` barrier events),
* **counters** (counter-track samples),
* **faults** (fault-injector firings),
* **resilience** (retry / degrade / reshard actions), and
* **serve** (service lifecycle events),

each stamped with the unified **correlation id** threaded end-to-end
(request -> job -> resilience rung/attempt -> kernel): the serving
layer runs each job with ``corr="job-<id>"`` in its
:class:`~repro.obs.tracer.RunContext`, the resilient runner extends it
with ``:r<rung>a<attempt>``, and every emitter passes the ``corr`` of
the context it runs in with each record, extending the existing
``ServeEvent.span_id`` link into the flat event streams.

Recording is passive — nothing here touches the modeled clocks, so a
run with the recorder installed produces bit-identical modeled seconds
and counters (the overhead test pins this).

On a terminal failure the recorder dumps a schema-versioned
**postmortem bundle** (:data:`POSTMORTEM_SCHEMA`): the ring contents,
the active fault schedule, the RNG state, the dataset fingerprint +
payload, the engine/policy configuration, the failure record, a health
snapshot, and the environment — everything
:func:`repro.obs.postmortem.replay_bundle` needs to re-execute the job
deterministically from the bundle alone.

The recorder is a plain sink and reads no ambient state.  A run
reaches it through the ``recorder`` field of its
:class:`~repro.obs.tracer.RunContext` (installed with
:func:`~repro.obs.tracer.use_run`); layers do nothing when the field is
``None``.  The ``REPRO_FLIGHT_RECORDER`` environment variable makes the
CLI install one for the duration of any command.
"""

from __future__ import annotations

import base64
import json
import platform
import sys
import threading
from collections import deque
from pathlib import Path
from typing import Any

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "POSTMORTEM_SCHEMA",
    "RECORDER_STREAMS",
    "FlightRecorder",
]

#: Postmortem bundle schema identifier (bump on incompatible changes).
POSTMORTEM_SCHEMA = "repro.postmortem/1"

#: Every ring stream the recorder keeps, in dump order.
RECORDER_STREAMS = (
    "spans",
    "kernels",
    "collectives",
    "counters",
    "faults",
    "resilience",
    "serve",
)

#: Datasets larger than this are recorded by fingerprint only (the
#: bundle stays shippable; replay then needs the original data file).
DEFAULT_MAX_DATASET_BYTES = 8 << 20


# ----------------------------------------------------------------------
# JSON sanitization
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serializable plain data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    return str(value)


class FlightRecorder:
    """Bounded always-on event recorder with crash-bundle dumping.

    Parameters
    ----------
    capacity:
        Ring size per stream.  Each stream keeps the *last* ``capacity``
        records; older records are dropped (counted, never stored), so
        memory stays O(``capacity``) no matter how long the run.
    bundle_dir:
        When set, terminal failures auto-dump a postmortem bundle here
        (:meth:`auto_dump`); without it the recorder only records.

    Thread-safe: the serving layer records from client and worker
    threads concurrently.
    """

    def __init__(
        self,
        capacity: int = 256,
        bundle_dir: "str | Path | None" = None,
    ) -> None:
        if capacity < 1:
            raise ParameterError(
                f"recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self.bundle_dir = Path(bundle_dir) if bundle_dir is not None else None
        self.enabled = True
        self._lock = threading.Lock()
        self._rings: dict[str, deque] = {
            stream: deque(maxlen=self.capacity)
            for stream in RECORDER_STREAMS
        }
        self._recorded: dict[str, int] = dict.fromkeys(RECORDER_STREAMS, 0)
        #: Pinned + replayable job context (see :meth:`set_job`).
        self._job: dict[str, Any] | None = None
        self._job_pinned = False
        self._data: np.ndarray | None = None
        self._fault_schedule: dict[str, Any] | None = None
        self._reference_digest: str | None = None
        self._failure: dict[str, Any] | None = None
        self._checkpoints: dict[str, str] = {}
        self.dumped_paths: list[Path] = []
        self._dumped_error_ids: set[int] = set()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self, stream: str, record: dict[str, Any], corr: "str | None" = None
    ) -> None:
        """Append one record to a stream ring.

        ``corr`` (the emitter's correlation id) is stamped on the record
        unless it is ``None`` or the record already carries one.
        """
        if not self.enabled:
            return
        if stream not in self._rings:
            raise ParameterError(
                f"unknown recorder stream {stream!r}; "
                f"expected one of {', '.join(RECORDER_STREAMS)}"
            )
        if corr is not None and "corr" not in record:
            record["corr"] = corr
        with self._lock:
            self._recorded[stream] += 1
            self._rings[stream].append(record)

    def record_span(
        self, name: str, category: str, start: float, duration: float,
        span_id: "int | None", attrs: dict[str, Any],
        corr: "str | None" = None,
    ) -> None:
        """Record one closed tracer span (called by the tracer tap)."""
        self.record("spans", {
            "name": name,
            "category": category,
            "start": start,
            "duration": duration,
            "span_id": span_id,
            "attrs": _jsonable(attrs),
        }, corr)

    def record_kernel(self, event: Any, corr: "str | None" = None) -> None:
        """Record one kernel launch; ``comm.*`` events are collectives."""
        stream = "collectives" if event.name.startswith("comm.") else "kernels"
        self.record(stream, {
            "name": event.name,
            "pipeline": event.pipeline,
            "phase": event.phase,
            "start": event.start,
            "duration": event.duration,
            "clock": event.clock,
            "span_id": event.span_id,
        }, corr)

    def record_counter(
        self, track: str, ts: float, value: float, corr: "str | None" = None
    ) -> None:
        """Record one counter-track sample."""
        self.record(
            "counters", {"track": track, "ts": ts, "value": value}, corr
        )

    def record_fault(self, record: Any, corr: "str | None" = None) -> None:
        """Record one fault-injector firing (an ``InjectionRecord``)."""
        self.record("faults", {
            "kind": record.kind,
            "operation": record.operation,
            "site": record.site,
            "sequence": record.sequence,
            "spec": record.spec,
        }, corr)

    def record_resilience(
        self, event: dict[str, Any], corr: "str | None" = None
    ) -> None:
        """Record one resilience action (a ``ResilienceEvent.as_dict()``)."""
        self.record("resilience", dict(event), corr)

    def record_serve(
        self, event: dict[str, Any], corr: "str | None" = None
    ) -> None:
        """Record one serve lifecycle event (a ``ServeEvent.as_dict()``)."""
        self.record("serve", dict(event), corr)

    # ------------------------------------------------------------------
    # Replay context
    # ------------------------------------------------------------------
    def set_job(
        self,
        *,
        data: "np.ndarray | None" = None,
        backend: str = "",
        params: Any = None,
        seed: Any = 0,
        policy: Any = None,
        engine_kwargs: "dict[str, Any] | None" = None,
        fingerprint: str = "",
        pinned: bool = False,
    ) -> None:
        """Capture the replayable context of the job now running.

        The serving layer *pins* the request-level context (original
        integer seed, leader request) before executing a group; the
        resilient runner records its own view for bare (non-serve) fits
        but never overwrites a pinned context — coalesced members run
        with a mid-stream :class:`~repro.rng.RandomSource` whose state
        is not the request's seed.
        """
        if self._job_pinned and not pinned:
            return
        engine_kwargs = dict(engine_kwargs or {})
        self._checkpoints = {
            key: str(engine_kwargs[key])
            for key in ("checkpoint_path", "resume_from")
            if engine_kwargs.get(key)
        }
        job = {
            "backend": backend,
            "params": _serialize_params(params),
            "seed": _serialize_seed(seed),
            "policy": _serialize_policy(policy),
            "engine_kwargs": _serialize_engine_kwargs(engine_kwargs),
            "fingerprint": fingerprint,
        }
        with self._lock:
            self._job = job
            self._job_pinned = pinned or self._job_pinned
            if data is not None:
                self._data = data

    def set_fault_schedule(
        self, specs: "list[str]", seed: int
    ) -> None:
        """Record the active fault schedule (parseable spec strings)."""
        with self._lock:
            self._fault_schedule = {
                "specs": [str(spec) for spec in specs],
                "seed": int(seed),
            }

    def set_reference_digest(self, digest: str) -> None:
        """Record the solo-reference result digest (the "solo bits").

        Used by failure classes with no recorded error (determinism and
        chaos-contract violations): replay then asserts the digest
        instead of an error class.
        """
        with self._lock:
            self._reference_digest = str(digest)

    def record_failure(
        self,
        reason: str,
        error: "BaseException | None" = None,
        events: "list | None" = None,
        detail: str = "",
    ) -> None:
        """Record the terminal failure the next bundle dump describes."""
        failure: dict[str, Any] = {
            "reason": reason,
            "detail": detail,
            "error_type": type(error).__name__ if error is not None else "",
            "message": str(error) if error is not None else "",
        }
        last = getattr(error, "last_error", None)
        failure["last_error_type"] = (
            type(last).__name__ if last is not None else ""
        )
        if events is None:
            events = getattr(error, "events", None)
        failure["events"] = [
            event.as_dict() if hasattr(event, "as_dict") else dict(event)
            for event in (events or [])
        ]
        with self._lock:
            self._failure = failure

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Ring contents plus recorded/dropped bookkeeping."""
        with self._lock:
            streams = {
                stream: list(ring) for stream, ring in self._rings.items()
            }
            recorded = dict(self._recorded)
        return {
            "capacity": self.capacity,
            "streams": streams,
            "recorded": recorded,
            "dropped": {
                stream: recorded[stream] - len(streams[stream])
                for stream in RECORDER_STREAMS
            },
        }

    def __len__(self) -> int:
        with self._lock:
            return sum(len(ring) for ring in self._rings.values())

    @property
    def dump_count(self) -> int:
        """Bundles written so far (auto or explicit)."""
        return len(self.dumped_paths)

    def dumped_error(self, error: BaseException) -> bool:
        """Whether a bundle was already dumped for this exact error."""
        return id(error) in self._dumped_error_ids

    # ------------------------------------------------------------------
    # Bundles
    # ------------------------------------------------------------------
    def bundle(
        self,
        reason: str,
        error: "BaseException | None" = None,
        health: "dict | None" = None,
    ) -> dict[str, Any]:
        """Assemble the full ``repro.postmortem/1`` bundle payload."""
        from .export import report_envelope  # deferred: avoids a cycle

        if error is not None or self._failure is None:
            self.record_failure(
                reason, error,
                detail=self._failure.get("detail", "")
                if self._failure else "",
            )
        with self._lock:
            failure = dict(self._failure or {})
            failure.setdefault("reason", reason)
            job = dict(self._job) if self._job is not None else None
            data = self._data
            schedule = (
                dict(self._fault_schedule)
                if self._fault_schedule is not None else None
            )
            reference = self._reference_digest
            checkpoints = dict(self._checkpoints)
        return {
            **report_envelope(POSTMORTEM_SCHEMA),
            "reason": failure.get("reason", reason),
            "failure": failure,
            "job": job,
            "dataset": _serialize_dataset(data),
            "fault_schedule": schedule,
            "reference_digest": reference,
            "checkpoints": checkpoints,
            "rings": self.snapshot(),
            "health": _jsonable(health) if health is not None else None,
            "environment": {
                "python": platform.python_version(),
                "platform": sys.platform,
                "numpy": np.__version__,
            },
        }

    def dump(
        self,
        reason: str,
        error: "BaseException | None" = None,
        health: "dict | None" = None,
    ) -> Path:
        """Write one postmortem bundle; returns its path.

        The bundle lands in ``bundle_dir`` under a unique
        ``postmortem-<reason>-<n>.json`` name.
        """
        payload = self.bundle(reason, error=error, health=health)
        if self.bundle_dir is None:
            raise ParameterError("recorder has no bundle_dir")
        self.bundle_dir.mkdir(parents=True, exist_ok=True)
        slug = "".join(
            ch if ch.isalnum() or ch == "-" else "-" for ch in reason
        )
        path = (
            self.bundle_dir
            / f"postmortem-{slug}-{len(self.dumped_paths) + 1:03d}.json"
        )
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        tmp.replace(path)
        self.dumped_paths.append(path)
        if error is not None:
            self._dumped_error_ids.add(id(error))
        return path

    def auto_dump(
        self,
        reason: str,
        error: "BaseException | None" = None,
        health: "dict | None" = None,
    ) -> "Path | None":
        """Best-effort dump on the failure path.

        Returns ``None`` without a bundle directory, when a bundle was
        already written for this exact error (the runner dumps before
        the serving layer sees the exception), or when writing fails —
        a broken disk must never mask the original error.
        """
        if self.bundle_dir is None:
            return None
        if error is not None and self.dumped_error(error):
            return None
        try:
            return self.dump(reason, error=error, health=health)
        except Exception:  # noqa: BLE001 - never mask the original error
            return None


# ----------------------------------------------------------------------
# Context serialization (the replayable job spec)
# ----------------------------------------------------------------------
def _serialize_params(params: Any) -> "dict[str, Any] | None":
    if params is None:
        return None
    from dataclasses import asdict, is_dataclass

    if is_dataclass(params):
        return _jsonable(asdict(params))
    return _jsonable(dict(params))


def _serialize_seed(seed: Any) -> dict[str, Any]:
    from ..rng import RandomSource

    if isinstance(seed, RandomSource):
        return {"kind": "state", "state": _jsonable(seed.get_state())}
    if seed is None:
        return {"kind": "int", "value": None}
    return {"kind": "int", "value": int(seed)}


def _serialize_policy(policy: Any) -> "dict[str, Any] | None":
    if policy is None:
        return None
    return {
        "max_retries": int(policy.max_retries),
        "backoff_base": float(policy.backoff_base),
        "allow_degraded": bool(policy.allow_degraded),
        "max_reshards": (
            None if policy.max_reshards is None else int(policy.max_reshards)
        ),
    }


def _serialize_engine_kwargs(engine_kwargs: dict[str, Any]) -> dict[str, Any]:
    """Replayable engine kwargs: model objects become named specs."""
    serialized: dict[str, Any] = {}
    for key, value in engine_kwargs.items():
        if key == "resume_from":
            continue  # checkpoint refs live in their own section
        spec_names = _spec_names(value)
        if spec_names is not None:
            serialized[key] = spec_names
        elif value is None or isinstance(value, (bool, int, float, str)):
            serialized[key] = value
        else:
            serialized[key] = {"unserializable": type(value).__name__}
    return serialized


def _spec_names(value: Any) -> "dict[str, Any] | None":
    """``Fleet``/``GpuSpec`` values as name lists (rebuildable)."""
    specs = getattr(value, "specs", None)
    if specs is not None and all(hasattr(spec, "name") for spec in specs):
        return {"fleet_specs": [spec.name for spec in specs]}
    if hasattr(value, "name") and hasattr(value, "memory_bytes"):
        return {"gpu_spec": value.name}
    return None


def _serialize_dataset(data: "np.ndarray | None") -> "dict[str, Any] | None":
    if data is None:
        return None
    from ..data.fingerprint import dataset_fingerprint

    array = np.ascontiguousarray(np.asarray(data))
    record: dict[str, Any] = {
        "fingerprint": dataset_fingerprint(array),
        "shape": list(array.shape),
        "dtype": str(array.dtype),
        "data_b64": None,
    }
    if array.nbytes <= DEFAULT_MAX_DATASET_BYTES:
        record["data_b64"] = base64.b64encode(array.tobytes()).decode()
    return record
