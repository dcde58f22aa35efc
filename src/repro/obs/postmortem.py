"""Postmortem forensics: load, validate, analyze, and replay bundles.

The consumer side of :mod:`repro.obs.recorder`.  A postmortem bundle
(:data:`~repro.obs.recorder.POSTMORTEM_SCHEMA`) is self-contained: it
carries the failing job's dataset (or at least its fingerprint), exact
parameters, seed or mid-stream RNG state, retry policy, engine kwargs,
and the active fault schedule — enough to re-execute the run without
the process that crashed.

* :func:`load_bundle` / :func:`validate_postmortem` — read + schema-check.
* :func:`analyze_bundle` — the forensic report behind ``repro
  postmortem``: failure echo, suspect fault/kernel/device, resilience
  trail, counter triage (via :mod:`repro.obs.explain`), and
  collective-straggler analysis for fleet runs.
* :func:`replay_bundle` — deterministic re-execution from the bundle
  alone; asserts the recorded error class and resilience event log
  reproduce (modulo wall-clock fields), or — for failures recorded
  without an error, like determinism violations — that the solo result
  digest matches the recorded reference.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from ..exceptions import PostmortemError
from .recorder import POSTMORTEM_SCHEMA, RECORDER_STREAMS
from .tracer import use_run

__all__ = [
    "POSTMORTEM_REPORT_SCHEMA",
    "WALL_CLOCK_EVENT_FIELDS",
    "load_bundle",
    "validate_postmortem",
    "analyze_bundle",
    "replay_bundle",
    "result_digest",
    "comparable_events",
]

#: Schema tag of the analysis report (``repro postmortem --json``).
POSTMORTEM_REPORT_SCHEMA = "repro.postmortem_report/1"

#: Resilience-event fields stamped from the host wall clock; excluded
#: from the replay determinism contract (see ``ResilientRunner``).
WALL_CLOCK_EVENT_FIELDS = ("recovery_s",)


# ----------------------------------------------------------------------
# Loading + validation
# ----------------------------------------------------------------------
def load_bundle(path: "str | Path") -> dict[str, Any]:
    """Load a postmortem bundle from a file (or newest in a directory).

    Raises :class:`~repro.exceptions.PostmortemError` when the path does
    not exist, holds no bundle, or is not valid JSON.
    """
    path = Path(path)
    if path.is_dir():
        candidates = sorted(path.glob("postmortem-*.json"))
        if not candidates:
            raise PostmortemError(
                f"no postmortem-*.json bundles under {path}"
            )
        path = candidates[-1]
    try:
        text = path.read_text()
    except OSError as error:
        raise PostmortemError(f"cannot read bundle {path}: {error}") from error
    try:
        bundle = json.loads(text)
    except json.JSONDecodeError as error:
        raise PostmortemError(
            f"bundle {path} is not valid JSON: {error}"
        ) from error
    if not isinstance(bundle, dict):
        raise PostmortemError(f"bundle {path} must be a JSON object")
    bundle.setdefault("_path", str(path))
    return bundle


def validate_postmortem(bundle: Any) -> list[str]:
    """Structurally validate a ``repro.postmortem/1`` bundle.

    Returns a list of problems (empty when clean): the shared report
    envelope, the failure record, the ring section (every stream
    present, within capacity, with consistent recorded/dropped counts),
    and — when present — the replayable job context's shape.
    """
    from .export import validate_bench_report

    problems = validate_bench_report(bundle, POSTMORTEM_SCHEMA)
    if problems:
        return problems

    failure = bundle.get("failure")
    if not isinstance(failure, dict) or not failure.get("reason"):
        problems.append("'failure' must be an object with a 'reason'")
    elif not isinstance(failure.get("events"), list):
        problems.append("'failure.events' must be a list")

    rings = bundle.get("rings")
    if not isinstance(rings, dict):
        problems.append("'rings' must be an object")
        return problems
    capacity = rings.get("capacity")
    if not isinstance(capacity, int) or capacity < 1:
        problems.append("'rings.capacity' must be a positive int")
        capacity = None
    streams = rings.get("streams")
    recorded = rings.get("recorded")
    dropped = rings.get("dropped")
    if not isinstance(streams, dict):
        problems.append("'rings.streams' must be an object")
        return problems
    for stream in RECORDER_STREAMS:
        ring = streams.get(stream)
        if not isinstance(ring, list):
            problems.append(f"'rings.streams.{stream}' must be a list")
            continue
        if capacity is not None and len(ring) > capacity:
            problems.append(
                f"'rings.streams.{stream}' holds {len(ring)} records, "
                f"over the declared capacity {capacity}"
            )
        total = (recorded or {}).get(stream)
        lost = (dropped or {}).get(stream)
        if not isinstance(total, int) or not isinstance(lost, int):
            problems.append(
                f"'rings' must count recorded/dropped for {stream!r}"
            )
        elif total != len(ring) + lost:
            problems.append(
                f"stream {stream!r}: recorded={total} != "
                f"kept={len(ring)} + dropped={lost}"
            )

    job = bundle.get("job")
    if job is not None:
        if not isinstance(job, dict):
            problems.append("'job' must be an object or null")
        else:
            if not isinstance(job.get("backend"), str):
                problems.append("'job.backend' must be a string")
            seed = job.get("seed")
            if (
                not isinstance(seed, dict)
                or seed.get("kind") not in ("int", "state")
            ):
                problems.append(
                    "'job.seed' must be {kind: 'int'|'state', ...}"
                )

    dataset = bundle.get("dataset")
    if dataset is not None:
        if not isinstance(dataset, dict) or not dataset.get("fingerprint"):
            problems.append(
                "'dataset' must be an object with a 'fingerprint'"
            )

    schedule = bundle.get("fault_schedule")
    if schedule is not None:
        if (
            not isinstance(schedule, dict)
            or not isinstance(schedule.get("specs"), list)
            or not isinstance(schedule.get("seed"), int)
        ):
            problems.append(
                "'fault_schedule' must be {specs: [...], seed: int} or null"
            )
    return problems


# ----------------------------------------------------------------------
# Result digests (the "solo bits")
# ----------------------------------------------------------------------
def result_digest(result: Any) -> str:
    """Canonical digest of a clustering result's deterministic bits.

    Covers labels, medoids, per-cluster subspaces, cost, refined cost,
    and iteration count — the quantities the determinism contract
    compares.  Two runs are bit-identical iff their digests match.
    """
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(result.labels).tobytes())
    hasher.update(np.ascontiguousarray(result.medoids).tobytes())
    hasher.update(repr(tuple(tuple(d) for d in result.dimensions)).encode())
    hasher.update(
        f"{result.cost!r}|{result.refined_cost!r}|{result.iterations}".encode()
    )
    return hasher.hexdigest()


def comparable_events(events: "list[dict[str, Any]]") -> list[dict[str, Any]]:
    """Resilience events with wall-clock fields zeroed (replay contract)."""
    cleaned = []
    for event in events:
        record = dict(event)
        for field in WALL_CLOCK_EVENT_FIELDS:
            record[field] = 0.0
        record.pop("corr", None)
        cleaned.append(record)
    return cleaned


# ----------------------------------------------------------------------
# Forensic analysis
# ----------------------------------------------------------------------
def _device_of(site: str) -> "str | None":
    tag = site.rsplit("@", 1)[-1] if "@" in site else ""
    return tag if tag.startswith("dev") else None


def _straggler_analysis(
    collectives: "list[dict[str, Any]]",
) -> "dict[str, Any] | None":
    """Per-device collective wait totals; names the straggler.

    In the barrier model every non-straggler shard *waits* for the
    slowest one, so the device with the **least** recorded wait is the
    straggler — it made everyone else wait.
    """
    waits: dict[str, float] = {}
    steps: dict[str, int] = {}
    for event in collectives:
        device = _device_of(str(event.get("name", "")))
        if device is None:
            continue
        waits[device] = waits.get(device, 0.0) + float(
            event.get("duration", 0.0)
        )
        steps[device] = steps.get(device, 0) + 1
    if len(waits) < 2:
        return None
    straggler = min(waits, key=lambda device: (waits[device], device))
    return {
        "wait_seconds": {
            device: waits[device] for device in sorted(waits)
        },
        "steps": {device: steps[device] for device in sorted(steps)},
        "straggler": straggler,
    }


def _counter_triage(counters: "list[dict[str, Any]]") -> list[str]:
    """Triage lines over the ring's final counter values.

    Reuses the ``obs.explain`` movers machinery: the ring's last sample
    per track against a zero baseline names the counters that moved
    most by the time of the failure.
    """
    from .explain.diff import triage_lines, triage_record

    final: dict[str, float] = {}
    for sample in counters:
        track = str(sample.get("track", ""))
        if track:
            final[track] = float(sample.get("value", 0.0))
    if not final:
        return []
    triage = triage_record({"counters": {}}, {"counters": final})
    return triage_lines(triage)


def analyze_bundle(bundle: dict[str, Any]) -> dict[str, Any]:
    """Forensic report (``repro.postmortem_report/1``) for one bundle.

    Reconstructs the failure story from the rings: the failure record,
    the suspect fault injection / kernel / device, the resilience trail
    (what recovery was attempted before the run died), counter triage,
    collective straggler analysis, and the health snapshot's failing
    SLOs.
    """
    from .export import report_envelope

    problems = validate_postmortem(bundle)
    if problems:
        raise PostmortemError(
            "bundle failed validation: " + "; ".join(problems)
        )
    streams = bundle["rings"]["streams"]
    failure = bundle["failure"]

    suspects: dict[str, Any] = {}
    faults = streams.get("faults", [])
    if faults:
        last = faults[-1]
        suspects["fault"] = {
            "kind": last.get("kind"),
            "site": last.get("site"),
            "operation": last.get("operation"),
            "spec": last.get("spec"),
        }
        device = _device_of(str(last.get("site", "")))
        if device is not None:
            suspects["device"] = device
    kernels = streams.get("kernels", [])
    if kernels:
        last = kernels[-1]
        suspects["kernel"] = {
            "name": last.get("name"),
            "pipeline": last.get("pipeline"),
            "phase": last.get("phase"),
        }
    for event in reversed(streams.get("serve", [])):
        if event.get("kind") == "device_down":
            suspects.setdefault("device", event.get("detail"))
            break

    trail = [
        {
            "kind": event.get("kind"),
            "rung": event.get("rung"),
            "to_rung": event.get("to_rung"),
            "error_type": event.get("error_type"),
            "detail": event.get("detail"),
        }
        for event in streams.get("resilience", [])
    ]

    health = bundle.get("health")
    failing_slos: list[str] = []
    if isinstance(health, dict):
        for slo in health.get("slos", []) or []:
            if isinstance(slo, dict) and not slo.get("ok", True):
                failing_slos.append(str(slo.get("name")))

    return {
        **report_envelope(POSTMORTEM_REPORT_SCHEMA),
        "bundle": bundle.get("_path", ""),
        "reason": failure.get("reason", ""),
        "failure": {
            "error_type": failure.get("error_type", ""),
            "last_error_type": failure.get("last_error_type", ""),
            "message": failure.get("message", ""),
            "detail": failure.get("detail", ""),
        },
        "suspects": suspects,
        "resilience_trail": trail,
        "counter_triage": _counter_triage(streams.get("counters", [])),
        "stragglers": _straggler_analysis(streams.get("collectives", [])),
        "failing_slos": failing_slos,
        "dropped": dict(bundle["rings"].get("dropped", {})),
        "replayable": bool(
            bundle.get("job")
            and (bundle.get("dataset") or {}).get("data_b64")
        ),
    }


# ----------------------------------------------------------------------
# Deterministic replay
# ----------------------------------------------------------------------
def _rebuild_dataset(bundle: dict[str, Any]) -> np.ndarray:
    dataset = bundle.get("dataset")
    if not isinstance(dataset, dict):
        raise PostmortemError("bundle has no dataset section to replay")
    payload = dataset.get("data_b64")
    if not payload:
        raise PostmortemError(
            "dataset payload was not embedded (over the size cap); "
            f"replay needs the original data with fingerprint "
            f"{dataset.get('fingerprint', '?')[:12]}"
        )
    try:
        array = np.frombuffer(
            base64.b64decode(payload), dtype=np.dtype(dataset["dtype"])
        ).reshape(tuple(dataset["shape"]))
    except (ValueError, TypeError, KeyError) as error:
        raise PostmortemError(
            f"embedded dataset payload is corrupt: {error}"
        ) from error
    from ..data.fingerprint import dataset_fingerprint

    actual = dataset_fingerprint(array)
    if actual != dataset["fingerprint"]:
        raise PostmortemError(
            f"embedded dataset fingerprint mismatch: bundle says "
            f"{dataset['fingerprint'][:12]}, payload hashes to {actual[:12]}"
        )
    return array


def _rebuild_seed(job: dict[str, Any]) -> Any:
    from ..rng import RandomSource

    seed = job.get("seed") or {"kind": "int", "value": 0}
    if seed.get("kind") == "state":
        return RandomSource.from_state(seed["state"])
    return seed.get("value")


def _rebuild_policy(job: dict[str, Any]) -> Any:
    from ..resilience.policy import RetryPolicy

    policy = job.get("policy")
    if not policy:
        return RetryPolicy()
    return RetryPolicy(
        max_retries=int(policy.get("max_retries", 3)),
        backoff_base=float(policy.get("backoff_base", 0.0)),
        allow_degraded=bool(policy.get("allow_degraded", True)),
        max_reshards=policy.get("max_reshards"),
    )


def _rebuild_engine_kwargs(job: dict[str, Any]) -> dict[str, Any]:
    from ..fleet import Fleet
    from ..hardware.specs import GTX_1660_TI, RTX_3090

    by_name = {spec.name: spec for spec in (GTX_1660_TI, RTX_3090)}

    def resolve_spec(name: str) -> Any:
        if name not in by_name:
            raise PostmortemError(
                f"bundle references unknown GPU spec {name!r}"
            )
        return by_name[name]

    rebuilt: dict[str, Any] = {}
    for key, value in (job.get("engine_kwargs") or {}).items():
        if isinstance(value, dict) and "fleet_specs" in value:
            rebuilt[key] = Fleet(
                specs=tuple(
                    resolve_spec(name) for name in value["fleet_specs"]
                )
            )
        elif isinstance(value, dict) and "gpu_spec" in value:
            rebuilt[key] = resolve_spec(value["gpu_spec"])
        elif isinstance(value, dict) and "unserializable" in value:
            continue  # dropped at record time; nothing to rebuild
        else:
            rebuilt[key] = value
    return rebuilt


def replay_bundle(bundle: dict[str, Any]) -> dict[str, Any]:
    """Re-execute the recorded job from the bundle alone; compare.

    Rebuilds the dataset, parameters, seed/RNG state, retry policy,
    engine kwargs, and fault schedule, then runs the resilient runner
    exactly as the crashed process did.  The verdict:

    * failure recorded **with** an error class — replay must raise the
      same exception type (and, for exhaustion, the same last error
      class) with a bit-identical resilience event log, modulo the
      wall-clock fields in :data:`WALL_CLOCK_EVENT_FIELDS`;
    * failure recorded **without** one (determinism / chaos-contract
      violations) — replay must complete and its result digest must
      equal the bundle's recorded reference digest (the solo bits).

    Returns a plain-data report; ``reproduced`` is the verdict.
    """
    from ..params import ProclusParams
    from ..resilience.faults import FaultInjector
    from ..resilience.runner import ResilientRunner

    problems = validate_postmortem(bundle)
    if problems:
        raise PostmortemError(
            "bundle failed validation: " + "; ".join(problems)
        )
    job = bundle.get("job")
    if not job:
        raise PostmortemError(
            "bundle has no replayable job context (the recorder never "
            "saw a fit; nothing to re-execute)"
        )
    data = _rebuild_dataset(bundle)
    params = (
        ProclusParams(**job["params"]) if job.get("params") else None
    )
    seed = _rebuild_seed(job)
    policy = _rebuild_policy(job)
    engine_kwargs = _rebuild_engine_kwargs(job)
    schedule = bundle.get("fault_schedule")
    injector = (
        FaultInjector(
            tuple(schedule["specs"]), seed=int(schedule["seed"])
        )
        if schedule and schedule.get("specs")
        else None
    )

    failure = bundle["failure"]
    expected_type = failure.get("error_type", "")
    expected_last = failure.get("last_error_type", "")
    expected_events = comparable_events(failure.get("events", []))

    report: dict[str, Any] = {
        "backend": job.get("backend", ""),
        "faults": list((schedule or {}).get("specs", [])),
        "expected_error_type": expected_type,
        "expected_last_error_type": expected_last,
        "observed_error_type": "",
        "observed_last_error_type": "",
        "events_match": None,
        "digest_match": None,
        "reference_digest": bundle.get("reference_digest"),
        "observed_digest": None,
        "reproduced": False,
        "detail": "",
    }

    runner = ResilientRunner(policy)
    error: "BaseException | None" = None
    outcome = None
    try:
        with use_run(injector=injector):
            outcome = runner.fit(
                data,
                backend=job.get("backend", "gpu-fast"),
                params=params,
                seed=seed,
                engine_kwargs=engine_kwargs,
            )
    except Exception as raised:  # noqa: BLE001 - verdict, not control flow
        error = raised

    if expected_type:
        if error is None:
            report["detail"] = (
                f"expected {expected_type} but the replay completed"
            )
            return report
        report["observed_error_type"] = type(error).__name__
        last = getattr(error, "last_error", None)
        report["observed_last_error_type"] = (
            type(last).__name__ if last is not None else ""
        )
        observed_events = comparable_events(
            [
                event.as_dict() if hasattr(event, "as_dict") else dict(event)
                for event in (getattr(error, "events", None) or [])
            ]
        )
        report["events_match"] = observed_events == expected_events
        report["reproduced"] = (
            report["observed_error_type"] == expected_type
            and report["observed_last_error_type"] == expected_last
            and bool(report["events_match"])
        )
        if not report["reproduced"]:
            report["detail"] = (
                f"replay raised {report['observed_error_type']}"
                f"(last={report['observed_last_error_type']}) with "
                f"{len(observed_events)} resilience events; recorded "
                f"{expected_type}(last={expected_last}) with "
                f"{len(expected_events)}"
            )
        return report

    # No recorded error class: the failure was a divergence (determinism
    # or chaos-contract violation).  Replay the run and compare digests.
    if error is not None:
        report["observed_error_type"] = type(error).__name__
        report["detail"] = (
            f"expected a completed run but the replay raised "
            f"{type(error).__name__}: {error}"
        )
        return report
    digest = result_digest(outcome.result)
    report["observed_digest"] = digest
    reference = bundle.get("reference_digest")
    if not reference:
        report["detail"] = (
            "bundle records neither an error class nor a reference "
            "digest; nothing to verify against"
        )
        return report
    report["digest_match"] = digest == reference
    report["reproduced"] = bool(report["digest_match"])
    if not report["reproduced"]:
        report["detail"] = (
            f"replay digest {digest[:12]} != recorded reference "
            f"{reference[:12]}"
        )
    return report
