"""SLO monitoring: fixed objectives, structured logs, health files.

PR 2 gave the repository raw telemetry; this module turns the serving
layer's telemetry into *judgment*.  Three pieces:

* :class:`SloObjective` / :data:`SLOS` — the service level objectives
  (p95 queued latency, admission-rejection rate, a hard zero on
  determinism violations, error-budget burn, fleet recovery time and
  availability), each over a sliding 60 s window;
* :class:`SloTracker` — consumes the service's
  :class:`~repro.serve.events.ServeEvent` stream and evaluates every
  objective against it;
* :class:`ServiceMonitor` — the on-disk side: one structured JSON log
  record per event (carrying the tracer's trace/span ids for
  correlation), periodic metric snapshots, the latest Prometheus
  scrape (``metrics.prom``), and a ``health.json`` report consumed by
  ``repro monitor``.

The monitor directory layout::

    monitor/
      events.jsonl     one JSON record per service event
      events.jsonl.1   rotated segment (1 = most recently rotated)
      snapshots.jsonl  periodic metric snapshots
      snapshots.jsonl.1  ...
      metrics.prom     latest Prometheus text-format scrape
      health.json      latest SLO health report (repro.health/1)

Both JSONL logs rotate under a total size cap (:data:`MAX_LOG_BYTES`
across :data:`LOG_SEGMENTS` numbered segments, oldest deleted first),
so a long-running service never grows the directory without bound;
:func:`read_monitor_events` reads rotated segments transparently.
"""

from __future__ import annotations

import json
import math
import threading
import uuid
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .export import report_envelope
from .metrics import MetricsRegistry
from .prometheus import prometheus_text

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..serve.events import ServeEvent

__all__ = [
    "HEALTH_SCHEMA",
    "MONITOR_EVENT_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "SLOS",
    "ERROR_BUDGET",
    "SNAPSHOT_EVERY_S",
    "MAX_LOG_BYTES",
    "LOG_SEGMENTS",
    "SloObjective",
    "SloResult",
    "SloReport",
    "SloTracker",
    "ServiceMonitor",
    "load_health",
    "read_monitor_events",
]

#: Health report schema identifier (bump on incompatible changes).
HEALTH_SCHEMA = "repro.health/1"
#: Structured per-event log record schema.
MONITOR_EVENT_SCHEMA = "repro.monitor_event/1"
#: Periodic metric snapshot record schema.
SNAPSHOT_SCHEMA = "repro.monitor_snapshot/1"

#: Failure rate over the window that burns the error budget at rate 1.
ERROR_BUDGET = 0.01
#: Event-stream seconds between two periodic snapshots.
SNAPSHOT_EVERY_S = 1.0
#: Total bytes each JSONL log keeps, split evenly over
#: :data:`LOG_SEGMENTS` segments (the active file plus rotations).
MAX_LOG_BYTES = 4 << 20
LOG_SEGMENTS = 4


@dataclass(frozen=True, slots=True)
class SloObjective:
    """One objective: ``metric op threshold``.

    ``op`` is ``"<="`` (budget-style objectives), ``">="``
    (floor-style objectives like fleet availability), or ``"=="``
    (hard invariants like the determinism-violation count).  Rate
    metrics are evaluated over the trailing ``window_seconds`` of the
    event stream.
    """

    name: str
    metric: str
    op: str
    threshold: float
    description: str = ""
    window_seconds: float = 60.0

    def met(self, value: float) -> bool:
        if self.op == "==":
            return value == self.threshold
        if self.op == ">=":
            return value >= self.threshold
        return value <= self.threshold


@dataclass(frozen=True, slots=True)
class SloResult:
    """One evaluated objective."""

    objective: SloObjective
    value: float
    ok: bool

    def as_dict(self) -> dict[str, Any]:
        obj = self.objective
        return {
            "name": obj.name,
            "metric": obj.metric,
            "op": obj.op,
            "threshold": obj.threshold,
            "window_seconds": obj.window_seconds,
            "description": obj.description,
            "value": self.value,
            "ok": self.ok,
        }


@dataclass(frozen=True, slots=True)
class SloReport:
    """Every objective evaluated at one instant."""

    now: float
    results: tuple[SloResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def as_dict(self) -> dict[str, Any]:
        return {
            "now": self.now,
            "ok": self.ok,
            "slos": [result.as_dict() for result in self.results],
        }


#: The service's objectives, in report order (``docs/observability.md``).
SLOS: tuple[SloObjective, ...] = (
    SloObjective(
        name="queued-latency-p95",
        metric="queued_latency_p95_seconds",
        op="<=",
        threshold=0.5,
        description="p95 seconds a job waits between submit and start",
    ),
    SloObjective(
        name="rejection-rate",
        metric="rejection_rate",
        op="<=",
        threshold=0.1,
        description="fraction of submissions refused by admission control",
    ),
    SloObjective(
        name="determinism-violations",
        metric="determinism_violations",
        op="==",
        threshold=0.0,
        description="served responses differing from their solo reference",
    ),
    SloObjective(
        name="error-budget-burn",
        metric="error_budget_burn",
        op="<=",
        threshold=1.0,
        description="failure rate over the window divided by the budget",
    ),
    SloObjective(
        name="fleet-mttr",
        metric="fleet_mttr_seconds",
        op="<=",
        threshold=60.0,
        description="mean seconds to recover a lost fleet member",
    ),
    SloObjective(
        name="fleet-availability",
        metric="fleet_availability",
        op=">=",
        threshold=0.5,
        description="fraction of known fleet members currently serving",
    ),
)


def _event_dict(event: "ServeEvent | dict") -> dict[str, Any]:
    return event.as_dict() if hasattr(event, "as_dict") else dict(event)


class SloTracker:
    """Evaluates :data:`SLOS` against a live serve-event stream.

    Feed every :class:`~repro.serve.events.ServeEvent` (or its
    ``as_dict()`` form) to :meth:`observe`; determinism violations are
    detected outside the service (the loadgen oracle) and arrive via
    :meth:`record_violations`.  :meth:`evaluate` computes each
    objective's metric over its trailing window and returns an
    :class:`SloReport`.  Thread-safe.

    Samples older than the longest objective window, counted back from
    the latest observed ``ts``, are dropped as new ones arrive, so a
    long-lived service holds one window of samples, not its history.
    """

    def __init__(self) -> None:
        #: Seconds of samples kept behind the latest ``ts``.
        self._horizon = max(objective.window_seconds for objective in SLOS)
        self._lock = threading.Lock()
        self._last_ts = 0.0
        self._submit_ts: dict[int, float] = {}
        #: (ts, seconds waited in the queue), one per started/shortcut job.
        self._queued: deque[tuple[float, float]] = deque()
        self._submits: deque[float] = deque()
        self._rejects: deque[float] = deque()
        #: (ts, succeeded) per terminal outcome (complete/fail).
        self._outcomes: deque[tuple[float, bool]] = deque()
        self._violations = 0.0
        #: Every device tag ever named in a device_* event.
        self._devices: set[str] = set()
        #: Currently-down device tag -> ts it went down.
        self._down_since: dict[str, float] = {}
        #: (ts, seconds-to-recover) per recovery (event- or direct-fed).
        self._recoveries: deque[tuple[float, float]] = deque()

    def _trim(self) -> None:
        """Drop samples older than the horizon behind the latest ``ts``."""
        cutoff = self._last_ts - self._horizon
        for stamps in (self._submits, self._rejects):
            while stamps and stamps[0] < cutoff:
                stamps.popleft()
        for samples in (self._queued, self._outcomes, self._recoveries):
            while samples and samples[0][0] < cutoff:
                samples.popleft()

    def observe(self, event: "ServeEvent | dict") -> None:
        record = _event_dict(event)
        kind = record["kind"]
        ts = float(record["ts"])
        job_id = int(record.get("job_id", -1))
        with self._lock:
            self._last_ts = max(self._last_ts, ts)
            if kind == "submit":
                self._submits.append(ts)
                self._submit_ts[job_id] = ts
            elif kind in ("cache_hit", "dedupe"):
                # Answered (or attached) without waiting for a start.
                submitted = self._submit_ts.pop(job_id, ts)
                self._queued.append((ts, max(0.0, ts - submitted)))
            elif kind == "start":
                submitted = self._submit_ts.pop(job_id, ts)
                self._queued.append((ts, max(0.0, ts - submitted)))
            elif kind == "reject":
                self._submit_ts.pop(job_id, None)
                self._rejects.append(ts)
            elif kind == "complete":
                self._outcomes.append((ts, True))
            elif kind == "fail":
                self._outcomes.append((ts, False))
            elif kind == "device_down":
                device = str(record.get("detail", "")) or "device"
                self._devices.add(device)
                self._down_since.setdefault(device, ts)
            elif kind == "device_recovered":
                device = str(record.get("detail", "")) or "device"
                self._devices.add(device)
                went_down = self._down_since.pop(device, None)
                if went_down is not None:
                    self._recoveries.append((ts, max(0.0, ts - went_down)))
            self._trim()

    def record_violations(self, count: int = 1) -> None:
        """Register determinism violations found by an external oracle."""
        with self._lock:
            self._violations += count

    def record_recovery(self, seconds: float, now: float | None = None) -> None:
        """Register one fleet recovery measured outside the event stream
        (e.g. a :class:`~repro.resilience.runner.ResilientRunner`
        re-shard's ``recovery_s``)."""
        with self._lock:
            ts = now if now is not None else self._last_ts
            self._last_ts = max(self._last_ts, ts)
            self._recoveries.append((ts, max(0.0, float(seconds))))
            self._trim()

    def set_devices(self, tags: Sequence[str]) -> None:
        """Declare the fleet-member universe availability is judged over.

        Without this, the tracker only learns members from ``device_*``
        events, so the first loss would read as 0% availability no
        matter how many healthy members remain.
        """
        with self._lock:
            self._devices.update(str(tag) for tag in tags)

    def metric_value(self, metric: str, window: float, now: float) -> float:
        """Compute one metric over ``[now - window, now]``.

        The tracker keeps only the samples of its longest objective
        window before the latest observed ``ts``: a longer ``window``,
        or an earlier ``now``, sees only that much history.
        """
        cutoff = now - window
        if metric == "queued_latency_p95_seconds":
            waits = [w for ts, w in self._queued if ts >= cutoff]
            return float(np.percentile(waits, 95)) if waits else 0.0
        if metric == "rejection_rate":
            submits = sum(1 for ts in self._submits if ts >= cutoff)
            rejects = sum(1 for ts in self._rejects if ts >= cutoff)
            return rejects / submits if submits else 0.0
        if metric == "determinism_violations":
            return self._violations
        if metric == "error_budget_burn":
            outcomes = [ok for ts, ok in self._outcomes if ts >= cutoff]
            if not outcomes:
                return 0.0
            failure_rate = sum(1 for ok in outcomes if not ok) / len(outcomes)
            return failure_rate / ERROR_BUDGET
        if metric == "fleet_mttr_seconds":
            recoveries = [r for ts, r in self._recoveries if ts >= cutoff]
            return sum(recoveries) / len(recoveries) if recoveries else 0.0
        if metric == "fleet_availability":
            # 1.0 until a device_* event names any member (no fleet =
            # nothing can be unavailable).
            if not self._devices:
                return 1.0
            up = len(self._devices) - len(self._down_since)
            return up / len(self._devices)
        raise ValueError(f"unknown SLO metric {metric!r}")

    def evaluate(self, now: float | None = None) -> SloReport:
        """Evaluate every objective at ``now`` (default: last event ts)."""
        with self._lock:
            at = now if now is not None else self._last_ts
            results = []
            for objective in SLOS:
                value = self.metric_value(
                    objective.metric, objective.window_seconds, at
                )
                results.append(
                    SloResult(
                        objective=objective,
                        value=value,
                        ok=objective.met(value),
                    )
                )
        return SloReport(now=at, results=tuple(results))


class ServiceMonitor:
    """Writes structured logs, metric snapshots, and health reports.

    One instance belongs to one :class:`~repro.serve.service.ClusterService`
    (which forwards every event); it can also be driven manually in
    tests.  All writes are serialized by an internal lock; the scrape
    and health files are replaced atomically so a concurrent reader
    never sees a torn file.

    Each JSONL log keeps at most :data:`MAX_LOG_BYTES` as
    :data:`LOG_SEGMENTS` size-capped segments (the active file plus
    numbered rotations, ``.1`` newest), and rotating past the last
    segment deletes the oldest — so a long loadgen run's directory
    stays bounded.  ``on_unhealthy``, when set to a callable, is
    invoked (outside the write lock) with every health report whose
    ``ok`` is false — the service uses it to trigger postmortem dumps
    on SLO breaches.
    """

    #: Names of the rotating JSONL logs the monitor appends to.
    _LOGS = ("events.jsonl", "snapshots.jsonl")

    def __init__(
        self, directory: str | Path, metrics: MetricsRegistry | None = None
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slo = SloTracker()
        #: Per-segment byte budget (one segment of the total cap).
        self._segment_bytes = MAX_LOG_BYTES // LOG_SEGMENTS
        #: Callback for unhealthy health reports (``None`` = disabled).
        self.on_unhealthy = None
        #: Correlates every log record of this service lifetime.
        self.trace_id = uuid.uuid4().hex[:16]
        self._lock = threading.Lock()
        self._events = 0
        self._last_snapshot = -math.inf
        self._log_sizes = dict.fromkeys(self._LOGS, 0)
        # Truncate leftovers (including rotated segments) from a
        # previous lifetime in the same directory.
        for name in self._LOGS:
            (self.directory / name).write_text("")
            for segment in self.directory.glob(f"{name}.*"):
                if segment.suffix.lstrip(".").isdigit():
                    segment.unlink()

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def on_event(self, event: "ServeEvent | dict") -> None:
        """Log one event and fold it into the SLO tracker."""
        record = _event_dict(event)
        self.slo.observe(record)
        line = json.dumps(
            {
                "schema": MONITOR_EVENT_SCHEMA,
                "trace_id": self.trace_id,
                **record,
            }
        )
        with self._lock:
            self._events += 1
            self._append("events.jsonl", line)
        self.maybe_snapshot(float(record["ts"]))

    def _append(self, name: str, line: str) -> None:
        """Append one record to a rotating log (caller holds the lock)."""
        payload = line + "\n"
        if (
            self._log_sizes[name]
            and self._log_sizes[name] + len(payload) > self._segment_bytes
        ):
            self._rotate(name)
        with open(self.directory / name, "a") as handle:
            handle.write(payload)
        self._log_sizes[name] += len(payload)

    def _rotate(self, name: str) -> None:
        """Shift segments up one slot; the oldest falls off the end."""
        (self.directory / f"{name}.{LOG_SEGMENTS - 1}").unlink(missing_ok=True)
        for index in range(LOG_SEGMENTS - 2, 0, -1):
            segment = self.directory / f"{name}.{index}"
            if segment.exists():
                segment.rename(self.directory / f"{name}.{index + 1}")
        (self.directory / name).rename(self.directory / f"{name}.1")
        self._log_sizes[name] = 0

    # ------------------------------------------------------------------
    # Snapshots and health
    # ------------------------------------------------------------------
    def maybe_snapshot(self, now: float) -> bool:
        """Snapshot if at least :data:`SNAPSHOT_EVERY_S` seconds have passed."""
        with self._lock:
            if now - self._last_snapshot < SNAPSHOT_EVERY_S:
                return False
            self._last_snapshot = now
        self.snapshot(now)
        return True

    def snapshot(self, now: float | None = None, final: bool = False) -> dict:
        """Write the scrape, a snapshot record, and the health report."""
        report = self.health_report(now, final=final)
        snapshot_record = {
            "schema": SNAPSHOT_SCHEMA,
            "trace_id": self.trace_id,
            "ts": report["now"],
            "ok": report["ok"],
            "metrics": self.metrics.as_dict(),
        }
        with self._lock:
            self._atomic_write(
                self.directory / "metrics.prom", prometheus_text(self.metrics)
            )
            self._append("snapshots.jsonl", json.dumps(snapshot_record))
            self._atomic_write(
                self.directory / "health.json",
                json.dumps(report, indent=2) + "\n",
            )
        if not report["ok"] and self.on_unhealthy is not None:
            try:
                self.on_unhealthy(report)
            except Exception:  # noqa: BLE001 - a hook must not kill serving
                pass
        return report

    def health_report(
        self, now: float | None = None, final: bool = False
    ) -> dict:
        """The ``repro.health/1`` report: every SLO plus service state."""
        slo_report = self.slo.evaluate(now)
        counters = self.metrics.as_dict()
        return {
            **report_envelope(HEALTH_SCHEMA),
            "trace_id": self.trace_id,
            "final": final,
            "now": slo_report.now,
            "ok": slo_report.ok,
            "slos": [result.as_dict() for result in slo_report.results],
            "events": self._events,
            "service": {
                "counters": {
                    name: value
                    for name, value in counters["counters"].items()
                    if name.startswith(("serve.", "fleet."))
                },
                "gauges": counters["gauges"],
                "latency_seconds": counters["histograms"].get(
                    "serve.latency_seconds",
                    {"count": 0, "p50": 0.0, "p95": 0.0},
                ),
            },
        }

    def flush(self, now: float | None = None) -> dict:
        """Final snapshot + SLO summary (graceful-shutdown path)."""
        return self.snapshot(now, final=True)

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text)
        tmp.replace(path)


# ----------------------------------------------------------------------
# Reader side
# ----------------------------------------------------------------------
def load_health(directory: str | Path) -> dict:
    """Read the latest ``health.json`` from a monitor directory (what
    ``repro monitor`` renders).

    Raises :class:`FileNotFoundError` when the directory has no health
    report yet (the service has not snapshotted).
    """
    path = Path(directory) / "health.json"
    if not path.exists():
        raise FileNotFoundError(
            f"no health report at {path} (is the monitored service "
            f"running with a monitor directory?)"
        )
    return json.loads(path.read_text())


def read_monitor_events(directory: str | Path) -> list[dict]:
    """Read the structured event log from a monitor directory.

    Transparently includes rotated segments (``events.jsonl.N``),
    oldest first, so callers see one continuous stream regardless of
    how many times the log rotated underneath them.
    """
    directory = Path(directory)
    segments = sorted(
        (
            path
            for path in directory.glob("events.jsonl.*")
            if path.suffix.lstrip(".").isdigit()
        ),
        key=lambda path: int(path.suffix.lstrip(".")),
        reverse=True,  # highest number = oldest segment
    )
    records: list[dict] = []
    for path in [*segments, directory / "events.jsonl"]:
        if not path.exists():
            continue
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return records
