"""Structured serve-event log (the input to the queue timeline view).

Every lifecycle transition of a request — submission, admission or
rejection, dedupe/cache-hit short-circuits, group coalescing, start,
completion, cache eviction — appends one :class:`ServeEvent` carrying
the queue and running depths *at that moment*, so the event stream is a
complete step-function record of service occupancy over time.
:func:`repro.viz.timeline.render_serve_lanes` renders it as ASCII
lanes; the loadgen report embeds it as plain dicts.  A long-lived
service keeps only the latest :data:`MAX_EVENTS` of them.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Iterable

__all__ = ["EVENT_KINDS", "MAX_EVENTS", "ServeEvent", "ServeLog"]

#: Events a :class:`ServeLog` keeps: the latest ~1,800 requests at
#: about 4.4 events each; older events are dropped first.
MAX_EVENTS = 8192

#: Every event kind the service emits, in rough lifecycle order.
EVENT_KINDS = (
    "submit",      #: request arrived
    "cache_hit",   #: answered immediately from the result cache
    "dedupe",      #: attached to an identical queued job
    "reject",      #: admission control refused it (detail = reason)
    "admit",       #: enqueued
    "coalesce",    #: a group of queued jobs merged (detail = group size)
    "start",       #: job began executing
    "complete",    #: job finished successfully
    "fail",        #: job raised
    "evict",       #: result cache evicted an entry (LRU)
    "device_down",       #: a fleet member was lost/quarantined (detail = tag)
    "device_recovered",  #: a fleet member was readmitted (detail = tag)
)


@dataclass(slots=True)
class ServeEvent:
    """One service lifecycle event with occupancy depths at its time."""

    ts: float  #: service clock (seconds since the service started)
    kind: str  #: one of :data:`EVENT_KINDS`
    job_id: int = -1
    fingerprint: str = ""
    backend: str = ""
    k: int = 0
    l: int = 0
    queued: int = 0  #: queue depth immediately after the event
    running: int = 0  #: jobs executing immediately after the event
    detail: str = ""
    span_id: int | None = None  #: tracer span id for log correlation

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form for JSON reports."""
        return asdict(self)


class ServeLog:
    """Thread-safe log of the latest :data:`MAX_EVENTS` :class:`ServeEvent`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: deque[ServeEvent] = deque(maxlen=MAX_EVENTS)

    def record(self, event: ServeEvent) -> None:
        with self._lock:
            self._events.append(event)

    def snapshot(self) -> list[ServeEvent]:
        """A copy of the events recorded so far."""
        with self._lock:
            return list(self._events)

    def as_dicts(self) -> list[dict[str, Any]]:
        """Plain-data snapshot for JSON reports."""
        return [event.as_dict() for event in self.snapshot()]

    def kinds(self) -> list[str]:
        """The event kinds in order (handy in tests)."""
        return [event.kind for event in self.snapshot()]

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind."""
        return sum(1 for event in self.snapshot() if event.kind == kind)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> "Iterable[ServeEvent]":
        return iter(self.snapshot())
