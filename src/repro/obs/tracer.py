"""Span-based tracer: the instrumentation spine of the reproduction.

The paper's running-time argument (Section 5.4) is read off profiler
timelines; this module gives the reproduction the same kind of record.
A :class:`Tracer` collects three kinds of data during a run:

* **spans** — nested wall-clock intervals mirroring the host control
  flow (``fit > iterative > iteration > compute_l`` ...).  Every engine
  variant emits the *same* span names and nesting for the same input,
  which the differential tests assert;
* **kernel events** — flat records of simulated kernel launches.  GPU
  engines stamp them on the *modeled device clock* (cumulative modeled
  seconds), the SIMT emulator on the wall clock;
* **counter samples** — time-series values (cache hit-rate, modeled
  bandwidth) sampled on the device clock.

Tracing is opt-in.  A run's tracer comes from its :class:`RunContext`;
the default is a disabled singleton whose :meth:`Tracer.span` returns
a shared no-op context manager, so instrumented code paths cost a few
attribute lookups per span when tracing is off (the micro-benchmark
test bounds this at well under 2 % of an engine run).

Thread model: each thread builds its own span stack (spans record the
opening thread), while the flat event lists are guarded by a lock, so
one tracer can observe a multi-threaded study.

**The run context.**  :class:`RunContext` is everything a run reports
to and is perturbed by: the tracer, the
:class:`~repro.obs.recorder.FlightRecorder`, the
:class:`~repro.resilience.faults.FaultInjector` and the correlation id.
Layers read it with :func:`current_run`; callers install fields with
:func:`use_run` for a ``with`` block, and the other fields stay as they
were.  It lives here, beside the disabled tracer it defaults to, so the
simulated device can read it at module level.  A new thread starts
from the default context.

When the run has a recorder, the *enabled* paths additionally forward
closed spans, kernel events, and counter samples into its bounded
rings, stamped with the run's correlation id (``comm.*`` kernels land
in the collectives ring); the disabled early-return paths are
untouched, so the ≤2 % disabled-overhead bound holds with or without a
recorder.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator

from .metrics import MetricsRegistry

if TYPE_CHECKING:
    from ..resilience.faults import FaultInjector
    from .recorder import FlightRecorder

__all__ = [
    "Span",
    "KernelEvent",
    "CounterSample",
    "Tracer",
    "NULL_TRACER",
    "RunContext",
    "current_run",
    "use_run",
]


@dataclass(slots=True)
class KernelEvent:
    """One simulated kernel launch on a timeline.

    ``clock`` distinguishes the modeled device clock (vectorized GPU
    engines, seconds of modeled GPU time) from the wall clock (the SIMT
    emulator's real Python execution time).
    """

    name: str
    pipeline: str
    phase: str
    start: float
    duration: float
    clock: str = "modeled"
    grid_blocks: int = 0
    threads_per_block: int = 0
    span_id: int | None = None  #: innermost host span open at launch time


@dataclass(slots=True)
class CounterSample:
    """One sample of a counter track (device-clock seconds)."""

    track: str
    ts: float
    value: float


class Span:
    """A named wall-clock interval with attributes, children, and links."""

    __slots__ = (
        "span_id",
        "name",
        "category",
        "start",
        "end",
        "attrs",
        "children",
        "links",
        "thread",
        "_tracer",
    )

    def __init__(
        self, tracer: "Tracer", span_id: int, name: str, category: str,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.category = category
        self.attrs = attrs
        self.children: list["Span"] = []
        self.links: list[int] = []
        self.start = 0.0
        self.end: float | None = None
        self.thread = 0

    # -- context-manager protocol -------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer._close(self)
        return False

    # -- mutation ------------------------------------------------------
    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns ``self``."""
        self.attrs.update(attrs)
        return self

    def link(self, span_id: int | None) -> "Span":
        """Link this span to another span (shared-work provenance)."""
        if span_id is not None:
            self.links.append(span_id)
        return self

    # -- inspection ----------------------------------------------------
    @property
    def duration(self) -> float:
        """Seconds from start to end (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def signature(self) -> tuple:
        """Structure-only view ``(name, (child signatures...))``.

        Two runs with identical control flow produce equal signatures
        regardless of timing or attribute values — the property the
        emulated-vs-vectorized differential test asserts.
        """
        return (self.name, tuple(child.signature() for child in self.children))

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable representation of the subtree."""
        return {
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "links": list(self.links),
            "children": [child.as_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {len(self.children)} children)"


class _NoopSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def link(self, span_id: int | None) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans, kernel events, counter samples, and metrics."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self.roots: list[Span] = []
        self.kernel_events: list[KernelEvent] = []
        self.counter_samples: list[CounterSample] = []
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        #: Largest ``start + duration`` over modeled kernel events.
        self._modeled_end = 0.0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Wall-clock seconds since this tracer was created."""
        return time.perf_counter() - self.epoch

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, category: str = "phase", **attrs: Any):
        """Open a span as a context manager (no-op when disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, span_id, name, category, attrs)

    def _open(self, span: Span) -> None:
        stack = self._stack()
        span.thread = threading.get_ident()
        span.start = self.now()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _close(self, span: Span) -> None:
        span.end = self.now()
        stack = self._stack()
        # Tolerate exceptions unwinding several spans out of order.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        run = _run.get()
        if run.recorder is not None:
            run.recorder.record_span(
                span.name, span.category, span.start, span.duration,
                span.span_id, span.attrs, run.corr,
            )

    def current_span_id(self) -> int | None:
        """Id of the innermost open span on this thread (None outside)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    # ------------------------------------------------------------------
    # Flat events
    # ------------------------------------------------------------------
    def kernel(
        self,
        name: str,
        pipeline: str,
        phase: str,
        start: float,
        duration: float,
        clock: str = "modeled",
        grid_blocks: int = 0,
        threads_per_block: int = 0,
    ) -> None:
        """Record one kernel launch on a timeline."""
        if not self.enabled:
            return
        event = KernelEvent(
            name=name,
            pipeline=pipeline,
            phase=phase,
            start=start,
            duration=duration,
            clock=clock,
            grid_blocks=grid_blocks,
            threads_per_block=threads_per_block,
            span_id=self.current_span_id(),
        )
        with self._lock:
            self.kernel_events.append(event)
            if clock == "modeled":
                self._modeled_end = max(self._modeled_end, start + duration)
        run = _run.get()
        if run.recorder is not None:
            run.recorder.record_kernel(event, run.corr)

    def device_offset(self) -> float:
        """Largest modeled end time recorded so far.

        Each engine's cost model starts its modeled clock at zero; a
        device created mid-trace (e.g. the second setting of a study)
        shifts its events by this offset so successive device timelines
        concatenate instead of overlapping on the pipeline tracks.  Kept
        as a running maximum, so the cost does not grow with the trace.
        """
        with self._lock:
            return self._modeled_end

    def counter(self, track: str, value: float, ts: float) -> None:
        """Record one sample of a counter track (device clock)."""
        if not self.enabled:
            return
        with self._lock:
            self.counter_samples.append(
                CounterSample(track=track, ts=ts, value=float(value))
            )
        run = _run.get()
        if run.recorder is not None:
            run.recorder.record_counter(track, ts, float(value), run.corr)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def all_spans(self) -> list[Span]:
        """Every recorded span, depth-first from each root."""
        return [span for root in self.roots for span in root.walk()]

    def find_spans(self, name: str) -> list[Span]:
        """All spans with the given name."""
        return [span for span in self.all_spans() if span.name == name]


#: Disabled singleton used when no tracer is installed.
NULL_TRACER = Tracer(enabled=False)


@dataclass(frozen=True, slots=True)
class RunContext:
    """What a run reports to and is perturbed by (see the module doc)."""

    tracer: Tracer = NULL_TRACER
    recorder: "FlightRecorder | None" = None
    injector: "FaultInjector | None" = None
    corr: str | None = None  #: correlation id stamped on recorder records


_run: ContextVar[RunContext] = ContextVar("repro_run", default=RunContext())


def current_run() -> RunContext:
    """The context the calling code runs in (the default unless installed)."""
    return _run.get()


@contextmanager
def use_run(**fields: Any) -> Iterator[RunContext]:
    """Install the current context with ``fields`` replaced for a block."""
    token = _run.set(replace(_run.get(), **fields))
    try:
        yield _run.get()
    finally:
        _run.reset(token)
