"""Unified metrics registry: counters, gauges, and histograms.

Before this module existed the repository had three disconnected ways
of counting work: :class:`~repro.hardware.counters.WorkCounter` (raw
operation counts), the per-phase seconds dict on every
:class:`~repro.hardware.cost_model.HardwareModel`, and the
:class:`~repro.hardware.counters.KernelLaunch` list consumed by the
profiler.  The registry absorbs them behind one API — the *adapters*
:meth:`MetricsRegistry.absorb_run_stats` (a run's work counters and
per-phase seconds) and :meth:`MetricsRegistry.absorb_kernel_times`
(per-kernel modeled seconds from a model's cost ledger) translate the
existing structures without requiring their call sites to change.

Instruments are cheap mutable cells; the registry is thread-safe for
instrument creation (value updates are per-instrument and assumed
single-writer, which holds for the engine-per-thread usage pattern).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ..hardware.cost_model import HardwareModel
    from ..result import RunStats

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: Default histogram bucket upper bounds (seconds-flavoured, 1-2.5-5 per
#: decade).  Modeled kernel times live in the microsecond decades and
#: service latencies in the millisecond-to-second decades, so the range
#: spans both; values above the last bound land in the +Inf bucket.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    float(f"{mantissa}e{exponent}")
    for exponent in range(-6, 2)
    for mantissa in (1, 2.5, 5)
)


class Counter:
    """A monotonically increasing value (e.g. flops, bytes, launches)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins value (e.g. current cache hit-rate)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary of observed values with fixed buckets.

    Tracks count/total/min/max exactly plus a per-bucket count over
    the :data:`DEFAULT_BUCKETS` upper bounds (Prometheus ``le``
    semantics: a value lands in the first bucket whose bound is >= it;
    values above every bound land in the implicit +Inf overflow
    bucket).  :meth:`percentile` interpolates within buckets, clamped
    to the exact observed ``[min, max]`` — so an empty histogram
    reports 0, and a single sample or all-equal samples report the
    exact value.
    """

    __slots__ = ("count", "total", "min", "max", "bucket_counts")

    #: Upper bounds of the finite buckets, ascending.
    buckets = DEFAULT_BUCKETS

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: Per-bucket (non-cumulative) counts; last slot is +Inf overflow.
        self.bucket_counts = [0] * (len(DEFAULT_BUCKETS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``).

        Exact when the histogram is empty (0), has one sample, or all
        samples are equal; otherwise linearly interpolated inside the
        bucket containing the target rank and clamped to ``[min, max]``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return 0.0
        if self.min == self.max:
            return self.min
        target = q / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            lower = self.buckets[index - 1] if index > 0 else self.min
            upper = (
                self.buckets[index] if index < len(self.buckets) else self.max
            )
            if cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                value = lower + fraction * (upper - lower)
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def bucket_pairs(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending with +Inf."""
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self.bucket_counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), cumulative + self.bucket_counts[-1]))
        return pairs

    def as_dict(self) -> dict[str, float]:
        if not self.count:
            return {
                "count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0,
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        with self._lock:
            return self._histograms.setdefault(name, Histogram())

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def sorted_counters(self) -> list[tuple[str, Counter]]:
        """Snapshot of ``(name, counter)`` pairs in name order."""
        with self._lock:
            return sorted(self._counters.items())

    def sorted_gauges(self) -> list[tuple[str, Gauge]]:
        """Snapshot of ``(name, gauge)`` pairs in name order."""
        with self._lock:
            return sorted(self._gauges.items())

    def sorted_histograms(self) -> list[tuple[str, Histogram]]:
        """Snapshot of ``(name, histogram)`` pairs in name order."""
        with self._lock:
            return sorted(self._histograms.items())

    # ------------------------------------------------------------------
    # Adapters for the pre-existing accounting structures
    # ------------------------------------------------------------------
    def absorb_phase_seconds(self, phase_seconds: Mapping[str, float]) -> None:
        """Fold a per-phase seconds mapping into ``phase_seconds.*`` counters."""
        for phase, seconds in phase_seconds.items():
            self.counter(f"phase_seconds.{phase}").inc(seconds)

    def absorb_run_stats(self, stats: "RunStats") -> None:
        """Absorb one run's counters and phase seconds."""
        for name, value in stats.counters.items():
            self.counter(name).inc(value)
        self.absorb_phase_seconds(stats.phase_seconds)
        self.counter("runs").inc(1)
        self.counter("iterations").inc(stats.iterations)
        self.histogram("run.modeled_seconds").observe(stats.modeled_seconds)
        self.histogram("run.wall_seconds").observe(stats.wall_seconds)

    def absorb_kernel_times(self, model: "HardwareModel") -> None:
        """Record per-kernel modeled durations from a model's cost ledger.

        Reads the ``kernel`` events, so it is a no-op for models that
        ledger none (CPU models, fleet models).
        """
        for event in getattr(model, "events", ()):
            if event.kind == "kernel":
                self.histogram(f"kernel.{event.name}.seconds").observe(
                    event.seconds
                )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, dict]:
        """Plain-data snapshot (JSON-serializable)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.as_dict() for k, h in sorted(self._histograms.items())
            },
        }
