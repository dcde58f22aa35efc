"""repro.obs — unified tracing and metrics for the reproduction.

One instrumentation spine across every layer: engines open spans around
the algorithm's phases and iterations, the simulated device stamps each
kernel launch on a modeled-GPU timeline, the SIMT emulator stamps its
launches on the wall clock, and the multi-parameter driver links the
spans of settings that reuse shared work.  Exporters turn one traced
run into a Perfetto-loadable Chrome trace, JSONL telemetry records, and
(via :mod:`repro.viz.timeline`) an ASCII timeline.

Quickstart::

    from repro import proclus
    from repro.obs import Tracer, use_run
    from repro.obs.export import write_chrome_trace

    tracer = Tracer()
    with use_run(tracer=tracer):
        result = proclus(data, backend="gpu-fast", seed=0)
    write_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev

A run reads its tracer, flight recorder, fault injector and
correlation id from one :class:`RunContext`: :func:`current_run` reads
it and :func:`use_run` replaces fields of it for a ``with`` block.
Tracing is off by default (the default context's tracer is a disabled
singleton with near-zero overhead), so uninstrumented users pay
nothing.

For failure forensics, :class:`FlightRecorder` keeps a bounded ring of
recent spans, kernels, counters, faults, and resilience/serve events,
and dumps a schema-versioned postmortem bundle on terminal failures;
:mod:`repro.obs.postmortem` reloads, validates, analyzes, and
deterministically replays those bundles (``repro postmortem``).
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import (
    NULL_TRACER,
    CounterSample,
    KernelEvent,
    RunContext,
    Span,
    Tracer,
    current_run,
    use_run,
)
from .export import (
    PIPELINES,
    chrome_trace,
    kernel_pipeline,
    read_jsonl,
    report_envelope,
    run_record,
    study_record,
    validate_bench_report,
    validate_chrome_trace,
    validate_serve_report,
    write_chrome_trace,
    write_jsonl,
)
from .explain import (
    EXPLAIN_SCHEMA,
    attribute_run,
    attribution_record,
    collapsed_stacks,
    diff_attribution,
    explain_report,
    fleet_attribution,
    format_collapsed,
    speedscope_profile,
    validate_explain_report,
)
from .monitor import (
    ServiceMonitor,
    SloObjective,
    SloTracker,
    default_slos,
    load_health,
)
from .prometheus import (
    escape_label_value,
    format_labels,
    parse_labels,
    parse_prometheus_text,
    prometheus_text,
    unescape_label_value,
)
from .recorder import (
    POSTMORTEM_SCHEMA,
    RECORDER_STREAMS,
    FlightRecorder,
)
from .postmortem import (
    POSTMORTEM_REPORT_SCHEMA,
    analyze_bundle,
    comparable_events,
    load_bundle,
    replay_bundle,
    result_digest,
    validate_postmortem,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "KernelEvent",
    "CounterSample",
    "Tracer",
    "NULL_TRACER",
    "RunContext",
    "current_run",
    "use_run",
    "PIPELINES",
    "kernel_pipeline",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "validate_serve_report",
    "validate_bench_report",
    "report_envelope",
    "run_record",
    "study_record",
    "write_jsonl",
    "read_jsonl",
    "EXPLAIN_SCHEMA",
    "attribute_run",
    "attribution_record",
    "collapsed_stacks",
    "diff_attribution",
    "explain_report",
    "fleet_attribution",
    "format_collapsed",
    "speedscope_profile",
    "validate_explain_report",
    "ServiceMonitor",
    "SloObjective",
    "SloTracker",
    "default_slos",
    "load_health",
    "prometheus_text",
    "parse_prometheus_text",
    "escape_label_value",
    "unescape_label_value",
    "format_labels",
    "parse_labels",
    "POSTMORTEM_SCHEMA",
    "RECORDER_STREAMS",
    "FlightRecorder",
    "POSTMORTEM_REPORT_SCHEMA",
    "load_bundle",
    "validate_postmortem",
    "analyze_bundle",
    "replay_bundle",
    "result_digest",
    "comparable_events",
]
