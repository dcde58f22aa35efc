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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "tracer": (
        "Span",
        "KernelEvent",
        "CounterSample",
        "Tracer",
        "NULL_TRACER",
        "RunContext",
        "current_run",
        "use_run",
    ),
    "export": (
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
    ),
    "explain": (
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
    ),
    "monitor": (
        "ServiceMonitor",
        "SloObjective",
        "SloTracker",
        "SLOS",
        "load_health",
    ),
    "prometheus": (
        "prometheus_text",
        "parse_prometheus_text",
        "escape_label_value",
        "unescape_label_value",
        "format_labels",
        "parse_labels",
    ),
    "recorder": ("POSTMORTEM_SCHEMA", "RECORDER_STREAMS", "FlightRecorder"),
    "postmortem": (
        "POSTMORTEM_REPORT_SCHEMA",
        "load_bundle",
        "validate_postmortem",
        "analyze_bundle",
        "replay_bundle",
        "result_digest",
        "comparable_events",
    ),
})
