"""Terminal visualization: ASCII charts for benchmark series and traces."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ascii": ("fleet_utilization_chart", "line_chart", "log_line_chart"),
    "explain": (
        "render_attribution",
        "render_diff",
        "render_fleet_attribution",
    ),
    "timeline": (
        "render_span_tree",
        "render_device_lanes",
        "render_serve_lanes",
        "render_health",
        "render_timeline",
        "render_postmortem",
    ),
})
