"""Terminal visualization: ASCII charts for benchmark series and traces."""

from .ascii import fleet_utilization_chart, line_chart, log_line_chart
from .explain import (
    render_attribution,
    render_diff,
    render_fleet_attribution,
)
from .timeline import (
    render_device_lanes,
    render_health,
    render_postmortem,
    render_serve_lanes,
    render_span_tree,
    render_timeline,
)

__all__ = [
    "fleet_utilization_chart",
    "line_chart",
    "log_line_chart",
    "render_attribution",
    "render_diff",
    "render_fleet_attribution",
    "render_span_tree",
    "render_device_lanes",
    "render_serve_lanes",
    "render_health",
    "render_timeline",
    "render_postmortem",
]
