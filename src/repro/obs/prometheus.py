"""Prometheus text-format exposition of a :class:`MetricsRegistry`.

:func:`prometheus_text` renders every instrument of a registry in the
`Prometheus exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_:
counters gain the conventional ``_total`` suffix, histograms are
encoded as cumulative ``_bucket{le="..."}`` series plus ``_sum`` and
``_count``, and every name is sanitized into the metric charset with a
``repro_`` prefix.  :func:`parse_prometheus_text` is the scrape-side
inverse the round-trip tests use — it reads a scrape back into plain
values and raises on malformed or non-cumulative input, so an
exposition bug cannot round-trip silently.

Label values are escaped per the exposition spec (backslash, double
quote, and newline become ``\\\\``, ``\\"``, and ``\\n``), and
:func:`parse_labels` is the exact inverse of :func:`format_labels` —
the property tests round-trip adversarial values through both.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from .metrics import MetricsRegistry

__all__ = [
    "prometheus_name",
    "prometheus_text",
    "parse_prometheus_text",
    "escape_label_value",
    "unescape_label_value",
    "format_labels",
    "parse_labels",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: One ``name="escaped value"`` pair (escaped values contain no raw
#: ``"`` or ``\`` except as part of an escape sequence).
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})?'
    r"\s+(?P<value>\S+)$"
)


# ----------------------------------------------------------------------
# Label-value escaping (exposition spec) and its exact inverse
# ----------------------------------------------------------------------
def escape_label_value(value: str) -> str:
    """Escape a label value for exposition: ``\\``, ``"``, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def unescape_label_value(text: str) -> str:
    """Exact inverse of :func:`escape_label_value`.

    Raises :class:`ValueError` on a dangling backslash or an escape
    sequence the exposition format does not define.
    """
    out: list[str] = []
    index = 0
    while index < len(text):
        ch = text[index]
        if ch != "\\":
            out.append(ch)
            index += 1
            continue
        if index + 1 >= len(text):
            raise ValueError(f"dangling backslash in label value {text!r}")
        nxt = text[index + 1]
        if nxt == "\\":
            out.append("\\")
        elif nxt == '"':
            out.append('"')
        elif nxt == "n":
            out.append("\n")
        else:
            raise ValueError(
                f"invalid escape sequence \\{nxt} in label value {text!r}"
            )
        index += 2
    return "".join(out)


def format_labels(labels: "Mapping[str, str]") -> str:
    """Render a label set as ``{name="value",...}`` (empty -> ``""``)."""
    if not labels:
        return ""
    parts = []
    for name, value in labels.items():
        if _LABEL_NAME_RE.match(name) is None:
            raise ValueError(f"invalid label name {name!r}")
        parts.append(f'{name}="{escape_label_value(value)}"')
    return "{" + ",".join(parts) + "}"


def parse_labels(text: str) -> dict[str, str]:
    """Parse a label *body* (no braces) back into a dict.

    The exact inverse of :func:`format_labels` on its output:
    ``parse_labels(format_labels(labels)[1:-1]) == labels`` for any
    label set with valid names.  Raises :class:`ValueError` on
    malformed bodies.
    """
    labels: dict[str, str] = {}
    rest = text
    while rest:
        match = _LABEL_RE.match(rest)
        if match is None:
            raise ValueError(f"malformed label segment {rest!r}")
        labels[match.group(1)] = unescape_label_value(match.group(2))
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise ValueError(f"malformed label separator at {rest!r}")
    return labels


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Sanitize an instrument name (``serve.cache.hits`` ->
    ``repro_serve_cache_hits``)."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if bound == math.inf else repr(float(bound))


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, counter in registry.sorted_counters():
        metric = prometheus_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counter.value)}")
    for name, gauge in registry.sorted_gauges():
        metric = prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge.value)}")
    for name, histogram in registry.sorted_histograms():
        metric = prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in histogram.bucket_pairs():
            labels = format_labels({"le": _format_le(bound)})
            lines.append(f"{metric}_bucket{labels} {cumulative}")
        lines.append(f"{metric}_sum {_format_value(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + "\n"


def _parse_number(token: str, line: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"malformed sample value in line {line!r}") from None


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse a text-format scrape back into plain values.

    Returns ``{"counters": {name: value}, "gauges": {name: value},
    "histograms": {name: {"buckets": [(le, cumulative)...], "sum": s,
    "count": n}}}`` keyed by the exposed (sanitized) metric names —
    counters without their ``_total`` suffix, histograms without their
    ``_bucket``/``_sum``/``_count`` suffixes.

    Raises :class:`ValueError` on malformed lines, samples without a
    preceding ``# TYPE``, non-cumulative histogram buckets, a missing
    ``+Inf`` bucket, or a ``_count`` that disagrees with it.
    """
    types: dict[str, str] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram"):
                    raise ValueError(f"unknown metric type in line {line!r}")
                types[parts[2]] = parts[3]
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed sample line {line!r}")
        name = match.group("name")
        labels = match.group("labels")
        value = _parse_number(match.group("value"), line)

        if types.get(name) == "counter":
            if not name.endswith("_total"):
                raise ValueError(
                    f"counter sample {name!r} must use the _total suffix"
                )
            counters[name[: -len("_total")]] = value
            continue
        if types.get(name) == "gauge":
            gauges[name] = value
            continue

        base, suffix = name, ""
        for candidate in ("_bucket", "_sum", "_count"):
            if (
                name.endswith(candidate)
                and types.get(name[: -len(candidate)]) == "histogram"
            ):
                base, suffix = name[: -len(candidate)], candidate
                break
        if not suffix:
            raise ValueError(
                f"sample {name!r} has no preceding # TYPE line"
            )
        entry = histograms.setdefault(
            base, {"buckets": [], "sum": 0.0, "count": 0}
        )
        if suffix == "_bucket":
            label_map = parse_labels(labels or "")
            if "le" not in label_map:
                raise ValueError(f"bucket sample without le label: {line!r}")
            bound = _parse_number(label_map["le"], line)
            entry["buckets"].append((bound, value))
        elif suffix == "_sum":
            entry["sum"] = value
        else:  # _count
            entry["count"] = int(value)

    for base, entry in histograms.items():
        buckets = entry["buckets"]
        if not buckets or buckets[-1][0] != math.inf:
            raise ValueError(f"histogram {base!r} is missing its +Inf bucket")
        cumulative = -1.0
        for bound, count in buckets:
            if count < cumulative:
                raise ValueError(
                    f"histogram {base!r} buckets are not cumulative at "
                    f"le={_format_le(bound)}"
                )
            cumulative = count
        if int(buckets[-1][1]) != entry["count"]:
            raise ValueError(
                f"histogram {base!r}: _count {entry['count']} disagrees "
                f"with the +Inf bucket {int(buckets[-1][1])}"
            )
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
