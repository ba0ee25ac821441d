"""Prometheus text exposition (version 0.0.4), hand-rolled on stdlib.

One function: render a :class:`~repro.engine.obs.registry.MetricsRegistry`
scrape as the plain-text format Prometheus scrapes — ``# HELP`` /
``# TYPE`` headers per family, one ``name{labels} value`` sample per
line, histograms expanded to cumulative ``_bucket{le=...}`` series plus
``_sum`` and ``_count``.  Label values are escaped per the spec
(backslash, double-quote, newline).
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = ["render_prometheus"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_text(names: Sequence[str], values: Sequence[str],
                 extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(names, values)) + list(extra)
    if not pairs:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (name, _escape_label(value))
                             for name, value in pairs)


def render_prometheus(registry) -> str:
    """The registry's merged state in Prometheus text format."""
    view = registry.collect()
    lines = []
    for name, metric in sorted(view["metrics"].items()):
        if metric.help:
            lines.append("# HELP %s %s" % (name, _escape_help(metric.help)))
        lines.append("# TYPE %s %s" % (name, metric.kind))
        series = view[metric.kind + "s"].get(name, {})
        for values in sorted(series):
            labels = _labels_text(metric.label_names, values)
            if metric.kind != "histogram":
                lines.append("%s%s %s" % (name, labels,
                                          _format_value(series[values])))
                continue
            merged = series[values]
            bounds = [_format_value(float(bound))
                      for bound in merged["bounds"]] + ["+Inf"]
            for bound, count in zip(bounds, merged["cumulative"]):
                lines.append("%s_bucket%s %d" % (
                    name,
                    _labels_text(metric.label_names, values,
                                 (("le", bound),)),
                    count))
            lines.append("%s_sum%s %s" % (name, labels,
                                          _format_value(merged["sum"])))
            lines.append("%s_count%s %d" % (name, labels,
                                            merged["cumulative"][-1]))
    return "\n".join(lines) + "\n"
