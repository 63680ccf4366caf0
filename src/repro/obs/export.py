"""Exporters: machine-readable views of a :class:`MetricsRegistry`.

Two formats:

* **JSON** — the full hierarchical report (counters, gauges, span tree),
  the format ``repro run --emit-metrics`` writes and CI diffs across
  PRs.  Round-trips through :func:`report_from_json`.
* **line protocol** — influx-style flat lines, one metric per line, for
  piping into time-series tooling.  Spans are flattened to their
  ``/``-joined path with wall duration and attached values as fields.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, cast

from repro.obs.registry import MetricsRegistry

SCHEMA_VERSION = 1


def report_to_dict(registry: MetricsRegistry) -> dict[str, Any]:
    """The registry's report plus schema metadata."""
    report = registry.report()
    report["schema_version"] = SCHEMA_VERSION
    return report


def to_json(registry: MetricsRegistry) -> str:
    """Serialize the full report to an indented JSON string."""
    return json.dumps(report_to_dict(registry), indent=2, sort_keys=True)


def write_json(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write the JSON report to ``path`` and return it."""
    out = Path(path)
    out.write_text(to_json(registry) + "\n", encoding="utf-8")
    return out


def report_from_json(text: str) -> dict[str, Any]:
    """Parse a report produced by :func:`to_json` back to a dict."""
    return cast("dict[str, Any]", json.loads(text))


def _escape(tag: str) -> str:
    """Escape line-protocol tag values (spaces, commas, equals)."""
    return tag.replace(" ", r"\ ").replace(",", r"\,").replace("=", r"\=")


def to_line_protocol(registry: MetricsRegistry) -> list[str]:
    """Flatten the registry to influx-style lines.

    ``repro_counter,name=<n> value=<v>`` for scalars and
    ``repro_span,path=<run/iteration/kernel> duration_s=<v>,...`` for
    spans (attached span values become extra fields).
    """
    lines: list[str] = []
    report = registry.report()
    for kind in ("counters", "gauges"):
        measurement = f"repro_{kind[:-1]}"
        for name, value in report[kind].items():
            lines.append(f"{measurement},name={_escape(name)} value={value}")
    for root in registry.roots:
        for path, span in root.walk():
            fields = {"duration_s": span.duration_s, **span.values}
            body = ",".join(f"{key}={value}" for key, value in fields.items())
            lines.append(f"repro_span,path={_escape(path)} {body}")
    return lines


def format_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of a report dict (``repro report``)."""
    out: list[str] = []
    counters = report.get("counters", {})
    gauges = report.get("gauges", {})
    if counters:
        out.append("counters:")
        out.extend(f"  {name:40s} {value:>16.3f}"
                   for name, value in counters.items())
    if gauges:
        out.append("gauges:")
        out.extend(f"  {name:40s} {value:>16.6f}"
                   for name, value in gauges.items())
    spans = report.get("spans", [])
    if spans:
        out.append("spans:")
        for root in spans:
            out.extend(_format_span(root, depth=1))
    return "\n".join(out)


def _format_span(span: dict[str, Any], depth: int) -> list[str]:
    attrs = ", ".join(
        f"{key}={value}" for key, value in span.get("attributes", {}).items()
    )
    values = ", ".join(
        f"{key}={value:.3f}" for key, value in span.get("values", {}).items()
    )
    line = f"{'  ' * depth}{span['name']}"
    if attrs:
        line += f" [{attrs}]"
    line += f"  wall={span.get('duration_s', 0.0) * 1e3:.3f} ms"
    if values:
        line += f"  ({values})"
    lines = [line]
    children = span.get("children", [])
    # Collapse long runs of sibling iterations: show first/last few.
    if len(children) > 8 and all(
        child.get("name") == children[0].get("name") for child in children
    ):
        shown = children[:3] + children[-2:]
        for child in children[:3]:
            lines.extend(_format_span(child, depth + 1))
        lines.append(f"{'  ' * (depth + 1)}... "
                     f"({len(children) - len(shown)} more "
                     f"{children[0]['name']} spans)")
        for child in children[-2:]:
            lines.extend(_format_span(child, depth + 1))
    else:
        for child in children:
            lines.extend(_format_span(child, depth + 1))
    return lines
