"""Cross-layer observability: metrics registry, span tracing, exporters.

One :class:`MetricsRegistry` travels with a run through every layer —
pipeline, scheduler, out-of-core and multi-GPU runners — with the
simulated device's profiler folded in as the leaf level, and exports the
whole hierarchy as JSON (``repro run --emit-metrics``) or line protocol.
"""

from repro.obs.export import (
    format_report,
    report_from_json,
    report_to_dict,
    to_json,
    to_line_protocol,
    write_json,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    PROFILER_COUNTER_FIELDS,
    MetricsRegistry,
)
from repro.obs.span import NULL_SPAN, NullSpan, Span

__all__ = [
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NullSpan",
    "PROFILER_COUNTER_FIELDS",
    "Span",
    "format_report",
    "report_from_json",
    "report_to_dict",
    "to_json",
    "to_line_protocol",
    "write_json",
]
