"""Result analysis: breakdowns, figure tables, paper comparison."""

from .breakdown import (
    LatencyBreakdown,
    breakdown_from_metrics,
    cache_summary,
    resilience_summary,
)
from .charts import bar_chart, sparkline, stacked_bar_chart
from .compare import ClaimSet, PaperClaim
from .export import (
    metrics_to_dict,
    result_to_dict,
    rows_to_csv,
    rows_to_json,
    write_csv,
    write_json,
)
from .tables import format_ms, format_pct, format_rate, format_table
from .tracing import timeline_trace_events, write_perfetto_trace

__all__ = [
    "ClaimSet",
    "bar_chart",
    "metrics_to_dict",
    "result_to_dict",
    "rows_to_csv",
    "rows_to_json",
    "sparkline",
    "stacked_bar_chart",
    "write_csv",
    "write_json",
    "timeline_trace_events",
    "write_perfetto_trace",
    "LatencyBreakdown",
    "PaperClaim",
    "breakdown_from_metrics",
    "cache_summary",
    "format_ms",
    "format_pct",
    "format_rate",
    "format_table",
    "resilience_summary",
]
