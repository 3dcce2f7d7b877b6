"""Unified simulation telemetry: event bus, sinks, and exporters.

See docs/ARCHITECTURE.md "Observability" for the design; the short
version: components emit :class:`TraceEvent`s onto a
:class:`TelemetryBus` only when one is attached (``None`` check on the
hot path, so disabled tracing is free), and everything else —
Perfetto export, latency histograms, the request log, the QoS monitor
— is a :class:`TraceSink` subscriber.
"""

from .bus import (
    CategoryFilterSink,
    JsonlSink,
    RequestLogSink,
    RingBufferSink,
    TelemetryBus,
    TraceSink,
)
from .attribution import InterferenceAttributor, merge_attribution
from .cycles import (
    BUCKETS,
    CycleAccounting,
    decompose_slowdown,
    render_decomposition,
    verify_stack,
)
from .alerts import AlertEngine, AlertRule, load_rules, write_alerts
from .events import (
    CAT_ARBITER,
    CAT_CACHE,
    CAT_CPI,
    CAT_DRAM,
    CAT_HOST,
    CAT_KERNEL,
    CAT_MSHR,
    CAT_REQUEST,
    CAT_RESOURCE,
    CAT_RUN,
    CAT_SGB,
    CAT_XBAR,
    PH_BEGIN,
    PH_COMPLETE,
    PH_COUNTER,
    PH_END,
    PH_INSTANT,
    TraceEvent,
)
from .federation import FleetAggregator, FleetServer, merge_fleet
from .histograms import Histogram, LatencyHistogramSink
from .history import append_entry, build_entry, diff_entries, read_history
from .manifest import RunManifest, config_hash, git_sha
from .metrics import MetricsCollector, merge_snapshots, to_prometheus
from .perfetto import chrome_trace, write_chrome_trace
from .progress import ProgressReporter
from .requests import (
    REQUESTS_SCHEMA,
    SEGMENTS,
    RequestTracer,
    SLORule,
    StreamingLatencies,
    load_slo,
    render_requests,
    slo_burn,
    verify_requests,
    write_requests,
)
from .report import (
    build_report_card,
    merge_report_cards,
    render_fleet_card,
    render_report_card,
    write_report,
)
from .server import LiveRun, TelemetryServer
from .spans import SpanContext, SpanTracer, write_spans

__all__ = [
    "TraceEvent", "TraceSink", "TelemetryBus",
    "RingBufferSink", "JsonlSink", "RequestLogSink", "CategoryFilterSink",
    "PH_BEGIN", "PH_END", "PH_COMPLETE", "PH_INSTANT", "PH_COUNTER",
    "CAT_REQUEST", "CAT_RESOURCE", "CAT_ARBITER", "CAT_KERNEL",
    "CAT_MSHR", "CAT_SGB", "CAT_DRAM", "CAT_XBAR", "CAT_RUN", "CAT_CACHE",
    "CAT_CPI", "CAT_HOST",
    "BUCKETS", "CycleAccounting", "verify_stack",
    "decompose_slowdown", "render_decomposition",
    "append_entry", "build_entry", "diff_entries", "read_history",
    "Histogram", "LatencyHistogramSink",
    "RunManifest", "config_hash", "git_sha",
    "MetricsCollector", "merge_snapshots", "to_prometheus",
    "InterferenceAttributor", "merge_attribution",
    "build_report_card", "merge_report_cards",
    "render_report_card", "render_fleet_card", "write_report",
    "chrome_trace", "write_chrome_trace",
    "ProgressReporter",
    "LiveRun", "TelemetryServer",
    "SpanContext", "SpanTracer", "write_spans",
    "AlertEngine", "AlertRule", "load_rules", "write_alerts",
    "REQUESTS_SCHEMA", "SEGMENTS", "RequestTracer", "SLORule",
    "StreamingLatencies", "load_slo", "render_requests", "slo_burn",
    "verify_requests", "write_requests",
    "FleetAggregator", "FleetServer", "merge_fleet",
]
