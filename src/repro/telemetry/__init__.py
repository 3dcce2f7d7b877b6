"""Unified simulation telemetry: event bus, sinks, views and the serving plane.

See docs/ARCHITECTURE.md "Observability" for the design; the short
version: components emit :class:`~repro.telemetry.events.TraceEvent`
records onto a :class:`~repro.telemetry.bus.TelemetryBus` only when one
is attached (``None`` check on the hot path, so disabled tracing is free),
and everything else — Perfetto export, latency histograms, the request
log, the QoS monitor — is a sink subscriber.

The package re-exports nothing: import each name from the module that
defines it, so importing the simulator loads only the telemetry it uses
(not the serving plane, alerts, history or report modules).
"""
