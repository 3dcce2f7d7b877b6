"""Unified simulation telemetry: event bus, sinks, views and the serving plane.

See docs/ARCHITECTURE.md "Observability" for the design; the short
version: the views — CPI stacks, request waterfalls, windowed metrics,
interference attribution, the QoS monitor — count through one
:class:`~repro.telemetry.probe.LifecycleProbe` per system, and
components emit :class:`~repro.telemetry.events.TraceEvent` records
onto a :class:`~repro.telemetry.bus.TelemetryBus` only for trace sinks
(Perfetto export, latency histograms, the request log).  Each hook is
a ``None`` check on the hot path while its slot is empty, so a
disabled view or trace is free.

The package re-exports nothing: import each name from the module that
defines it, so importing the simulator loads only the telemetry it uses
(not the serving plane, alerts, history or report modules).
"""
