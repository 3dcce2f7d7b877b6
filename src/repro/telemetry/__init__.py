"""Unified simulation telemetry: one probe, its views and the serving plane.

See docs/ARCHITECTURE.md "Observability" for the design; the short
version: every view — CPI stacks, request waterfalls, windowed metrics,
interference attribution, the QoS monitor, the latency histograms, the
request log and the ``--trace`` sink — hangs off one
:class:`~repro.telemetry.probe.LifecycleProbe` per system, which every
component reaches through its one ``_probe`` slot.  The counting and
lifecycle views are not called per event: the probe logs one flat
record per event, and each view folds the log at ``run()`` boundaries.
The probe builds each :class:`~repro.telemetry.events.TraceEvent` for
the sink itself, so no simulator component knows the trace format.  Each hook is a
``None`` check on the hot path while its slot is empty, so a disabled
view or trace is free.

The package re-exports nothing: import each name from the module that
defines it, so importing the simulator loads only the telemetry it uses
(not the serving plane, alerts, history or report modules).
"""
