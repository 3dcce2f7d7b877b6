"""Time-series metrics from the lifecycle probe (operator-grade numbers).

The :class:`MetricsCollector` keeps fixed-cycle-window integer counters
— the layer between "I have a Perfetto trace" and "I can alert on a
thread's slowdown":

* **counted series** (no polling; the component hooks of
  :mod:`repro.telemetry.probe` call the collector's typed methods with
  plain integers, and windows are resolved lazily from the cycle stamp,
  so the batch kernel needs no changes): per-resource granted service
  cycles by thread, per-resource busy/utilization, arbiter queue-depth
  high-water marks, MSHR occupancy, capacity-manager
  Condition-1/Condition-2 victimizations, loads retired and their
  latency;
* **sampled series** (pulled at window boundaries by
  :func:`repro.system.simulator.run_simulation` when a collector is
  passed in): per-thread IPC-over-time, per-thread L2 way occupancy,
  and — when solo-run baseline IPCs are configured — per-thread slowdown
  plus the Jain fairness index per window.

Snapshots are plain-JSON dicts (``schema`` tagged), picklable across the
``repro.experiments.parallel`` process boundary, mergeable per
experiment with :func:`merge_snapshots`, and exportable as Prometheus
text exposition with :func:`to_prometheus`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.stats import jain_index

from .attribution import merge_attribution

#: Schema tags on exported JSON (validated by repro.telemetry.validate).
METRICS_SCHEMA = "repro.metrics/1"
AGGREGATE_SCHEMA = "repro.metrics-aggregate/1"


class MetricsCollector:
    """Per-window counters and gauges, fed by the lifecycle probe.

    ``window`` is in simulated cycles; counted series are indexed by the
    absolute window ``ts // window`` of each hook's cycle stamp, so
    out-of-order stamps (a DRAM burst is stamped at its data-bus start,
    which may lie ahead of the issuing cycle) land in the right bucket
    without any sorting.  ``events_seen`` counts the component events
    the collector consumed — one per hook call, two per victimization
    (the condition and the set's way-occupancy sample), matching the
    telemetry-bus events the same hooks emit under ``--trace``.
    """

    def __init__(
        self,
        n_threads: int,
        window: int = 2_000,
        baseline_ipcs: Optional[Sequence[float]] = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("metrics need at least one thread")
        if window < 1:
            raise ValueError("window must be >= 1 cycle")
        self.n_threads = n_threads
        self.window = window
        # Solo-run (private-machine) IPC per thread; enables the slowdown
        # series and normalized fairness.  May be set after the run, any
        # time before snapshot().
        self.baseline_ipcs: Optional[List[float]] = (
            list(baseline_ipcs) if baseline_ipcs is not None else None
        )
        self.events_seen = 0
        # Counted series, keyed by absolute window index; per-resource
        # series keyed by track first (tracks appear on first use):
        # track -> widx -> per-thread service cycles / busy cycles /
        # max pending / max MSHRs outstanding.
        self._lo = -1  # observed window index range (-1: none yet)
        self._hi = -1
        self._service: Dict[str, Dict[int, List[int]]] = defaultdict(dict)
        self._busy: Dict[str, Dict[int, int]] = defaultdict(dict)
        self._queue_max: Dict[str, Dict[int, int]] = defaultdict(dict)
        self._mshr_max: Dict[str, Dict[int, int]] = defaultdict(dict)
        self._cond: Dict[str, Dict[int, List[int]]] = {
            "cond1": {}, "cond2": {},
        }                                                      # widx -> per-thread counts
        self._loads: Dict[int, List[int]] = {}                 # widx -> per-thread retired loads
        self._load_latency: Dict[int, List[int]] = {}          # widx -> per-thread latency sums
        # Cumulative per-thread load totals beside the windows.
        self._loads_total = [0] * n_threads
        self._latency_total = [0] * n_threads
        # Pull samples: (cycle, dispatched per thread, L2 ways per thread).
        self._samples: List[tuple] = []
        self._finished_at: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Counted series (called by repro.telemetry.probe).
    # ------------------------------------------------------------------ #

    def _widx(self, ts: int) -> int:
        """Window index of cycle ``ts``, widening the observed range."""
        widx = ts // self.window
        if widx > self._hi:
            if self._hi < 0:
                self._lo = widx
            self._hi = widx
        elif widx < self._lo:
            self._lo = widx
        return widx

    def _thread_row(self, store: Dict[int, List[int]], widx: int) -> List[int]:
        row = store.get(widx)
        if row is None:
            row = store[widx] = [0] * self.n_threads
        return row

    def enqueued(self, track: str, ts: int, pending: int) -> None:
        """An arbiter admitted an entry; its thread holds ``pending``
        entries in ``track``'s queue afterwards."""
        widx = self._widx(ts)
        queue = self._queue_max[track]
        if pending > queue.get(widx, 0):
            queue[widx] = pending
        self.events_seen += 1

    def granted(self, track: str, tid: int, ts: int, duration: int,
                pending: int, busy_track: Optional[str] = None) -> None:
        """Arbiter ``track`` granted ``tid`` ``duration`` service cycles,
        leaving ``pending`` of its entries queued.  With ``busy_track``
        the grant also holds that resource busy for ``duration`` (an L2
        bank resource; the L3 port keeps no busy series)."""
        widx = self._widx(ts)
        self._thread_row(self._service[track], widx)[tid] += duration
        queue = self._queue_max[track]
        if pending > queue.get(widx, 0):
            queue[widx] = pending
        self.events_seen += 1
        if busy_track is not None:
            busy = self._busy[busy_track]
            busy[widx] = busy.get(widx, 0) + duration
            self.events_seen += 1

    def busy(self, track: str, ts: int, duration: int) -> None:
        """Resource ``track`` is busy for ``duration`` cycles from ``ts``
        (a DRAM data burst)."""
        widx = self._widx(ts)
        busy = self._busy[track]
        busy[widx] = busy.get(widx, 0) + duration
        self.events_seen += 1

    def mshr(self, track: str, ts: int, outstanding: int) -> None:
        """MSHR file ``track`` holds ``outstanding`` entries."""
        widx = self._widx(ts)
        mshrs = self._mshr_max[track]
        if outstanding > mshrs.get(widx, 0):
            mshrs[widx] = outstanding
        self.events_seen += 1

    def victimized(self, condition: str, tid: int, ts: int) -> None:
        """A capacity manager evicted under ``condition`` for ``tid``:
        two events, the condition and the set's way-occupancy sample."""
        widx = self._widx(ts)
        if 0 <= tid < self.n_threads:
            self._thread_row(self._cond[condition], widx)[tid] += 1
        self.events_seen += 2

    def accepted(self) -> None:
        """A request reached its bank (counted, not windowed)."""
        self.events_seen += 1

    def load_retired(self, tid: int, ts: int, latency: int) -> None:
        """A load (demand or prefetch) retired at ``ts`` after
        ``latency`` cycles from issue to critical word."""
        widx = self._widx(ts)
        self._thread_row(self._loads, widx)[tid] += 1
        self._thread_row(self._load_latency, widx)[tid] += latency
        self._loads_total[tid] += 1
        self._latency_total[tid] += latency
        self.events_seen += 1

    def store_retired(self, ts: int) -> None:
        """A store was acknowledged at ``ts``."""
        self._widx(ts)
        self.events_seen += 1

    # ------------------------------------------------------------------ #
    # Pull-sampled series (window boundaries of the measurement phase).
    # ------------------------------------------------------------------ #

    def sample(self, system) -> None:
        """Record a gauge sample from a live system.

        Called by the simulation driver at measurement-window boundaries;
        never from the per-cycle hot path, so metrics keep the telemetry
        layer's zero-overhead-when-disabled contract.
        """
        dispatched = [
            system.thread_dispatched(tid) for tid in range(self.n_threads)
        ]
        ways = system.l2.occupancy_by_thread(self.n_threads)
        self._samples.append((system.cycle, dispatched, ways))

    def finish(self, end: int) -> None:
        self._finished_at = end
        self._widx(end - 1 if end > 0 else 0)

    def thread_totals(self) -> Dict[str, List[int]]:
        """Cumulative per-thread totals since attachment: loads retired
        and their latency sums (kept beside the windows, equal to the
        windowed series summed over every observed window)."""
        return {"loads": list(self._loads_total),
                "load_latency": list(self._latency_total)}

    # ------------------------------------------------------------------ #
    # Snapshot assembly.
    # ------------------------------------------------------------------ #

    def _materialize(self, store: Dict[int, int]) -> List[int]:
        return [store.get(w, 0) for w in range(self._lo, self._hi + 1)]

    def _materialize_threads(
        self, store: Dict[int, List[int]]
    ) -> List[List[int]]:
        zeros = [0] * self.n_threads
        rows = [list(store.get(w, zeros))
                for w in range(self._lo, self._hi + 1)]
        # thread-major: series[tid][window]
        return [[row[tid] for row in rows] for tid in range(self.n_threads)]

    def _sampled_series(self):
        """Per-interval IPC / way-occupancy / slowdown / fairness."""
        cycles = [s[0] for s in self._samples]
        ipc: List[List[float]] = [[] for _ in range(self.n_threads)]
        for (c0, d0, _), (c1, d1, _) in zip(self._samples, self._samples[1:]):
            span = c1 - c0
            for tid in range(self.n_threads):
                ipc[tid].append((d1[tid] - d0[tid]) / span if span else 0.0)
        ways = [[s[2][tid] for s in self._samples]
                for tid in range(self.n_threads)]
        slowdown = None
        if self.baseline_ipcs is not None:
            slowdown = [
                [base / value if value > 0 else float("inf")
                 for value in ipc[tid]]
                for tid, base in enumerate(self.baseline_ipcs)
            ]
        fairness = []
        for k in range(len(cycles) - 1):
            throughput = [ipc[tid][k] for tid in range(self.n_threads)]
            if self.baseline_ipcs is not None:
                throughput = [
                    value / base if base > 0 else 0.0
                    for value, base in zip(throughput, self.baseline_ipcs)
                ]
            fairness.append(jain_index(throughput))
        return cycles, ipc, ways, slowdown, fairness

    def measured(self):
        """(cycles, instructions per thread, ipcs) over the sampled span."""
        if len(self._samples) < 2:
            return 0, [0] * self.n_threads, [0.0] * self.n_threads
        c0, d0, _ = self._samples[0]
        c1, d1, _ = self._samples[-1]
        span = c1 - c0
        instructions = [d1[tid] - d0[tid] for tid in range(self.n_threads)]
        # Same integer division run_simulation performs, so a metrics
        # snapshot's ipcs match the SimulationResult bit for bit.
        ipcs = [insts / span if span else 0.0 for insts in instructions]
        return span, instructions, ipcs

    def snapshot(self) -> Dict:
        """The JSON-able form: meta + totals + every series."""
        span, instructions, ipcs = self.measured()
        out: Dict = {
            "schema": METRICS_SCHEMA,
            "window": self.window,
            "n_threads": self.n_threads,
            "events_seen": self.events_seen,
            "measured_cycles": span,
            "instructions": instructions,
            "ipcs": ipcs,
        }
        series: Dict = {}
        if self._hi >= 0:
            out["window_base"] = self._lo
            out["windows"] = self._hi - self._lo + 1
            series["service_cycles"] = {
                track: self._materialize_threads(store)
                for track, store in sorted(self._service.items())
            }
            series["utilization"] = {
                track: [value / self.window
                        for value in self._materialize(store)]
                for track, store in sorted(self._busy.items())
            }
            series["queue_depth_max"] = {
                track: self._materialize(store)
                for track, store in sorted(self._queue_max.items())
            }
            series["mshr_max"] = {
                track: self._materialize(store)
                for track, store in sorted(self._mshr_max.items())
            }
            series["loads"] = self._materialize_threads(self._loads)
            series["load_latency_sum"] = self._materialize_threads(
                self._load_latency)
            series["cond1"] = self._materialize_threads(self._cond["cond1"])
            series["cond2"] = self._materialize_threads(self._cond["cond2"])
        if len(self._samples) >= 2:
            cycles, ipc, ways, slowdown, fairness = self._sampled_series()
            out["sample_cycles"] = cycles
            series["ipc"] = ipc
            series["l2_ways"] = ways
            if slowdown is not None:
                series["slowdown"] = slowdown
            series["jain_fairness"] = fairness
        out["series"] = series
        out["totals"] = self._totals(series)
        out["fairness"] = self._fairness_summary(ipcs, out)
        if self.baseline_ipcs is not None:
            out["baseline_ipcs"] = list(self.baseline_ipcs)
        return out

    def _totals(self, series: Dict) -> Dict:
        def row_sum(rows):
            return [sum(values) for values in rows]

        totals: Dict = {}
        if "service_cycles" in series:
            totals["service_cycles"] = {
                track: row_sum(rows)
                for track, rows in series["service_cycles"].items()
            }
        if "loads" in series:
            totals["loads"] = row_sum(series["loads"])
            latency = row_sum(series["load_latency_sum"])
            totals["load_latency_mean"] = [
                lat / n if n else 0.0
                for lat, n in zip(latency, totals["loads"])
            ]
        if "cond1" in series:
            totals["cond1"] = row_sum(series["cond1"])
            totals["cond2"] = row_sum(series["cond2"])
        return totals

    def _fairness_summary(self, ipcs: List[float], out: Dict) -> Dict:
        throughput = list(ipcs)
        if self.baseline_ipcs is not None:
            throughput = [
                value / base if base > 0 else 0.0
                for value, base in zip(throughput, self.baseline_ipcs)
            ]
        summary = {"jain_overall": jain_index(throughput)}
        window_jain = out["series"].get("jain_fairness")
        if window_jain:
            summary["jain_min_window"] = min(window_jain)
        return summary


# ---------------------------------------------------------------------- #
# Cross-process aggregation (repro.experiments.parallel workers snapshot;
# the runner merges one aggregate per experiment).
# ---------------------------------------------------------------------- #

def merge_snapshots(snapshots: Sequence[Dict]) -> Dict:
    """Fold per-point metrics snapshots into one experiment aggregate;
    the points' attribution sections merge into its last key."""
    points = [snap for snap in snapshots if snap is not None]
    totals = {
        "instructions": 0,
        "measured_cycles": 0,
        "loads": 0,
        "cond1": 0,
        "cond2": 0,
        "events_seen": 0,
    }
    for snap in points:
        totals["instructions"] += sum(snap.get("instructions", ()))
        totals["measured_cycles"] += snap.get("measured_cycles", 0)
        totals["events_seen"] += snap.get("events_seen", 0)
        snap_totals = snap.get("totals", {})
        totals["loads"] += sum(snap_totals.get("loads", ()))
        totals["cond1"] += sum(snap_totals.get("cond1", ()))
        totals["cond2"] += sum(snap_totals.get("cond2", ()))
    return {
        "schema": AGGREGATE_SCHEMA,
        "points": len(points),
        "totals": totals,
        "per_point": list(points),
        "attribution": merge_attribution(
            [snap.get("attribution") for snap in points]),
    }


# ---------------------------------------------------------------------- #
# Prometheus text exposition (final scrape, or live over /metrics).
# ---------------------------------------------------------------------- #

def _prom_line(name: str, labels: Dict[str, object], value) -> str:
    rendered = ",".join(f'{key}="{val}"' for key, val in labels.items())
    body = f"{{{rendered}}}" if rendered else ""
    return f"{name}{body} {value}"


class _Families:
    """Sample lines grouped per metric family, declared exactly once.

    Families render in first-encounter order, so a single-point export
    is line-identical to the historical flat exposition, and a fleet
    aggregate declares each ``# HELP``/``# TYPE`` once with every
    point's samples under it (Prometheus rejects re-declarations).
    """

    def __init__(self) -> None:
        self._order: List[str] = []
        self._families: Dict[str, Tuple[str, str, List[str]]] = {}

    def add(self, name: str, kind: str, help_text: str,
            labels: Dict[str, object], value) -> None:
        entry = self._families.get(name)
        if entry is None:
            entry = self._families[name] = (kind, help_text, [])
            self._order.append(name)
        entry[2].append(_prom_line(name, labels, value))

    def render(self) -> str:
        lines: List[str] = []
        for name in self._order:
            kind, help_text, samples = self._families[name]
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n"


def _expose_point(snapshot: Dict, base: Dict, fam: _Families) -> None:
    """Collect one point snapshot's samples, labelled with ``base``."""
    def labelled(**labels) -> Dict[str, object]:
        return {**base, **labels}

    n = snapshot.get("n_threads", 0)
    for tid, value in enumerate(snapshot.get("ipcs", ())):
        fam.add("repro_thread_ipc", "gauge",
                "Per-thread IPC over the measurement interval",
                labelled(thread=tid), value)
    for tid, value in enumerate(snapshot.get("instructions", ())):
        fam.add("repro_thread_instructions_total", "counter",
                "Instructions committed per thread in the measurement "
                "interval", labelled(thread=tid), value)
    totals = snapshot.get("totals", {})
    for track, row in totals.get("service_cycles", {}).items():
        for tid in range(n):
            fam.add("repro_service_cycles_total", "counter",
                    "Granted service cycles per shared resource per thread",
                    labelled(resource=track, thread=tid), row[tid])
    if "loads" in totals:
        for tid, value in enumerate(totals["loads"]):
            fam.add("repro_loads_retired_total", "counter",
                    "Demand+prefetch loads retired per thread",
                    labelled(thread=tid), value)
    if "cond1" in totals:
        for cond in ("cond1", "cond2"):
            for tid, value in enumerate(totals[cond]):
                fam.add("repro_capacity_victimizations_total", "counter",
                        "VPC Capacity Manager victimizations by condition",
                        labelled(condition=cond, thread=tid), value)
    fairness = snapshot.get("fairness", {})
    if fairness:
        fam.add("repro_fairness_jain", "gauge",
                "Jain fairness index of per-thread (normalized) throughput",
                dict(base), fairness.get("jain_overall", 0.0))
    if snapshot.get("baseline_ipcs"):
        for tid, (target, ipc) in enumerate(
            zip(snapshot["baseline_ipcs"], snapshot.get("ipcs", ()))
        ):
            value = target / ipc if ipc > 0 else float("inf")
            fam.add("repro_thread_slowdown", "gauge",
                    "Solo-run baseline IPC divided by observed IPC",
                    labelled(thread=tid), value)
    stacks = snapshot.get("cpi_stacks")
    if stacks:
        buckets = stacks.get("buckets", ())
        for tid, row in enumerate(stacks.get("threads", ())):
            for bucket, value in zip(buckets, row):
                fam.add("repro_cpi_stack_cycles", "counter",
                        "Measurement-interval cycles attributed to each "
                        "CPI-stack bucket per thread (buckets sum exactly "
                        "to measured cycles)",
                        labelled(thread=tid, bucket=bucket), value)
    requests = snapshot.get("requests")
    if requests:
        for tid, row in enumerate(requests.get("threads", ())):
            for quantile, value in (row.get("quantiles") or {}).items():
                if value is None:
                    continue
                fam.add("repro_request_latency_cycles", "gauge",
                        "Exact streaming per-thread load-latency quantiles "
                        "(issue to critical word)",
                        labelled(thread=tid, quantile=quantile), value)
        for rule in (requests.get("slo") or {}).get("rules", ()):
            for tid, attained in enumerate(rule.get("attainment") or ()):
                if attained is None:
                    continue
                fam.add("repro_slo_attainment", "gauge",
                        "Fraction of a thread's demand loads within the SLO "
                        "rule's latency threshold",
                        labelled(slo=rule.get("name"), thread=tid), attained)
    attribution = snapshot.get("attribution")
    if attribution:
        for resource, data in sorted(attribution.get("resources", {}).items()):
            matrix = data.get("matrix", ())
            for victim, row in enumerate(matrix):
                for aggressor, value in enumerate(row):
                    if victim == aggressor:
                        continue
                    fam.add(
                        "repro_interference_cycles_total", "counter",
                        "Queueing cycles victim threads lost to aggressor "
                        "grants",
                        labelled(resource=resource, victim=victim,
                                 aggressor=aggressor), value)


def to_prometheus(snapshot: Dict) -> str:
    """Render a metrics snapshot as Prometheus text exposition format.

    Accepts either a single point snapshot (``repro.metrics/1`` —
    whole-run counters as ``_total`` counters, end-of-run gauges as
    gauges) or an experiment aggregate (``repro.metrics-aggregate/1``,
    as served live by ``--serve``'s ``/metrics``): run-level totals plus
    every per-point family labelled ``point="<index>"``.  Validated by
    ``repro.telemetry.validate``.
    """
    fam = _Families()
    if snapshot.get("schema") == AGGREGATE_SCHEMA:
        fam.add("repro_run_points", "gauge",
                "Simulation points contributing to this scrape",
                {}, snapshot.get("points", 0))
        totals = snapshot.get("totals", {})
        for key, help_text in (
            ("instructions", "Instructions committed across the fleet"),
            ("measured_cycles", "Measured cycles summed across points"),
            ("loads", "Loads retired across the fleet"),
            ("cond1", "Condition-1 victimizations across the fleet"),
            ("cond2", "Condition-2 victimizations across the fleet"),
            ("events_seen", "Telemetry events aggregated across the fleet"),
        ):
            if key in totals:
                fam.add(f"repro_run_{key}_total", "counter", help_text,
                        {}, totals[key])
        for index, point in enumerate(snapshot.get("per_point", ())):
            _expose_point(point, {"point": index}, fam)
    else:
        _expose_point(snapshot, {}, fam)
    return fam.render()
