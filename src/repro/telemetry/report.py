"""Per-run QoS report cards: one page answering "did every thread get
what it was promised, and if not, who took it?".

Pulls together the three observability layers this package provides —
metrics snapshots (:mod:`repro.telemetry.metrics`), interference
matrices (:mod:`repro.telemetry.attribution`), and the QoSMonitor's
window audit — plus the paper's headline metrics (harmonic-mean and
minimum normalized IPC, via the same :func:`repro.core.qos.summarize`
the analysis pipeline uses, so the numbers agree bit for bit).

Deliberately imports nothing from ``repro.system`` — the telemetry
package must stay importable from inside the system layer.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.core.qos import QoSOutcome, summarize

REPORT_SCHEMA = "repro.report/1"
FLEET_REPORT_SCHEMA = "repro.report-fleet/1"


def build_report_card(
    n_threads: int,
    arbiter: str,
    metrics: Optional[Dict] = None,
    attribution: Optional[Dict] = None,
    conformance: Optional[Dict] = None,
    targets: Optional[Sequence[float]] = None,
    ipcs: Optional[Sequence[float]] = None,
    run_label: str = "",
    requests: Optional[Dict] = None,
) -> Dict:
    """Assemble the JSON report card.

    ``ipcs`` defaults to the metrics snapshot's measured IPCs (which
    match the :class:`SimulationResult` bit for bit); ``targets`` —
    per-thread private-machine IPCs — unlock the normalized headline.
    ``requests`` is an optional ``repro.requests/1`` document (or is
    pulled from the metrics snapshot when embedded there); it adds the
    tail-latency columns and the SLO-attainment audit.
    """
    if ipcs is None and metrics is not None:
        ipcs = metrics.get("ipcs")
    if requests is None and metrics is not None:
        requests = metrics.get("requests")
    card: Dict = {
        "schema": REPORT_SCHEMA,
        "run": run_label,
        "n_threads": n_threads,
        "arbiter": arbiter,
    }
    if metrics is not None:
        card["measured_cycles"] = metrics.get("measured_cycles", 0)
        card["fairness"] = metrics.get("fairness", {})
        card["metrics_window"] = metrics.get("window")
        if metrics.get("cpi_stacks"):
            card["cpi_stacks"] = metrics["cpi_stacks"]
    received = attribution.get("interference_received") if attribution else None
    caused = attribution.get("interference_caused") if attribution else None
    per_window = conformance.get("per_thread") if conformance else None
    request_rows = requests.get("threads") if requests else None
    slo_rules = (requests.get("slo") or {}).get("rules") if requests else None

    threads: List[Dict] = []
    outcomes: List[QoSOutcome] = []
    for tid in range(n_threads):
        row: Dict = {"thread": tid}
        if ipcs is not None:
            row["ipc"] = ipcs[tid]
        if request_rows is not None and tid < len(request_rows):
            quantiles = request_rows[tid].get("quantiles") or {}
            row["p99_latency"] = quantiles.get("p99")
        if slo_rules:
            attained = [
                rule["attainment"][tid]
                for rule in slo_rules
                if rule.get("attainment") and tid < len(rule["attainment"])
                and rule["attainment"][tid] is not None
            ]
            if attained:
                # The thread's tightest margin across all matching rules.
                row["slo_attainment"] = min(attained)
        if targets is not None and ipcs is not None:
            outcome = QoSOutcome(thread_id=tid, ipc=ipcs[tid],
                                 target_ipc=targets[tid])
            outcomes.append(outcome)
            row["target_ipc"] = targets[tid]
            row["normalized_ipc"] = outcome.normalized
            row["meets_target"] = outcome.meets_target()
        if received is not None:
            row["interference_received"] = received[tid]
            row["interference_caused"] = caused[tid]
        if per_window is not None:
            row["conformance_pct"] = per_window[tid]["conformance_pct"]
        threads.append(row)
    card["threads"] = threads
    if requests is not None:
        card["requests"] = requests
    if outcomes:
        try:
            hmean, minimum = summarize(outcomes)
        except ValueError:
            # A fully starved thread has normalized IPC 0 and no defined
            # harmonic mean; the per-thread table still shows the MISS.
            card["headline_error"] = (
                "zero normalized IPC — a thread was fully starved")
        else:
            card["headline"] = {"harmonic_mean": hmean,
                                "min_normalized": minimum}
    if conformance is not None:
        card["qos"] = conformance
    if attribution is not None:
        card["attribution"] = {
            "resources": attribution.get("resources", {}),
            "dropped_waits": attribution.get("dropped_waits", 0),
        }
    return card


def merge_report_cards(cards: Sequence[Dict], label: str = "") -> Dict:
    """An experiment-level card: per-run cards plus fleet headline
    extremes (worst min-normalized run, any QoS violations anywhere)."""
    live = [card for card in cards if card]
    fleet: Dict = {
        "schema": FLEET_REPORT_SCHEMA,
        "run": label,
        "cards": list(live),
        "runs": len(live),
    }
    minima = [card["headline"]["min_normalized"]
              for card in live if "headline" in card]
    if minima:
        fleet["worst_min_normalized"] = min(minima)
    violations = sum(card.get("qos", {}).get("violations", 0)
                     for card in live)
    fleet["violations"] = violations
    fleet["clean"] = violations == 0
    p99s = [row["p99_latency"] for card in live
            for row in card.get("threads", ())
            if row.get("p99_latency") is not None]
    if p99s:
        fleet["worst_p99_latency"] = max(p99s)
    attainments = [row["slo_attainment"] for card in live
                   for row in card.get("threads", ())
                   if row.get("slo_attainment") is not None]
    if attainments:
        fleet["worst_slo_attainment"] = min(attainments)
    return fleet


# ---------------------------------------------------------------------- #
# Rendering.
# ---------------------------------------------------------------------- #

def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(cell.rjust(width)
                     for cell, width in zip(cells, widths))


def _thread_table(card: Dict) -> List[str]:
    headers = ["thread", "ipc"]
    sample = card["threads"][0] if card["threads"] else {}
    if "target_ipc" in sample:
        headers += ["target", "norm", "qos"]
    if "conformance_pct" in sample:
        headers += ["conf%"]
    if "p99_latency" in sample:
        headers += ["p99(cyc)"]
    if "slo_attainment" in sample:
        headers += ["slo%"]
    if "interference_received" in sample:
        headers += ["recv(cyc)", "caused(cyc)"]
    rows = [headers]
    for row in card["threads"]:
        cells = [f"t{row['thread']}", f"{row.get('ipc', 0.0):.4f}"]
        if "target_ipc" in row:
            cells += [
                f"{row['target_ipc']:.4f}",
                f"{row['normalized_ipc']:.4f}",
                "met" if row["meets_target"] else "MISS",
            ]
        if "conformance_pct" in row:
            cells += [f"{row['conformance_pct']:.1f}"]
        if "p99(cyc)" in headers:
            value = row.get("p99_latency")
            cells += ["-" if value is None else str(value)]
        if "slo%" in headers:
            attained = row.get("slo_attainment")
            cells += ["-" if attained is None else f"{attained * 100:.2f}"]
        if "interference_received" in row:
            cells += [str(row["interference_received"]),
                      str(row["interference_caused"])]
        rows.append(cells)
    widths = [max(len(row[col]) for row in rows)
              for col in range(len(headers))]
    return [_format_row(row, widths) for row in rows]


def _heat_table(resources: Dict, n_threads: int) -> List[str]:
    lines = []
    for name, data in resources.items():
        matrix = data["matrix"]
        interference = sum(
            matrix[victim][aggressor]
            for victim in range(n_threads)
            for aggressor in range(n_threads)
            if victim != aggressor
        )
        if not interference:
            continue
        lines.append(f"  {name} (victim rows x aggressor columns, cycles):")
        header = ["victim\\aggr"] + [f"t{tid}" for tid in range(n_threads)]
        rows = [header]
        for victim in range(n_threads):
            rows.append([f"t{victim}"]
                        + [str(value) for value in matrix[victim]])
        widths = [max(len(row[col]) for row in rows)
                  for col in range(len(header))]
        lines.extend("    " + _format_row(row, widths) for row in rows)
    if not lines:
        lines.append("  (no cross-thread interference recorded)")
    return lines


def _stack_lines(stacks: Dict) -> List[str]:
    """Per-thread CPI-stack summary: the dominant buckets, cycles each.

    Every cycle is in exactly one bucket (the conservation invariant),
    so the listed bucket cycles of one thread sum to its measured
    cycles; buckets that stayed at zero are elided.
    """
    buckets = stacks.get("buckets", ())
    lines = ["cycle accounting (cycles per bucket; buckets sum to "
             f"{stacks.get('measured_cycles', 0)} measured cycles):"]
    for tid, row in enumerate(stacks.get("threads", ())):
        parts = [f"{name} {value}"
                 for name, value in sorted(zip(buckets, row),
                                           key=lambda kv: -kv[1])
                 if value]
        lines.append(f"  t{tid}: " + (", ".join(parts) if parts else "(idle)"))
    return lines


def render_report_card(card: Dict) -> str:
    """Terminal rendering of one run's report card."""
    title = card.get("run") or "simulation"
    lines = [
        f"QoS report card — {title} "
        f"({card['n_threads']} threads, {card['arbiter']} arbiter)",
        "=" * 64,
    ]
    headline = card.get("headline")
    if headline:
        lines.append(
            f"headline: HM normalized IPC {headline['harmonic_mean']:.4f}, "
            f"min {headline['min_normalized']:.4f}"
        )
    fairness = card.get("fairness") or {}
    if fairness:
        extra = ""
        if "jain_min_window" in fairness:
            extra = f" (worst window {fairness['jain_min_window']:.4f})"
        lines.append(
            f"fairness: Jain index {fairness['jain_overall']:.4f}{extra}")
    qos = card.get("qos")
    if qos:
        status = "CLEAN" if not qos.get("violations") else "VIOLATED"
        lines.append(
            f"guarantee audit: {status} — {qos.get('violations', 0)} "
            f"violations over {qos.get('windows_checked', 0)} windows"
        )
    lines.append("")
    lines.extend(_thread_table(card))
    stacks = card.get("cpi_stacks")
    if stacks:
        lines.append("")
        lines.extend(_stack_lines(stacks))
    requests = card.get("requests")
    if requests:
        from repro.telemetry.requests import render_requests
        lines.append("")
        lines.extend(render_requests(requests))
    attribution = card.get("attribution")
    if attribution:
        lines.append("")
        lines.append("interference attribution:")
        lines.extend(
            _heat_table(attribution.get("resources", {}),
                        card["n_threads"]))
        dropped = attribution.get("dropped_waits", 0)
        if dropped:
            lines.append(f"  ({dropped} in-flight waits dropped at run end)")
    return "\n".join(lines)


def render_fleet_card(fleet: Dict) -> str:
    """Terminal rendering of an experiment-level fleet card."""
    lines = [
        f"QoS fleet report — {fleet.get('run') or 'experiment'} "
        f"({fleet.get('runs', 0)} runs)",
        "=" * 64,
    ]
    if "worst_min_normalized" in fleet:
        lines.append(
            f"worst min normalized IPC across runs: "
            f"{fleet['worst_min_normalized']:.4f}"
        )
    status = "CLEAN" if fleet.get("clean") else "VIOLATED"
    lines.append(
        f"guarantee audit: {status} — {fleet.get('violations', 0)} "
        f"violations total"
    )
    if "worst_p99_latency" in fleet:
        lines.append(
            f"worst p99 load latency across runs: "
            f"{fleet['worst_p99_latency']} cycles"
        )
    if "worst_slo_attainment" in fleet:
        lines.append(
            f"worst SLO attainment across runs: "
            f"{fleet['worst_slo_attainment'] * 100:.2f}%"
        )
    decomposition = fleet.get("slowdown_decomposition")
    if decomposition:
        from repro.telemetry.cycles import render_decomposition
        lines.append("")
        lines.extend(render_decomposition(decomposition))
    return "\n".join(lines)


def write_report(card: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(card, handle, indent=2)
        handle.write("\n")
