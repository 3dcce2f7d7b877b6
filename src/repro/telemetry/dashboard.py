"""``repro top`` — a live terminal dashboard over the telemetry server.

Connects to a ``--serve`` endpoint (see :mod:`repro.telemetry.server`)
and renders, refreshed as windows flush: per-thread IPC and
normalized-vs-target QoS conformance, per-resource utilization,
arbiter queue-depth high-water marks, and the current top
victim×aggressor interference pair.  Pure stdlib — plain ANSI escapes
when stdout is a TTY (no curses), one log line per refresh otherwise,
so it pipes cleanly into files and CI logs.

Usage::

    python -m repro.experiments fig10 --jobs 4 --serve 9108 &
    python -m repro top --url http://127.0.0.1:9108

The renderer is a pure function of the two JSON documents every
served source answers (``/snapshot`` + ``/healthz``), so it is
unit-testable without a socket.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from typing import Dict, List, Optional, Tuple

CLEAR = "\x1b[H\x1b[2J"  # cursor home + clear screen


# ---------------------------------------------------------------------- #
# Snapshot digestion (pure helpers).
# ---------------------------------------------------------------------- #

def _per_point(snapshot: Dict) -> List[Dict]:
    if snapshot.get("schema", "").startswith("repro.metrics-aggregate"):
        return list(snapshot.get("per_point", ()))
    return [snapshot] if snapshot else []


def _active_point(points: List[Dict]) -> Tuple[Optional[int], Optional[Dict]]:
    """The highest-indexed point with data — the most recently started."""
    if not points:
        return None, None
    return len(points) - 1, points[-1]


def top_interference_pair(
    points: List[Dict],
) -> Optional[Tuple[str, int, int, int]]:
    """(resource, victim, aggressor, cycles) of the worst off-diagonal
    interference cell across every point's attribution matrices."""
    best: Optional[Tuple[str, int, int, int]] = None
    for point in points:
        attribution = point.get("attribution") or {}
        for resource, data in (attribution.get("resources") or {}).items():
            for victim, row in enumerate(data.get("matrix", ())):
                for aggressor, cycles in enumerate(row):
                    if victim == aggressor or not cycles:
                        continue
                    if best is None or cycles > best[3]:
                        best = (resource, victim, aggressor, cycles)
    return best


def _last(series) -> float:
    return series[-1] if series else 0.0


def _thread_rows(point: Dict) -> List[str]:
    n = point.get("n_threads", 0)
    series = point.get("series", {})
    ipc_series = series.get("ipc")
    targets = point.get("baseline_ipcs")
    requests = point.get("requests") or {}
    request_rows = requests.get("threads")
    header = "  thread   ipc(now)   ipc(run)"
    if targets:
        header += "     target       norm  qos"
    if request_rows:
        header += "   p99(cyc)"
    rows = [header]
    for tid in range(n):
        now_ipc = _last(ipc_series[tid]) if ipc_series else 0.0
        run_ipc = (point.get("ipcs") or [0.0] * n)[tid]
        row = f"  t{tid:<6} {now_ipc:>8.4f}  {run_ipc:>9.4f}"
        if targets:
            target = targets[tid]
            norm = run_ipc / target if target > 0 else 0.0
            verdict = "met" if norm >= 1.0 else "LOW"
            row += f"  {target:>9.4f}  {norm:>9.4f}  {verdict:>3}"
        if request_rows:
            p99 = None
            if tid < len(request_rows):
                p99 = (request_rows[tid].get("quantiles") or {}).get("p99")
            row += f"  {'-' if p99 is None else p99:>9}"
        rows.append(row)
    return rows


def _utilization_rows(point: Dict, limit: int = 8) -> List[str]:
    series = point.get("series", {})
    utilization = series.get("utilization") or {}
    queue_max = series.get("queue_depth_max") or {}
    if not utilization and not queue_max:
        return ["  (no window series yet)"]
    rows = ["  resource            util(now)  queue-hwm"]
    tracks = sorted(set(utilization) | set(queue_max))
    for track in tracks[:limit]:
        util = _last(utilization.get(track, ()))
        hwm = max(queue_max.get(track, ()), default=0)
        bar = "#" * max(0, min(10, round(util * 10)))
        rows.append(f"  {track:<18} {util:>8.0%} {bar:<10} {hwm:>6}")
    if len(tracks) > limit:
        rows.append(f"  ... {len(tracks) - limit} more tracks")
    return rows


#: One glyph per CPI-stack bucket for the stacked per-thread bar.
_STACK_GLYPHS = {
    "base": "#", "idle": ".", "store_buffer": "s", "mshr": "m",
    "l1_transit": "x", "bank_conflict": "c", "l2_tag_queue": "t",
    "l2_service": "L", "l2_data_queue": "d", "l2_bus_queue": "u",
    "dram_queue": "q", "dram_service": "D",
}


def _stack_bar(row: List[int], total: int, width: int) -> str:
    """A ``width``-character stacked bar, largest-remainder rounded so
    the glyph counts always fill the bar exactly."""
    if total <= 0 or width <= 0:
        return ""
    quotas = [value * width / total for value in row]
    cells = [int(quota) for quota in quotas]
    spare = width - sum(cells)
    order = sorted(range(len(row)),
                   key=lambda i: quotas[i] - cells[i], reverse=True)
    for i in order:
        if spare <= 0:
            break
        if row[i]:
            cells[i] += 1
            spare -= 1
    glyphs = list(_STACK_GLYPHS.values())
    return "".join(
        (glyphs[i] if i < len(glyphs) else "?") * count
        for i, count in enumerate(cells)
    )


def _stack_rows(point: Dict, width: Optional[int] = None) -> List[str]:
    """Per-thread stacked CPI bars from an embedded cpi_stacks document."""
    stacks = point.get("cpi_stacks")
    if not stacks:
        return []
    buckets = stacks.get("buckets", ())
    threads = stacks.get("threads", ())
    measured = stacks.get("measured_cycles", 0)
    instructions = point.get("instructions") or []
    bar_width = 40 if width is None else max(10, min(40, width - 26))
    used = [False] * len(buckets)
    for row in threads:
        for i, value in enumerate(row):
            used[i] = used[i] or bool(value)
    legend = " ".join(
        f"{_STACK_GLYPHS.get(name, '?')}={name}"
        for i, name in enumerate(buckets) if used[i]
    )
    rows = [f"  cpi stack ({measured} cycles/thread)  {legend}"]
    for tid, row in enumerate(threads):
        insts = instructions[tid] if tid < len(instructions) else 0
        cpi = measured / insts if insts else float("inf")
        bar = _stack_bar(list(row), measured, bar_width)
        rows.append(f"  t{tid:<3} |{bar:<{bar_width}}| cpi {cpi:>8.3f}")
    return rows


def _clip(lines: List[str], width: Optional[int]) -> List[str]:
    """Hard-wrap protection: a frame line longer than the terminal would
    wrap and shear every subsequent row, so clip instead."""
    if width is None:
        return lines
    return [line if len(line) <= width else line[:width] for line in lines]


def render(snapshot: Dict, health: Dict,
           width: Optional[int] = None) -> str:
    """One dashboard frame from the server's two JSON documents.

    ``width`` (the terminal's column count) clips every line so narrow
    terminals never wrap mid-frame; ``None`` renders unclipped.
    """
    points = _per_point(snapshot or {})
    status = health.get("status", "?")
    done = health.get("points", {}).get("done", 0)
    total = health.get("points", {}).get("total", 0)
    workers = health.get("workers", {})
    ages = [w.get("heartbeat_age_s", 0.0) for w in workers.values()]
    stale = health.get("stale_workers") or []
    lines = [
        f"repro top — {health.get('run') or 'run'} [{status.upper()}]  "
        f"points {done}/{total}  workers {len(workers)}"
        + (f" (max heartbeat age {max(ages):.1f}s)" if ages else "")
        + (f"  STALE: {stale}" if stale else ""),
        f"violations {health.get('violations', 0)}  "
        f"last window {health.get('last_window_age_s')}s ago  "
        f"windows merged over {len(points)} point(s)",
        "",
    ]
    index, point = _active_point(points)
    if point is None:
        lines.append("waiting for the first window flush...")
        return "\n".join(_clip(lines, width)) + "\n"
    lines.append(f"point {index} (threads: {point.get('n_threads')}, "
                 f"arbiter: {point.get('arbiter', '?')})")
    lines.extend(_thread_rows(point))
    lines.append("")
    lines.extend(_utilization_rows(point))
    stacks = _stack_rows(point, width)
    if stacks:
        lines.append("")
        lines.extend(stacks)
    pair = top_interference_pair(points)
    lines.append("")
    if pair is not None:
        resource, victim, aggressor, cycles = pair
        lines.append(f"top interference: {resource}: t{victim} <- "
                     f"t{aggressor} ({cycles} cycles)")
    else:
        lines.append("top interference: (none recorded)")
    return "\n".join(_clip(lines, width)) + "\n"


def render_fleet(snapshot: Dict, fleet_health: Dict,
                 width: Optional[int] = None) -> str:
    """One fleet dashboard frame from the aggregator's two documents
    (``/snapshot`` + ``/healthz``) — a worker roster on top of the usual
    merged-point view."""
    points = _per_point(snapshot or {})
    status = fleet_health.get("status", "?")
    workers = fleet_health.get("workers", {})
    unreachable = fleet_health.get("unreachable_workers") or []
    alerts = fleet_health.get("alerts") or {}
    lines = [
        f"repro top — fleet [{status.upper()}]  "
        f"workers {len(workers) - len(unreachable)}/{len(workers)} up  "
        f"points merged over {len(points)} point(s)"
        + (f"  ALERTS firing: {','.join(alerts['firing'])}"
           if alerts.get("firing") else ""),
    ]
    for index in sorted(workers, key=int):
        worker = workers[index]
        pts = worker.get("points") or {}
        extras = ""
        if pts:
            extras += f"  points {pts.get('done', 0)}/{pts.get('total', 0)}"
        resilience = worker.get("resilience") or {}
        if resilience.get("retries"):
            extras += f"  retries {resilience['retries']}"
        if worker.get("violations"):
            extras += f"  violations {worker['violations']}"
        lines.append(f"  w{index} {worker.get('status', '?'):<12} "
                     f"{worker.get('url', '?')}{extras}")
    lines.append("")
    index, point = _active_point(points)
    if point is None:
        lines.append("waiting for the first worker snapshot...")
        return "\n".join(_clip(lines, width)) + "\n"
    lines.append(f"latest point {index} (threads: {point.get('n_threads')}, "
                 f"arbiter: {point.get('arbiter', '?')})")
    lines.extend(_thread_rows(point))
    lines.append("")
    lines.extend(_utilization_rows(point))
    pair = top_interference_pair(points)
    lines.append("")
    if pair is not None:
        resource, victim, aggressor, cycles = pair
        lines.append(f"top interference: {resource}: t{victim} <- "
                     f"t{aggressor} ({cycles} cycles)")
    else:
        lines.append("top interference: (none recorded)")
    return "\n".join(_clip(lines, width)) + "\n"


def render_fleet_log_line(snapshot: Dict, fleet_health: Dict) -> str:
    """The non-TTY fleet form: one grep-able roster line per refresh."""
    points = _per_point(snapshot or {})
    workers = fleet_health.get("workers", {})
    unreachable = fleet_health.get("unreachable_workers") or []
    statuses = ",".join(
        f"w{index}={workers[index].get('status', '?')}"
        for index in sorted(workers, key=int)) or "-"
    alerts = fleet_health.get("alerts") or {}
    return (f"repro-fleet status={fleet_health.get('status', '?')} "
            f"up={len(workers) - len(unreachable)}/{len(workers)} "
            f"points={len(points)} [{statuses}] "
            f"alerts_fired={alerts.get('fired', 0)}")


def render_log_line(snapshot: Dict, health: Dict) -> str:
    """The non-TTY form: one grep-able status line per refresh."""
    points = _per_point(snapshot or {})
    done = health.get("points", {}).get("done", 0)
    total = health.get("points", {}).get("total", 0)
    pair = top_interference_pair(points)
    pair_text = (f"{pair[0]}:t{pair[1]}<-t{pair[2]}({pair[3]}cyc)"
                 if pair else "-")
    _, point = _active_point(points)
    ipcs = point.get("ipcs", []) if point else []
    ipc_text = ",".join(f"{value:.3f}" for value in ipcs) or "-"
    return (f"repro-top status={health.get('status', '?')} "
            f"points={done}/{total} "
            f"violations={health.get('violations', 0)} "
            f"ipc=[{ipc_text}] top={pair_text}")


# ---------------------------------------------------------------------- #
# HTTP client loop.
# ---------------------------------------------------------------------- #

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Live dashboard over a --serve telemetry endpoint.",
    )
    parser.add_argument("--url", required=True,
                        help="server base URL, e.g. http://127.0.0.1:9108")
    parser.add_argument("--fleet", action="store_true",
                        help="the URL is a fleet aggregator "
                             "(python -m repro fleet): render the whole "
                             "fleet's worker roster")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh period in seconds (default 1)")
    parser.add_argument("--once", action="store_true",
                        help="render a single frame and exit")
    parser.add_argument("--plain", action="store_true",
                        help="force log-line output even on a TTY")
    args = parser.parse_args(argv)
    from repro.telemetry.server import fetch_json
    base = args.url.rstrip("/")
    tty = sys.stdout.isatty() and not args.plain

    while True:
        try:
            snapshot = fetch_json(f"{base}/snapshot", timeout=5.0)
            health = fetch_json(f"{base}/healthz", timeout=5.0)
        except (OSError, ValueError) as error:
            print(f"repro top: cannot reach {base}: {error}",
                  file=sys.stderr)
            return 1
        if args.fleet:
            frame = (render_fleet(snapshot, health,
                                  width=shutil.get_terminal_size().columns)
                     if tty else render_fleet_log_line(snapshot, health)
                     + "\n")
            sys.stdout.write(CLEAR + frame if tty else frame)
        elif tty:
            columns = shutil.get_terminal_size().columns
            sys.stdout.write(CLEAR + render(snapshot, health,
                                            width=columns))
        else:
            sys.stdout.write(render_log_line(snapshot, health) + "\n")
        sys.stdout.flush()
        if args.once or health.get("status") == "finished":
            if tty and health.get("status") == "finished":
                sys.stdout.write("run finished.\n")
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":
    raise SystemExit(main())
