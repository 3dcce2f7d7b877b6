"""Experiment infrastructure: result records, table rendering, registry.

Every experiment module exposes ``run(fast: bool = False) ->
ExperimentResult``.  ``fast`` trades fidelity for speed (short warmup,
benchmark subsets) and is what the test suite and pytest-benchmark
harness use; full runs regenerate the numbers recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Optional, Sequence


@dataclass
class ExperimentResult:
    """A regenerated table/figure: headers + rows, ready to print."""

    exp_id: str
    title: str
    headers: List[str]
    rows: List[Sequence]
    notes: List[str] = field(default_factory=list)
    # Provenance (repro.telemetry.RunManifest), attached by the runner.
    manifest: Optional[object] = None
    # Aggregated per-point metrics (repro.telemetry.metrics), attached by
    # the runner when metrics collection is enabled.
    metrics: Optional[Dict] = None
    # Machine-readable figure document (schema-tagged, validated by
    # repro.telemetry.validate) for experiments that produce one; the
    # runner writes it next to the other artifacts under --figures.
    figure: Optional[Dict] = None

    def cell(self, row: int, column: str):
        return self.rows[row][self.headers.index(column)]

    def column(self, column: str) -> List:
        index = self.headers.index(column)
        return [row[index] for row in self.rows]

    def row_by(self, column: str, value) -> Sequence:
        index = self.headers.index(column)
        for row in self.rows:
            if row[index] == value:
                return row
        raise KeyError(f"no row with {column}={value!r}")

    def format_table(self) -> str:
        """Render as an aligned text table (the figure's data series)."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        table = [self.headers] + [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in table) for i in range(len(self.headers))
        ]
        lines = [f"== {self.exp_id}: {self.title} =="]
        for index, row in enumerate(table):
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: The experiment modules; each registers its ids on import.
_MODULES = (
    "ablations", "fig4_timing", "fig5_microbench_util", "fig6_spec_util",
    "fig7_writes", "fig8_loads_stores", "fig9_subject_background",
    "fig10_heterogeneous", "policy_frontier", "sweep_designspace",
    "sweep_smt", "table1_config", "table2_microbench",
)

# Maps exp id -> run callable; filled by :func:`registry`.
REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}


def registry() -> Dict[str, Callable[..., ExperimentResult]]:
    """The experiment registry, importing every experiment module on
    first use — so importing :mod:`repro.experiments.parallel`, which
    every simulation does, loads none of them."""
    for name in _MODULES:
        import_module(f"repro.experiments.{name}")
    return REGISTRY


def register(exp_id: str):
    def decorator(run: Callable[..., ExperimentResult]):
        REGISTRY[exp_id] = run
        return run
    return decorator


def cycle_budget(fast: bool, warmup: int = 40_000, measure: int = 40_000):
    """(warmup, measure) cycles, shrunk ~6x in fast mode."""
    if fast:
        return max(4_000, warmup // 6), max(4_000, measure // 6)
    return warmup, measure
