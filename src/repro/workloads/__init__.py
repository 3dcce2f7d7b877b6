"""Workload generators: Table-2 microbenchmarks and SPEC stand-ins."""

from repro.workloads.microbench import (
    ARRAY_BYTES,
    MICROBENCHMARKS,
    ROW_BYTES,
    loads_trace,
    stores_trace,
    thread_base,
)
from repro.workloads.phased import PhasedProfile, parse_phased, phased_trace
from repro.workloads.profiles import (
    HETEROGENEOUS_MIXES,
    PHASED_MIXES,
    PHASED_PROFILES,
    SPEC_ORDER,
    SPEC_PROFILES,
    phased_profile_trace,
    spec_trace,
)
from repro.workloads.synthetic import WorkloadProfile, synthetic_trace
from repro.workloads.tracefile import (
    read_trace,
    save_trace,
    trace_from_file,
)


def build_trace(spec, thread_id: int):
    """Realize a declarative trace spec for one hardware thread.

    The spec vocabulary is shared by :class:`repro.experiments.parallel
    .SimPoint` and the resilience checkpoints
    (:mod:`repro.resilience.snapshot`), which rebuild and fast-forward
    traces from exactly these tuples:

    * ``("loads",)`` / ``("stores",)`` — the Table-2 microbenchmarks;
    * ``("micro", name)`` — any entry of :data:`MICROBENCHMARKS`;
    * ``("spec", name)`` — a SPEC stand-in profile;
    * ``("synthetic", profile)`` — an explicit :class:`WorkloadProfile`;
    * ``("phased", name)`` — a named ``PHASED_PROFILES`` schedule;
    * ``("phased-inline", text)`` — an inline phased schedule in the
      CLI's ``bench+bench[@instructions]`` form;
    * ``("tracefile", path)`` — a segment-trace file on disk.
    """
    kind = spec[0]
    if kind == "loads":
        return loads_trace(thread_id)
    if kind == "stores":
        return stores_trace(thread_id)
    if kind == "micro":
        return MICROBENCHMARKS[spec[1]](thread_id)
    if kind == "spec":
        return spec_trace(spec[1], thread_id)
    if kind == "synthetic":
        return synthetic_trace(spec[1], thread_id)
    if kind == "phased":
        return phased_profile_trace(spec[1], thread_id)
    if kind == "phased-inline":
        return phased_trace(parse_phased(spec[1]), thread_id)
    if kind == "tracefile":
        return trace_from_file(spec[1])
    raise ValueError(f"unknown trace spec {spec!r}")


def workload_spec(name: str):
    """The :func:`build_trace` spec for a workload name as the CLI and
    the experiment mixes spell it: a microbenchmark (``loads``), a SPEC
    stand-in (``art``), a ``PHASED_PROFILES`` schedule
    (``art-sixtrack``), ``phase:<bench+bench[@instructions]>``, or
    ``trace:<path>``."""
    if name.startswith("trace:"):
        return ("tracefile", name.split(":", 1)[1])
    if name.startswith("phase:"):
        return ("phased-inline", name.split(":", 1)[1])
    if name in MICROBENCHMARKS:
        return ("micro", name)
    if name in SPEC_PROFILES:
        return ("spec", name)
    if name in PHASED_PROFILES:
        return ("phased", name)
    known = (sorted(MICROBENCHMARKS) + sorted(SPEC_PROFILES)
             + sorted(PHASED_PROFILES))
    raise ValueError(f"unknown workload {name!r}; choose from {known}, "
                     "phase:<bench+bench[@instructions]>, or trace:<path>")


__all__ = [
    "ARRAY_BYTES",
    "HETEROGENEOUS_MIXES",
    "MICROBENCHMARKS",
    "PHASED_MIXES",
    "PHASED_PROFILES",
    "PhasedProfile",
    "ROW_BYTES",
    "SPEC_ORDER",
    "SPEC_PROFILES",
    "WorkloadProfile",
    "build_trace",
    "parse_phased",
    "phased_profile_trace",
    "phased_trace",
    "read_trace",
    "save_trace",
    "trace_from_file",
    "workload_spec",
    "loads_trace",
    "spec_trace",
    "stores_trace",
    "synthetic_trace",
    "thread_base",
]
