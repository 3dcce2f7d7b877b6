"""Figure 4: cache timing diagram of back-to-back reads to different banks.

Reproduces the paper's timing: a read hit delivers its critical word 16
processor cycles after the core issues it (2 crossbar + 4 tag + 8 data
array + first 2-cycle bus beat) and finishes the 64-byte line transfer
at cycle 22; a second read to the *other* bank pipelines behind it with
no structural conflict.
"""

from __future__ import annotations

from repro.common.config import VPCAllocation, baseline_config
from repro.cpu.isa import load, nonmem
from repro.experiments.base import ExperimentResult, register
from repro.system.cmp import CMPSystem


@register("fig4")
def run(fast: bool = False) -> ExperimentResult:
    config = baseline_config(n_threads=1, arbiter="row-fcfs",
                             vpc=VPCAllocation([1.0], [1.0]))
    line = config.l2.line_size
    # Two loads to consecutive lines -> different banks (line % 2).
    base = 1 << 30
    trace = iter([load(base), load(base + line), nonmem(1)])
    system = CMPSystem(config, [trace], record_requests=True)

    # Pre-warm both lines into the L2 so the accesses are hits.
    for bank, addr in ((0, base), (1, base + line)):
        system.banks[system.bank_of(addr // line)].array.insert(addr // line, 0)

    system.run(80)

    loads = sorted(system.request_log, key=lambda r: r.issued_cycle)
    rows = []
    for index, request in enumerate(loads):
        rows.append((
            f"read{index + 1}(bank{system.bank_of(request.line)})",
            request.issued_cycle,
            request.arrived_bank_cycle - request.issued_cycle,
            request.tag_done_cycle - request.arrived_bank_cycle,
            request.data_done_cycle - request.tag_done_cycle,
            request.critical_word_cycle - request.data_done_cycle,
            request.critical_word_cycle - request.issued_cycle,
            request.completed_cycle - request.issued_cycle,
        ))
    return ExperimentResult(
        exp_id="fig4",
        title="Timing of back-to-back reads to different cache banks",
        headers=["access", "issue_cycle", "crossbar", "tag", "data_array",
                 "bus_beat", "critical_word_total", "full_line_total"],
        rows=rows,
        notes=[
            "paper Figure 4: critical word at 16 cycles, full line at 22",
            "both banks operate concurrently: the second read overlaps the first",
        ],
    )
