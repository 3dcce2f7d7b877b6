"""Full CMP assembly: cores + L1s + crossbar + banked L2 + memory.

This wires every substrate together according to a
:class:`~repro.common.config.SystemConfig` and steps the whole machine
one processor cycle at a time.  The arbiter policy and the capacity
policy are injected here from the configuration:

* ``arbiter="fcfs"`` / ``"row-fcfs"`` — the paper's baselines;
* ``arbiter="vpc"`` — one :class:`~repro.core.vpc_arbiter.VPCArbiter`
  per shared resource per bank, programmed from the VPC control
  registers.

Capacity is managed by the VPC Capacity Manager in all multi-thread
configurations (the paper does the same — Section 4.3 explains that an
unfair capacity manager would confound the arbiter evaluation); plain
shared LRU is available for the capacity ablation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.cache.l2 import SharedL2
from repro.cache.replacement import LRUPolicy, ReplacementPolicy
from repro.common.config import SystemConfig
from repro.common.records import MemoryRequest
from repro.core.capacity import VPCCapacityManager
from repro.core.arbiter import Arbiter, FCFSArbiter, RoWFCFSArbiter
from repro.core.registers import VPCControlRegisters
from repro.core.vpc_arbiter import VPCArbiter
from repro.cpu.core_model import CoreModel
from repro.cpu.isa import TraceItem
from repro.interconnect.crossbar import Crossbar
from repro.memory.controller import MemoryController
from repro.system.kernel import DEFAULT_KERNEL, KERNELS


class CMPSystem:
    """A complete simulated chip multiprocessor."""

    def __init__(
        self,
        config: SystemConfig,
        traces: List[Iterator[TraceItem]],
        capacity_policy: str = "vpc",
        intra_thread_row: bool = True,
        vpc_selection: str = "finish",
        record_requests: bool = False,
        smt_degree: int = 1,
        kernel: str = DEFAULT_KERNEL,
        telemetry=None,
    ) -> None:
        config.validate()
        if len(traces) != config.n_threads:
            raise ValueError(
                f"{len(traces)} traces for {config.n_threads} threads"
            )
        if capacity_policy not in ("vpc", "lru"):
            raise ValueError(f"unknown capacity policy {capacity_policy!r}")
        if kernel not in KERNELS:
            raise ValueError(f"unknown simulation kernel {kernel!r}")
        self.config = config
        self.kernel = kernel
        self.cycle = 0
        # Skip-ahead accounting (observability; all 0 under the cycle
        # kernel): cycles fast-forwarded, quiescence scans attempted,
        # and scans that actually skipped at least one cycle.
        self.skipped_cycles = 0
        self.skip_attempts = 0
        self.skips_taken = 0
        self.intra_thread_row = intra_thread_row
        self.vpc_selection = vpc_selection
        self.record_requests = record_requests
        # The trace sink (``--trace``: anything with ``emit``), one
        # more view on the lifecycle probe; QoS controller decisions
        # and CPI counter tracks emit to it too.  It and the request log
        # attach at the end of __init__ (components must exist first).
        self.telemetry = None
        self._request_log = None
        # Views on the lifecycle probe (telemetry.probe), created with
        # the first: cycle accounting (telemetry.cycles), request
        # tracing (telemetry.requests), windowed metrics
        # (telemetry.metrics), interference attribution
        # (telemetry.attribution) and the QoS monitor (core.monitor).
        # Each is None when disabled, so a disabled view is free.
        self.cycle_accounting = None
        self.request_tracer = None
        self.metrics_collector = None
        self.attributor = None
        self._probe = None
        # QoS control plane (repro.qos): attached on demand, None when
        # disabled — the simulation driver fires its epoch hook only
        # after a single ``is not None`` test per chunk.
        self.qos_controller = None

        self.registers = VPCControlRegisters(config.n_threads)
        self.registers.load_allocation(
            config.vpc.bandwidth_shares, config.vpc.capacity_shares
        )

        self.memory = MemoryController(
            config.memory, config.n_threads,
            shares=config.vpc.bandwidth_shares,
        )
        self.crossbar = Crossbar(config.n_threads, config.crossbar)

        # Arbiters grouped by the resource they guard ("tag", "data",
        # "bus"), so per-resource control-register writes reach exactly
        # the right arbiters (the paper's general allocation form).
        # Baseline (FCFS / RoW-FCFS) arbiters register here too, so
        # every arbiter gets its "bank<index>.<resource>" track name
        # regardless of policy; register writes stay VPC-only.
        self._vpc_arbiters: Dict[str, List[Arbiter]] = {
            "tag": [], "data": [], "bus": [], "l3": [],
        }
        # Optional shared L3: sits between the L2 banks and memory,
        # implementing the same memory-side interface.
        self.l3 = None
        if config.l3 is not None:
            from repro.cache.l3 import SharedL3
            self.l3 = SharedL3(
                config=config.l3,
                n_threads=config.n_threads,
                arbiter=self._make_arbiter("l3", config.l3.port_occupancy),
                policy=self._make_capacity_policy(capacity_policy,
                                                  ways=config.l3.ways),
                memory=self.memory,
            )
        backing = self.l3 if self.l3 is not None else self.memory
        self.l2 = SharedL2(
            config=config.l2,
            n_threads=config.n_threads,
            arbiter_factory=self._make_arbiter,
            policy_factory=lambda: self._make_capacity_policy(capacity_policy),
            respond=self._respond,
            memory=backing,
        )
        self.banks = self.l2.banks  # convenient direct access in tests

        if smt_degree < 1:
            raise ValueError("smt_degree must be >= 1")
        if config.n_threads % smt_degree:
            raise ValueError(
                f"{config.n_threads} threads not divisible by SMT degree "
                f"{smt_degree}"
            )
        self.smt_degree = smt_degree
        if smt_degree == 1:
            self.cores = [
                CoreModel(
                    core_id=tid,
                    config=config.core,
                    l1_config=config.l1,
                    trace=trace,
                    send_request=self._send_request,
                )
                for tid, trace in enumerate(traces)
            ]
            self._core_of_thread = list(self.cores)
        else:
            # The paper's "most general case": multi-threaded processors
            # with shared L1 caches (Section 1.1).
            from repro.cpu.smt import SMTCoreModel
            self.cores = []
            self._core_of_thread = [None] * config.n_threads
            for start in range(0, config.n_threads, smt_degree):
                thread_ids = list(range(start, start + smt_degree))
                core = SMTCoreModel(
                    thread_ids=thread_ids,
                    config=config.core,
                    l1_config=config.l1,
                    traces=[traces[tid] for tid in thread_ids],
                    send_request=self._send_request,
                )
                self.cores.append(core)
                for tid in thread_ids:
                    self._core_of_thread[tid] = core

        # Track names for the views and the trace; capacity managers
        # stamp victimizations with this system's clock.
        for index, core in enumerate(self.cores):
            core.mshrs.trace_name = f"core{index}.mshrs"
        for index, bank in enumerate(self.banks):
            bank.array.policy.trace_name = f"bank{index}.capacity"
        if self.l3 is not None:
            self.l3.array.policy.trace_name = "l3.capacity"
        for policy in self._capacity_policies():
            policy.clock = self._now

        # Let software share-register writes reprogram the live arbiters.
        self.registers.subscribe(self._on_register_write)

        if telemetry is not None:
            self.telemetry = telemetry
            self._attach_view(sink=telemetry)
        if record_requests:
            from repro.telemetry.histograms import RequestLog
            self._request_log = RequestLog()
            self._attach_view(log=self._request_log)

    # ------------------------------------------------------------------ #
    # Telemetry: views on the one lifecycle probe.  With none attached
    # every instrumentation point is a single ``is not None`` test — the
    # zero-overhead-when-disabled contract (docs/ARCHITECTURE.md
    # "Observability").
    # ------------------------------------------------------------------ #

    def attach_cycle_accounting(self, acct=None):
        """Enable per-thread CPI-stack accounting with one
        :class:`~repro.telemetry.cycles.CycleAccounting` instance.
        The accounting state is part of the system object graph, so
        checkpoints carry it for free.
        """
        from repro.telemetry.cycles import CycleAccounting
        if acct is None:
            acct = CycleAccounting(self.config.n_threads)
        self._attach_view(acct=acct)
        self.cycle_accounting = acct
        return acct

    def attach_request_tracing(self, tracer=None, exemplar_k: int = 8,
                               slo_rules=()):
        """Enable request-scope tracing with one
        :class:`~repro.telemetry.requests.RequestTracer`; the tracer
        state rides the system object graph through checkpoints.
        """
        from repro.telemetry.requests import RequestTracer
        if tracer is None:
            tracer = RequestTracer(self.config.n_threads,
                                   exemplar_k=exemplar_k,
                                   slo_rules=tuple(slo_rules))
        self._attach_view(tracer=tracer)
        self.request_tracer = tracer
        return tracer

    def attach_metrics(self, collector):
        """Enable windowed metrics with one
        :class:`~repro.telemetry.metrics.MetricsCollector` (pass it to
        :func:`~repro.system.simulator.run_simulation` too, which pulls
        its gauge samples at window boundaries)."""
        self._attach_view(metrics=collector)
        self.metrics_collector = collector
        return collector

    def attach_attribution(self, attributor=None):
        """Enable interference attribution with one
        :class:`~repro.telemetry.attribution.InterferenceAttributor`."""
        from repro.telemetry.attribution import InterferenceAttributor
        if attributor is None:
            attributor = InterferenceAttributor(self.config.n_threads)
        self._attach_view(attributor=attributor)
        self.attributor = attributor
        return attributor

    def attach_histograms(self, histograms=None):
        """Enable per-thread, per-stage latency histograms
        (``--histograms``) with one
        :class:`~repro.telemetry.histograms.LatencyHistograms`, handed
        every retired demand load."""
        from repro.telemetry.histograms import LatencyHistograms
        if histograms is None:
            histograms = LatencyHistograms()
        self._attach_view(histograms=histograms)
        return histograms

    def _attach_view(self, **views):
        """Attach views to the one lifecycle probe (created on first
        use) and return it.  The probe is wired only onto components
        whose events an attached view consumes:

        * banks for every view but the load counters, the histograms
          and the request log, which the probe feeds from request
          retirements alone;
        * cores for CPI stacks, MSHR files for CPI stacks, metrics and
          the trace;
        * the L3 port for the arbiter-level views (attribution, metrics,
          the QoS monitor, the trace), capacity managers for metrics
          and the trace;
        * DRAM channels for metrics and the trace, and for the
          lifecycle views unless an L3 sits in front of memory (below-L2
          time is then one dram_queue stage; the L3 port is not staged);
        * the crossbar for the trace alone.
        """
        from repro.telemetry.probe import LifecycleProbe
        if self.smt_degree != 1 and (views.get("acct") is not None
                                     or views.get("tracer") is not None):
            view = ("cycle accounting" if views.get("acct") is not None
                    else "request tracing")
            raise ValueError(
                f"{view} supports one hardware thread per core "
                "(smt_degree == 1); SMT attribution is not modelled yet"
            )
        probe = self._probe
        if probe is None:
            probe = self._probe = LifecycleProbe(self.config.n_threads,
                                                 dram_hooked=self.l3 is None)
        probe.attach(**views)
        collecting = probe.metrics is not None
        traced = probe.sink is not None
        if probe.staged or probe.arbitrated:
            for bank in self.banks:
                bank._probe = probe
        if probe.arbitrated and self.l3 is not None:
            self.l3._probe = probe
        if collecting or traced or (probe.staged and self.l3 is None):
            for channel in self.memory.channels:
                channel._probe = probe
        if probe.acct is not None:
            for core in self.cores:
                core._probe = probe
        if probe.acct is not None or collecting or traced:
            for core in self.cores:
                core.mshrs._probe = probe
        if collecting or traced:
            for policy in self._capacity_policies():
                policy._probe = probe
        if traced:
            self.crossbar._probe = probe
        return probe

    def _capacity_policies(self) -> List[ReplacementPolicy]:
        """Every replacement policy: one per bank, then the L3's."""
        policies = [bank.array.policy for bank in self.banks]
        if self.l3 is not None:
            policies.append(self.l3.array.policy)
        return policies

    def load_totals(self) -> Dict[str, List[int]]:
        """The run's per-thread load counters from the lifecycle probe:
        loads retired and their latency sums, cumulative (the QoS
        control plane diffs them at epoch boundaries)."""
        probe = self._probe
        if probe is None:
            raise RuntimeError("load counters need the lifecycle probe; "
                               "attach a view or a QoS controller first")
        return {"loads": list(probe.loads),
                "load_latency": list(probe.load_latency)}

    def attach_qos_controller(self, controller):
        """Enable the dynamic QoS control plane: bind a
        :class:`~repro.qos.QoSController` to this system.  The
        controller observes the run's load counters (:meth:`load_totals`,
        kept by the lifecycle probe, created here if none exists yet)
        and programs shares exclusively through :attr:`registers` — it
        gets no other handle into the machine.  Controller state is
        part of the system object graph, so checkpoints carry it.
        """
        if self.config.arbiter != "vpc":
            raise ValueError(
                "the QoS control plane programs VPC bandwidth shares; "
                f"arbiter {self.config.arbiter!r} has no share registers"
            )
        self._attach_view()
        controller.attach(self)
        self.qos_controller = controller
        return controller

    def _now(self) -> int:
        """Clock callable for components whose interfaces carry no
        timestamp (replacement policies)."""
        return self.cycle

    @property
    def request_log(self) -> List[MemoryRequest]:
        """Completed demand+prefetch loads, in retirement order (only
        populated with ``record_requests=True``; live list, so callers
        may ``clear()`` it between measurement intervals)."""
        log = self._request_log
        return log.requests if log is not None else []

    # ------------------------------------------------------------------ #
    # Component factories and wiring callbacks.
    # ------------------------------------------------------------------ #

    def _make_capacity_policy(
        self, capacity_policy: str, ways: Optional[int] = None
    ) -> ReplacementPolicy:
        if ways is None:
            ways = self.config.l2.ways
        if capacity_policy == "vpc" and self.config.n_threads > 1:
            return VPCCapacityManager(self.config.vpc.capacity_shares, ways)
        return LRUPolicy()

    def _make_arbiter(self, resource: str, base_latency: int) -> Arbiter:
        name = self.config.arbiter
        if name == "fcfs":
            arbiter: Arbiter = FCFSArbiter(self.config.n_threads,
                                           base_latency)
        elif name == "row-fcfs":
            arbiter = RoWFCFSArbiter(self.config.n_threads, base_latency)
        else:
            arbiter = VPCArbiter(
                self.config.n_threads,
                self.config.vpc.bandwidth_shares,
                base_latency,
                intra_thread_row=self.intra_thread_row,
                selection=self.vpc_selection,
            )
        # Telemetry track name matches the QoS monitor's historical
        # "bank<index>.<resource>" naming (index within the resource).
        arbiter.trace_name = f"bank{len(self._vpc_arbiters[resource])}.{resource}"
        self._vpc_arbiters[resource].append(arbiter)
        return arbiter

    def _on_register_write(self, resource: str, thread_id: int, share: float) -> None:
        if resource == "capacity":
            # Runtime beta reprogramming: push the (already-validated)
            # register vector into every live capacity manager.  Plain
            # LRU policies have no quotas and ignore the write.
            for policy in self._capacity_policies():
                if hasattr(policy, "set_quotas"):
                    policy.set_quotas(self.registers.capacity)
            return
        if self.config.arbiter != "vpc":
            return
        # Mirror the full (already-validated) register vector rather
        # than the single write: transactional reprogramming notifies
        # thread by thread, and a per-thread mirror could transiently
        # over-allocate an arbiter mid-update.
        shares = self.registers.bandwidth[resource]
        for arbiter in self._vpc_arbiters[resource]:
            arbiter.set_shares(shares)
        if resource == "data":
            # The L3 port tracks the data-array allocation (no separate
            # architected register in this model).
            for arbiter in self._vpc_arbiters["l3"]:
                arbiter.set_shares(shares)

    def _send_request(self, core_id: int, request: MemoryRequest, now: int) -> None:
        self.crossbar.send_request(core_id, request, now)

    def _respond(self, request: MemoryRequest, now: int) -> None:
        # Retirement point: loads at the critical word, stores at the
        # gather-buffer ACK — exactly once per accepted request.
        if self._probe is not None:
            self._probe.responded(request, now)
        self.crossbar.send_response(request.thread_id, request, now)

    # ------------------------------------------------------------------ #
    # Simulation stepping.
    # ------------------------------------------------------------------ #

    def bank_of(self, line: int) -> int:
        return self.l2.bank_of(line)

    def step(self) -> None:
        """Advance the whole machine one processor cycle."""
        now = self.cycle
        for tid in range(self.config.n_threads):
            core = self._core_of_thread[tid]
            for response in self.crossbar.deliver_responses(tid, now):
                core.on_response(response, now)
        for core in self.cores:
            core.tick(now)
        for core_id in range(self.config.n_threads):
            for request in self.crossbar.deliver_requests(core_id, now):
                self.l2.accept(request, now)
        self.l2.tick(now)
        if self.l3 is not None:
            self.l3.tick(now)
        self.memory.tick(now)
        self.cycle += 1

    def run(self, cycles: int) -> None:
        KERNELS[self.kernel](self, cycles)
        if self._probe is not None:
            # Views are read only between runs: fold what the run logged.
            self._probe.flush()

    # ------------------------------------------------------------------ #
    # Reporting helpers (interval-aware reporting lives in simulator.py).
    # ------------------------------------------------------------------ #

    def thread_dispatched(self, thread_id: int) -> int:
        """Committed-instruction count of one hardware thread."""
        core = self._core_of_thread[thread_id]
        if hasattr(core, "dispatched_of"):
            return core.dispatched_of(thread_id)
        return core.dispatched

    def utilizations(self) -> Dict[str, float]:
        """Whole-run resource utilizations averaged over banks."""
        if self.cycle == 0:
            return {"tag": 0.0, "data": 0.0, "bus": 0.0}
        return self.l2.utilizations(self.cycle)
