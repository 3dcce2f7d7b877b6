"""Unit tests for the window/MLP-limited core model."""

import pytest

from repro.common.config import CoreConfig, L1Config
from repro.common.records import AccessType
from repro.cpu.core_model import CoreModel
from repro.cpu.isa import load, nonmem, store


class Fabric:
    """Captures requests the core sends; can answer them on demand."""

    def __init__(self):
        self.requests = []

    def send(self, core_id, request, now):
        self.requests.append(request)


def make_core(trace, issue_width=5, window=100, mshrs=16, store_queue=32):
    fabric = Fabric()
    core = CoreModel(
        core_id=0,
        config=CoreConfig(issue_width=issue_width, window_size=window,
                          store_queue=store_queue),
        l1_config=L1Config(mshrs=mshrs),
        trace=iter(trace),
        send_request=fabric.send,
    )
    return core, fabric


class TestNonMemory:
    def test_issue_width_bounds_ipc(self):
        core, _ = make_core([nonmem(1000)], issue_width=4)
        for now in range(100):
            core.tick(now)
        assert core.dispatched == 400
        assert core.ipc() == pytest.approx(4.0)

    def test_finite_trace_completes(self):
        core, _ = make_core([nonmem(7)])
        for now in range(10):
            core.tick(now)
        assert core.done
        assert core.dispatched == 7


class TestLoads:
    def test_l1_hit_does_not_send_request(self):
        core, fabric = make_core([load(0x100), nonmem(10)])
        core.l1.fill(0x100)
        core.tick(0)
        assert not fabric.requests
        assert core.dispatched >= 1

    def test_l1_miss_sends_l2_read(self):
        core, fabric = make_core([load(0x100), nonmem(10)])
        core.tick(0)
        assert len(fabric.requests) == 1
        assert fabric.requests[0].access is AccessType.READ

    def test_secondary_miss_coalesces(self):
        core, fabric = make_core([load(0x100), load(0x104), nonmem(10)])
        core.tick(0)
        assert len(fabric.requests) == 1  # same line: one L2 read
        assert core.outstanding_loads == 2

    def test_response_completes_and_fills_l1(self):
        core, fabric = make_core([load(0x100), nonmem(10)])
        core.tick(0)
        core.on_response(fabric.requests[0], now=20)
        assert core.outstanding_loads == 0
        assert core.l1.load(0x100)

    def test_mshr_limit_stalls(self):
        trace = [load(i * 64) for i in range(8)] + [nonmem(10)]
        core, fabric = make_core(trace, mshrs=4)
        for now in range(10):
            core.tick(now)
        assert len(fabric.requests) == 4
        assert core.stall_cycles > 0

    def test_window_limit_stalls_dispatch(self):
        """An incomplete load blocks dispatch window_size ahead."""
        core, fabric = make_core([load(0x40), nonmem(1000)], window=20)
        for now in range(50):
            core.tick(now)
        assert core.dispatched == 1 + 19  # load + window-limited run

    def test_dependent_load_waits_for_all_loads(self):
        trace = [load(0x40), load(0x1040, dependent=True), nonmem(10)]
        core, fabric = make_core(trace)
        for now in range(5):
            core.tick(now)
        assert len(fabric.requests) == 1   # dependent load held back
        core.on_response(fabric.requests[0], now=5)
        core.tick(6)
        assert len(fabric.requests) == 2


class TestStores:
    def test_store_sends_write_through(self):
        core, fabric = make_core([store(0x200), nonmem(10)])
        core.tick(0)
        assert fabric.requests[0].access is AccessType.WRITE
        assert core.outstanding_stores == 1

    def test_store_ack_releases_credit(self):
        core, fabric = make_core([store(0x200), nonmem(10)])
        core.tick(0)
        core.on_response(fabric.requests[0], now=3)
        assert core.outstanding_stores == 0

    def test_store_queue_backpressure(self):
        trace = [store(i * 64) for i in range(10)] + [nonmem(5)]
        core, fabric = make_core(trace, store_queue=4)
        for now in range(10):
            core.tick(now)
        assert len(fabric.requests) == 4

    def test_unmatched_ack_rejected(self):
        core, fabric = make_core([store(0x200), nonmem(5)])
        core.tick(0)
        core.on_response(fabric.requests[0], now=1)
        with pytest.raises(RuntimeError):
            core.on_response(fabric.requests[0], now=2)

    def test_store_does_not_block_window(self):
        """Stores retire into the store queue; only loads hold the window."""
        core, _ = make_core([store(0x200), nonmem(1000)], window=20)
        for now in range(50):
            core.tick(now)
        assert core.dispatched > 100


class TestIPC:
    def test_ipc_over_explicit_cycles(self):
        core, _ = make_core([nonmem(100)], issue_width=5)
        for now in range(100):
            core.tick(now)
        assert core.ipc(cycles=50) == pytest.approx(2.0)

    def test_zero_cycles(self):
        core, _ = make_core([nonmem(5)])
        assert core.ipc() == 0.0


class TestDispatchLoop:
    """Pins of the dispatch loop's per-tick behaviour."""

    def test_window_stall_drops_the_pulled_item(self):
        """Pins today's behaviour, a known model defect (ROADMAP item 3):
        a store pulled from the trace when the window is full is dropped,
        not stashed, so it never reaches the L1 or the L2."""
        trace = [load(0x40), nonmem(19), store(0x200), nonmem(5),
                 store(0x300), nonmem(100)]
        core, fabric = make_core(trace, window=20)
        for now in range(10):
            core.tick(now)
        assert [(r.access, r.addr) for r in fabric.requests] == [
            (AccessType.READ, 0x40)]
        assert core.dispatched == 20
        assert core._current is None
        core.on_response(fabric.requests[0], now=10)
        for now in range(10, 20):
            core.tick(now)
        sent = [r.addr for r in fabric.requests if r.access is AccessType.WRITE]
        assert sent == [0x300]
        assert core.dispatched == 70

    def test_one_tick_splits_its_budget_across_items(self):
        trace = [nonmem(2), load(0x100), store(0x200), nonmem(10)]
        core, fabric = make_core(trace, issue_width=5)
        core.l1.fill(0x100)
        core.tick(0)
        assert core.dispatched == 5
        assert [r.access for r in fabric.requests] == [AccessType.WRITE]
        assert core._nonmem_left == 9

    def test_trace_ending_mid_tick_sets_done_without_a_stall(self):
        core, fabric = make_core([nonmem(2), store(0x80)])
        core.tick(0)
        assert core.dispatched == 3
        assert [(r.access, r.addr) for r in fabric.requests] == [
            (AccessType.WRITE, 0x80)]
        assert core.done
        assert core.stall_cycles == 0
