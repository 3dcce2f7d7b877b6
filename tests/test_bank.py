"""Unit tests for the L2 cache bank pipeline, including the Figure-4
timing reproduction (16-cycle critical word, 22-cycle full line)."""

import pytest

from repro.cache.bank import CacheBank
from repro.cache.cache_array import CacheArray
from repro.cache.replacement import LRUPolicy
from repro.common.config import L2Config
from repro.common.records import AccessType, make_request
from repro.core.arbiter import FCFSArbiter


class StubMemory:
    """Fixed-latency memory that always accepts."""

    def __init__(self, latency=50):
        self.latency = latency
        self.reads = []
        self.writes = []

    def can_accept_read(self, thread_id):
        return True

    def can_accept_write(self, thread_id):
        return True

    def enqueue_read(self, thread_id, line, notify, now, tracked=False):
        self.reads.append((thread_id, line, now))
        notify(now + self.latency)

    def enqueue_write(self, thread_id, line, now):
        self.writes.append((thread_id, line, now))


def make_bank(n_threads=1, memory=None, config=None):
    config = config or L2Config(banks=1)
    memory = memory or StubMemory()
    responses = []
    array = CacheArray(config.sets, config.ways, LRUPolicy(), index_stride=1)
    bank = CacheBank(
        bank_id=0,
        n_threads=n_threads,
        config=config,
        array=array,
        arbiter_factory=lambda name, latency: FCFSArbiter(n_threads),
        respond=lambda request, now: responses.append((request, now)),
        memory=memory,
    )
    return bank, responses, memory


def run(bank, cycles, start=0):
    for now in range(start, start + cycles):
        bank.tick(now)
    return start + cycles


def read(line, thread=0):
    return make_request(thread, line * 64, AccessType.READ, 64)


def write(line, thread=0):
    return make_request(thread, line * 64, AccessType.WRITE, 64)


class TestReadHitTiming:
    def test_figure4_critical_word_at_14_in_bank(self):
        """Tag(4) + data array(8) + first bus beat(2) = 14 bank cycles;
        plus the 2-cycle request crossbar = the paper's 16-cycle total."""
        bank, responses, _ = make_bank()
        # Warm the line without timing (install directly).
        bank.array.insert(5, 0)
        request = read(5)
        bank.accept(request, 0)
        run(bank, 40)
        assert responses, "read hit never responded"
        _, when = responses[0]
        assert when == 14
        assert request.critical_word_cycle == 14

    def test_figure4_full_line_at_20_in_bank(self):
        """Bus occupies 8 cycles: full line done at 12+8=20 (paper: 22
        including the request crossbar)."""
        bank, _, _ = make_bank()
        bank.array.insert(5, 0)
        bank.accept(read(5), 0)
        run(bank, 40)
        assert bank.bus.meter.busy_until == 20

    def test_stage_timestamps_recorded(self):
        bank, _, _ = make_bank()
        bank.array.insert(5, 0)
        request = read(5)
        bank.accept(request, 0)
        run(bank, 40)
        assert request.tag_done_cycle == 4
        assert request.data_done_cycle == 12
        assert request.completed_cycle == 20

    def test_back_to_back_reads_pipeline(self):
        """A second hit to the same bank overlaps in the pipeline: its
        tag access starts while the first is in the data array."""
        bank, responses, _ = make_bank()
        bank.array.insert(5, 0)
        bank.array.insert(9, 0)
        bank.accept(read(5), 0)
        bank.accept(read(9), 0)
        run(bank, 60)
        times = sorted(when for _, when in responses)
        assert times[0] == 14
        # Second read: admitted at cycle 1, tag 1..5 wait data until 12,
        # data 12..20, bus beat at 22.
        assert times[1] == 22


class TestWriteTiming:
    def test_write_hit_two_data_accesses(self):
        """ECC read-merge-write: the data array is busy 16 cycles."""
        config = L2Config(banks=1, sgb_high_water=1, sgb_entries=8)
        bank, _, _ = make_bank(config=config)
        bank.array.insert(5, 0)
        bank.accept(write(5), 0)
        run(bank, 60)
        assert bank.data.meter.busy_cycles == 16
        assert bank.array.is_dirty(5)

    def test_write_does_not_use_bus(self):
        config = L2Config(banks=1, sgb_high_water=1)
        bank, _, _ = make_bank(config=config)
        bank.array.insert(5, 0)
        bank.accept(write(5), 0)
        run(bank, 60)
        assert bank.bus.meter.busy_cycles == 0

    def test_store_ack_sent_at_gathering(self):
        """The store-queue credit returns when the SGB accepts the store,
        not when the write retires."""
        bank, responses, _ = make_bank()
        request = write(5)
        bank.accept(request, 0)
        run(bank, 3)
        assert responses and responses[0][0] is request


class TestReadMiss:
    def test_miss_goes_to_memory_and_fills(self):
        bank, responses, memory = make_bank()
        request = read(7)
        bank.accept(request, 0)
        run(bank, 200)
        assert memory.reads and memory.reads[0][1] == 7
        assert responses[0][0] is request
        assert bank.array.contains(7)
        assert bank.counters.get("read_misses") == 1
        assert bank.counters.get("fills") == 1

    def test_miss_response_after_memory_latency(self):
        bank, responses, _ = make_bank(memory=StubMemory(latency=50))
        bank.accept(read(7), 0)
        run(bank, 200)
        _, when = responses[0]
        # tag 4 + miss-status tag 4 + memory 50 + bus beat 2 = 60.
        assert when == 60

    def test_second_access_hits_after_fill(self):
        bank, responses, _ = make_bank()
        bank.accept(read(7), 0)
        run(bank, 200)
        bank.accept(read(7), 200)
        run(bank, 40, start=200)
        assert bank.counters.get("read_hits") == 1

    def test_miss_status_tag_access_optional(self):
        config = L2Config(banks=1, miss_status_tag_access=False)
        bank, responses, _ = make_bank(config=config, memory=StubMemory(latency=50))
        bank.accept(read(7), 0)
        run(bank, 200)
        _, when = responses[0]
        assert when == 56  # tag 4 + memory 50 + bus beat 2


class TestWriteMiss:
    def test_write_allocate(self):
        config = L2Config(banks=1, sgb_high_water=1)
        bank, _, memory = make_bank(config=config)
        bank.accept(write(9), 0)
        run(bank, 300)
        assert memory.reads, "write miss must fetch the line"
        assert bank.array.contains(9)
        assert bank.array.is_dirty(9)


class TestWriteback:
    def test_dirty_victim_written_back(self):
        config = L2Config(banks=1, sgb_high_water=1)
        bank, _, memory = make_bank(config=config)
        sets = config.sets
        ways = config.ways
        # Fill one set with dirty lines, then force one more fill.
        for i in range(ways):
            bank.array.insert(1 + i * sets, 0)
            bank.array.set_dirty(1 + i * sets)
        bank.accept(read(1 + ways * sets), 0)
        run(bank, 400)
        assert memory.writes, "dirty victim should be written back"
        assert bank.counters.get("writebacks") == 1


class TestConflictsAndLimits:
    def test_same_line_requests_serialize(self):
        """A request to a line already owned by a state machine waits."""
        bank, responses, _ = make_bank(memory=StubMemory(latency=100))
        bank.accept(read(7), 0)
        bank.tick(0)
        bank.accept(read(7), 1)
        run(bank, 3, start=1)
        assert len(bank._sms) == 1  # second request not admitted yet
        run(bank, 400, start=4)
        assert len(responses) == 2

    def test_state_machine_limit(self):
        config = L2Config(banks=1, state_machines_per_thread=2)
        bank, _, _ = make_bank(config=config, memory=StubMemory(latency=500))
        for line in range(5):
            bank.accept(read(line), 0)
        run(bank, 10)
        assert len(bank._sms) == 2

    def test_row_inversion_blocks_loads(self):
        """With the SGB at its high-water mark, loads stop bypassing."""
        config = L2Config(banks=1, sgb_entries=8, sgb_high_water=2)
        bank, _, _ = make_bank(config=config)
        bank.array.insert(50, 0)
        bank.accept(write(10), 0)
        bank.accept(write(11), 0)   # occupancy 2 == high water
        bank.accept(read(50), 0)
        bank.tick(0)
        bank.tick(1)
        # First admission must be a store (loads inverted), not the load.
        assert bank.counters.get("writes_admitted") >= 1

    def test_utilization_reporting(self):
        bank, _, _ = make_bank()
        bank.array.insert(5, 0)
        bank.accept(read(5), 0)
        run(bank, 100)
        utils = bank.utilizations(100)
        assert utils["tag"] == pytest.approx(0.04)
        assert utils["data"] == pytest.approx(0.08)
        assert utils["bus"] == pytest.approx(0.08)

    def test_busy_drains(self):
        bank, _, _ = make_bank()
        bank.array.insert(5, 0)
        bank.accept(read(5), 0)
        assert bank.busy()
        run(bank, 100)
        assert not bank.busy()
