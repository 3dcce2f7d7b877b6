"""Property-based tests for the remaining substrate modules.

Complements the targeted unit tests with invariants under arbitrary
inputs: cache-array state consistency, store-gathering conservation,
DRAM timing sanity, core-model instruction accounting, and trace-file
round-tripping.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache_array import CacheArray
from repro.cache.replacement import LRUPolicy
from repro.cache.store_gather import StoreGatherBuffer
from repro.common.config import CoreConfig, L1Config, MemoryConfig
from repro.common.records import AccessType, make_request
from repro.cpu.core_model import CoreModel
from repro.cpu.isa import load, nonmem, store
from repro.memory.dram import DRAMChannel
from repro.workloads.tracefile import format_item, parse_line


# --------------------------------------------------------------------- #
# Cache array.
# --------------------------------------------------------------------- #

@st.composite
def array_operations(draw):
    sets = draw(st.sampled_from([2, 4, 8]))
    ways = draw(st.sampled_from([1, 2, 4]))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["lookup", "insert", "dirty", "invalidate"]),
            st.integers(min_value=0, max_value=8 * sets * ways),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1, max_size=120,
    ))
    return sets, ways, ops


@settings(max_examples=80, deadline=None)
@given(array_operations())
def test_cache_array_state_consistency(case):
    """After any operation sequence: no duplicate lines, per-set
    occupancy <= ways, every mapped line is findable, and LRU stacks
    are permutations of the way indices."""
    sets, ways, ops = case
    array = CacheArray(sets=sets, ways=ways, policy=LRUPolicy())
    for op, line, thread in ops:
        if op == "lookup":
            array.lookup(line)
        elif op == "insert":
            array.insert(line, thread)
            assert array.contains(line)
        elif op == "dirty":
            if array.contains(line):
                array.set_dirty(line)
                assert array.is_dirty(line)
        else:
            array.invalidate(line)
            assert not array.contains(line)
    for cset in array.built_sets():
        valid_lines = [cset.line_of[w] for w in range(ways) if cset.valid[w]]
        assert len(valid_lines) == len(set(valid_lines))
        assert sorted(cset.lru) == list(range(ways))
        for way in range(ways):
            if cset.valid[way]:
                assert cset.find(cset.line_of[way]) == way


def _scanned_occupancy(array: CacheArray, n_threads: int):
    """Reference occupancy: scan every way of every set."""
    counts = [0] * n_threads
    for cset in array.built_sets():
        for way in range(cset.ways):
            if cset.valid[way] and 0 <= cset.owner[way] < n_threads:
                counts[cset.owner[way]] += 1
    return counts


@settings(max_examples=80, deadline=None)
@given(array_operations(), st.sampled_from(["lru", "vpc"]))
def test_incremental_occupancy_matches_scan(case, policy_name):
    """The per-owner line counts kept by insert and invalidate equal a
    full scan after any mix of free-way fills, evictions, refetches by
    another thread, and invalidations — under thread-oblivious LRU and
    under the quota-keeping capacity manager."""
    from repro.core.capacity import VPCCapacityManager

    sets, ways, ops = case
    n_threads = 4
    policy = (LRUPolicy() if policy_name == "lru"
              else VPCCapacityManager([1 / n_threads] * n_threads, ways))
    array = CacheArray(sets=sets, ways=ways, policy=policy)
    for op, line, thread in ops:
        if op == "insert":
            array.insert(line, thread)
        elif op == "invalidate":
            array.invalidate(line)
        elif op == "dirty" and array.contains(line):
            # A refetch of a resident line by the next thread over.
            array.insert(line, (thread + 1) % n_threads)
        else:
            array.lookup(line)
        assert (array.occupancy_by_thread(n_threads)
                == _scanned_occupancy(array, n_threads))


# --------------------------------------------------------------------- #
# Store gathering buffer.
# --------------------------------------------------------------------- #

@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=80),
    st.integers(min_value=2, max_value=8),
)
def test_store_gather_conservation(lines, entries):
    """accepted stores == merged + currently buffered + retired."""
    high_water = max(1, entries - 2)
    sgb = StoreGatherBuffer(entries=entries, high_water=high_water)
    accepted = 0
    for line in lines:
        request = make_request(0, line * 64, AccessType.WRITE, 64)
        outcome = sgb.try_add_store(request)
        if outcome != "full":
            accepted += 1
        while sgb.wants_retire():
            sgb.pop_retire()
    assert accepted == sgb.stores_received
    assert sgb.stores_received == (
        sgb.stores_merged + sgb.stores_retired + sgb.occupancy
    )
    assert sgb.occupancy < sgb.high_water


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40))
def test_store_gather_occupancy_bounded(lines):
    sgb = StoreGatherBuffer(entries=4, high_water=3)
    for line in lines:
        sgb.try_add_store(make_request(0, line * 64, AccessType.WRITE, 64))
        assert sgb.occupancy <= sgb.capacity


# --------------------------------------------------------------------- #
# DRAM channel timing.
# --------------------------------------------------------------------- #

@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=500),
              st.integers(min_value=0, max_value=63)),
    min_size=1, max_size=16,
))
def test_dram_reads_complete_with_sane_latency(arrivals):
    """Every read completes, never earlier than the unloaded latency and
    never before its own arrival + latency."""
    config = MemoryConfig()
    channel = DRAMChannel(config)
    completions = {}
    pending = sorted(arrivals)
    idle = channel.idle_latency()
    index = 0
    for now in range(3000):
        while (index < len(pending) and pending[index][0] <= now
               and channel.can_accept_read()):
            arrive, line = pending[index]
            completions[index] = None
            def make_sink(key, arrive=arrive):
                def sink(cycle, key=key):
                    completions[key] = cycle
                return sink
            channel.enqueue_read(line, make_sink(index), now)
            pending[index] = (arrive, line, now)
            index += 1
        channel.tick(now)
    done = [c for c in completions.values() if c is not None]
    assert len(done) == len(completions)
    for key, cycle in completions.items():
        enqueue_time = pending[key][2]
        assert cycle >= enqueue_time + idle


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_dram_bus_bandwidth_respected(n_reads):
    """Total data time can never exceed elapsed time: completions of n
    bursts span at least (n-1) * burst windows."""
    config = MemoryConfig()
    channel = DRAMChannel(config)
    completions = []
    for i in range(n_reads):
        if channel.can_accept_read():
            channel.enqueue_read(i, completions.append, 0)
    for now in range(20_000):
        channel.tick(now)
    completions.sort()
    burst = config.burst_cycles * config.clock_divider
    if len(completions) >= 2:
        span = completions[-1] - completions[0]
        assert span >= (len(completions) - 1) * burst


# --------------------------------------------------------------------- #
# Core model accounting.
# --------------------------------------------------------------------- #

@st.composite
def finite_traces(draw):
    items = []
    total = 0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(["N", "L", "S"]))
        if kind == "N":
            count = draw(st.integers(min_value=1, max_value=20))
            items.append(nonmem(count))
            total += count
        elif kind == "L":
            addr = draw(st.integers(min_value=0, max_value=1 << 20)) * 4
            items.append(load(addr, draw(st.booleans())))
            total += 1
        else:
            addr = draw(st.integers(min_value=0, max_value=1 << 20)) * 4
            items.append(store(addr))
            total += 1
    return items, total


@settings(max_examples=50, deadline=None)
@given(finite_traces())
def test_core_dispatches_every_instruction_exactly_once(case):
    """With all responses answered promptly, a finite trace completes
    and the dispatched count equals the trace's instruction count."""
    items, total = case
    outstanding = []
    core = CoreModel(
        core_id=0,
        config=CoreConfig(),
        l1_config=L1Config(),
        trace=iter(items),
        send_request=lambda cid, req, now: outstanding.append(req),
    )
    for now in range(8 * total + 200):
        core.tick(now)
        while outstanding:
            core.on_response(outstanding.pop(0), now)
        if core.done and not core.outstanding_loads:
            break
    assert core.done
    assert core.dispatched == total


@settings(max_examples=50, deadline=None)
@given(finite_traces())
def test_core_never_exceeds_issue_width(case):
    items, total = case
    outstanding = []
    core = CoreModel(
        core_id=0, config=CoreConfig(issue_width=3), l1_config=L1Config(),
        trace=iter(items),
        send_request=lambda cid, req, now: outstanding.append(req),
    )
    previous = 0
    for now in range(8 * total + 200):
        core.tick(now)
        assert core.dispatched - previous <= 3
        previous = core.dispatched
        while outstanding:
            core.on_response(outstanding.pop(0), now)
        if core.done:
            break


# --------------------------------------------------------------------- #
# Trace-file format.
# --------------------------------------------------------------------- #

trace_items = st.one_of(
    st.builds(nonmem, st.integers(min_value=1, max_value=10_000)),
    st.builds(load, st.integers(min_value=0, max_value=1 << 40), st.booleans()),
    st.builds(store, st.integers(min_value=0, max_value=1 << 40)),
)


@settings(max_examples=100, deadline=None)
@given(trace_items)
def test_tracefile_format_roundtrip(item):
    assert parse_line(format_item(item)) == item
