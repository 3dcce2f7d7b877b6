"""Property-based tests for the VPC arbiter's bandwidth guarantee.

These drive the arbiter the way the cache bank does (cycle-stepped,
non-preemptible resource, occupancy = latency * quanta) on random
traffic and check the paper's core claims:

* a continuously backlogged thread receives at least its share of the
  resource, minus two maximum service times: one at the start of the
  horizon (the preemption penalty) and one for the partial service at
  its end;
* the resource never idles while work is queued (work conservation);
* intra-thread RoW reordering never changes inter-thread service totals;
* with RoW off, the arbiter is fair queuing: it grants in exactly the
  order of an arrival-tagged reference (Section 3.2) whose start tags
  follow the paper's Eq. 6, in both selection modes.
"""

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbiter import ArbiterEntry
from repro.core.vpc_arbiter import VPCArbiter

LATENCY = 8


def simulate(arbiter, traffic, horizon):
    """Cycle-stepped service of `traffic` = {cycle: [(tid, is_write)]}.

    Returns per-thread service cycles granted within `horizon`, and the
    grant order as indices into the arrival sequence (by cycle, then
    list order).
    """
    service = [0] * arbiter.n_threads
    grants = []
    busy_until = 0
    arrivals = 0
    for now in range(horizon):
        for tid, is_write in traffic.get(now, ()):
            arbiter.enqueue(
                ArbiterEntry(
                    thread_id=tid, payload=arrivals, is_write=is_write,
                    service_quanta=2 if is_write else 1,
                ),
                now,
            )
            arrivals += 1
        if now >= busy_until and len(arbiter):
            granted = arbiter.select(now)
            duration = LATENCY * granted.service_quanta
            busy_until = now + duration
            service[granted.thread_id] += duration
            grants.append(granted.payload)
    return service, grants


class FairQueuingReference:
    """Fair queuing with per-request tags (Section 3.2), FIFO per thread.

    Each request is tagged once, when it arrives.  Its virtual start is
    ``max(arrival, F_prev)`` if its thread's queue is empty, else
    ``F_prev`` -- the start ``R.S`` gives it under Eqs. 3'/6.
    ``textbook=True`` takes ``max(arrival, F_prev)`` for every request
    (Eq. 1).  The finish is ``F = S + quanta * L / phi`` (Eq. 2); a zero
    share gives ``F = inf`` and leaves ``F_prev`` alone.  A free
    resource grants the head with the smallest (rank, arrival, enqueue
    order), where the rank is ``F`` (``selection="finish"``) or ``S``
    (``"start"``), and an infinite ``F`` always ranks last.
    """

    def __init__(self, shares, selection="finish", textbook=False):
        self.n_threads = len(shares)
        self.selection = selection
        self.textbook = textbook
        # L / phi held once, as the arbiter's R.L register holds it, so
        # both compute every tag with the same float operations and
        # break exact ties the same way.
        self._virtual_service = [LATENCY / s if s else math.inf
                                 for s in shares]
        self._last_finish = [0.0] * self.n_threads
        self._queues = [deque() for _ in shares]

    def __len__(self):
        return sum(map(len, self._queues))

    def enqueue(self, entry, now):
        tid = entry.thread_id
        queue = self._queues[tid]
        start = self._last_finish[tid]
        if self.textbook or not queue:
            start = max(float(now), start)
        finish = start + entry.service_quanta * self._virtual_service[tid]
        if finish != math.inf:
            self._last_finish[tid] = finish
        rank = (finish if self.selection == "finish" or finish == math.inf
                else start)
        queue.append(((rank, now, entry.order), entry))

    def select(self, now):
        queue = min((q for q in self._queues if q), key=lambda q: q[0][0])
        return queue.popleft()[1]


@st.composite
def backlogged_scenarios(draw):
    """Thread 0 is permanently backlogged; others send random traffic."""
    n_threads = draw(st.integers(min_value=2, max_value=4))
    share0 = draw(st.sampled_from([0.25, 0.4, 0.5, 0.75]))
    rest = (1.0 - share0) / (n_threads - 1)
    shares = [share0] + [rest] * (n_threads - 1)
    horizon = draw(st.integers(min_value=400, max_value=1200))
    traffic = {0: [(0, False)] * 64}
    # Keep thread 0 backlogged: top it up continuously.
    for cycle in range(0, horizon, LATENCY):
        traffic.setdefault(cycle, []).append((0, False))
    n_others = draw(st.integers(min_value=0, max_value=120))
    for _ in range(n_others):
        cycle = draw(st.integers(min_value=0, max_value=horizon - 1))
        tid = draw(st.integers(min_value=1, max_value=n_threads - 1))
        is_write = draw(st.booleans())
        traffic.setdefault(cycle, []).append((tid, is_write))
    return shares, traffic, horizon


@settings(max_examples=40, deadline=None)
@given(backlogged_scenarios())
def test_backlogged_thread_gets_its_share(scenario):
    """Minimum-bandwidth guarantee with the non-preemption penalty.

    Worst-case slack: one maximum service time (a write, 2*L) at the
    start of the interval plus the partial service at the end.
    """
    shares, traffic, horizon = scenario
    arbiter = VPCArbiter(len(shares), shares, LATENCY)
    service, _ = simulate(arbiter, traffic, horizon)
    max_service = 2 * LATENCY
    guaranteed = shares[0] * horizon - 2 * max_service
    assert service[0] >= guaranteed, (service, shares, horizon)


@settings(max_examples=40, deadline=None)
@given(backlogged_scenarios())
def test_work_conservation_under_backlog(scenario):
    """Thread 0 never drains, so the resource must never idle."""
    shares, traffic, horizon = scenario
    arbiter = VPCArbiter(len(shares), shares, LATENCY)
    service, _ = simulate(arbiter, traffic, horizon)
    # Total granted service covers the horizon minus at most one
    # in-flight service window.
    assert sum(service) >= horizon - 2 * LATENCY


@settings(max_examples=30, deadline=None)
@given(backlogged_scenarios())
def test_row_reordering_preserves_inter_thread_totals(scenario):
    """Section 4.1.1: intra-thread reordering must not shift bandwidth
    between threads."""
    shares, traffic, horizon = scenario
    with_row, _ = simulate(
        VPCArbiter(len(shares), shares, LATENCY, intra_thread_row=True),
        traffic, horizon,
    )
    without_row, _ = simulate(
        VPCArbiter(len(shares), shares, LATENCY, intra_thread_row=False),
        traffic, horizon,
    )
    for got, expected in zip(with_row, without_row):
        assert abs(got - expected) <= 2 * LATENCY


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from([0.25, 0.5]), min_size=2, max_size=4),
    st.integers(min_value=500, max_value=1500),
)
def test_saturated_threads_split_proportionally(raw_shares, horizon):
    """All threads saturated -> service proportional to shares."""
    total = sum(raw_shares)
    shares = [s / total for s in raw_shares]
    traffic = {}
    for cycle in range(0, horizon, LATENCY):
        traffic[cycle] = [(tid, False) for tid in range(len(shares))]
    arbiter = VPCArbiter(len(shares), shares, LATENCY)
    service, _ = simulate(arbiter, traffic, horizon)
    for tid, share in enumerate(shares):
        expected = share * sum(service)
        assert abs(service[tid] - expected) <= 3 * LATENCY, (service, shares)


@st.composite
def fair_queuing_schedules(draw):
    """2-4 threads (a share may be 0; the shares sum to 0.8 or 1) and
    1-40 random arrivals over 120 cycles."""
    n_threads = draw(st.integers(min_value=2, max_value=4))
    weights = draw(st.lists(st.integers(min_value=0, max_value=4),
                            min_size=n_threads, max_size=n_threads))
    total = draw(st.sampled_from([0.8, 1.0]))
    shares = [total * w / sum(weights) if sum(weights) else 0.0
              for w in weights]
    arrivals = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=119),
                  st.integers(min_value=0, max_value=n_threads - 1),
                  st.booleans()),
        min_size=1, max_size=40,
    ))
    traffic = {}
    for cycle, tid, is_write in arrivals:
        traffic.setdefault(cycle, []).append((tid, is_write))
    return shares, traffic, len(arrivals)


@settings(max_examples=200, deadline=None)
@given(fair_queuing_schedules(), st.sampled_from(["finish", "start"]))
def test_arbiter_grants_in_fair_queuing_order(schedule, selection):
    """Section 3.2 -> 4.1.1: with RoW off, `R.S` and Eqs. 3'-6 tag and
    rank every request exactly as arrival-tagged fair queuing with
    Eq. 6 start tags does, so the two grant the same requests in the
    same order."""
    shares, traffic, n_arrivals = schedule
    horizon = 120 + 2 * LATENCY * n_arrivals  # room to drain every request
    arbiter = VPCArbiter(len(shares), shares, LATENCY,
                         intra_thread_row=False, selection=selection)
    _, got = simulate(arbiter, traffic, horizon)
    _, expected = simulate(FairQueuingReference(shares, selection),
                           traffic, horizon)
    assert len(expected) == n_arrivals
    assert got == expected, (shares, traffic)


def test_arbiter_departs_from_textbook_tagging():
    """Eqs. 3'/6: a request that joins a non-empty buffer starts at
    `R.S`, not at its arrival, so VPC is not textbook WFQ (Eq. 1).

    Thread 1's write arrives at cycle 23 while its read from cycle 8
    still waits, so `R.S` starts it at that read's virtual finish,
    19.94, not at 23.  The head start carries through thread 1's later
    reads: at cycle 63 its read from cycle 59 finishes at virtual time
    79.64, ahead of thread 0's read at 79.73, and is granted first.
    Textbook tagging starts the write at 23 and grants thread 0 first.
    """
    shares = [0.33, 0.67]
    traffic = {7: [(0, True)], 8: [(1, False)], 12: [(0, False)],
               23: [(1, True)], 42: [(1, False)], 54: [(1, False)],
               59: [(1, False)]}
    horizon = 200
    _, vpc = simulate(VPCArbiter(2, shares, LATENCY, intra_thread_row=False),
                      traffic, horizon)
    _, eq6 = simulate(FairQueuingReference(shares), traffic, horizon)
    _, textbook = simulate(FairQueuingReference(shares, textbook=True),
                           traffic, horizon)
    assert vpc == eq6 == [0, 1, 3, 4, 5, 6, 2]
    assert textbook == [0, 1, 3, 4, 5, 2, 6]
