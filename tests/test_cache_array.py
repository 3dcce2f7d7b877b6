"""Unit tests for the set-associative cache array."""

import pickle

import pytest

from repro.cache.cache_array import CacheArray, CacheSet
from repro.cache.replacement import LRUPolicy


def make_array(sets=4, ways=2, stride=1):
    return CacheArray(sets=sets, ways=ways, policy=LRUPolicy(), index_stride=stride)


class TestGeometry:
    def test_set_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            make_array(sets=3)

    def test_way_count_positive(self):
        with pytest.raises(ValueError):
            make_array(ways=0)

    def test_set_index_with_stride(self):
        """Bank b of N sees lines line % N == b; index uses line // N."""
        array = make_array(sets=4, stride=2)
        assert array.set_index(0) == 0
        assert array.set_index(2) == 1
        assert array.set_index(8) == 0


class TestLookupInsert:
    def test_miss_then_hit(self):
        array = make_array()
        assert not array.lookup(5)
        array.insert(5, thread_id=0)
        assert array.lookup(5)
        assert array.hits == 1 and array.misses == 1

    def test_contains_has_no_side_effects(self):
        array = make_array()
        assert not array.contains(5)
        assert array.misses == 0

    def test_lru_eviction_order(self):
        array = make_array(sets=1, ways=2)
        array.insert(1, 0)
        array.insert(2, 0)
        array.lookup(1)              # 2 becomes LRU
        eviction = array.insert(3, 0)
        assert eviction.victim_line == 2

    def test_insert_existing_line_is_refresh(self):
        array = make_array(sets=1, ways=2)
        array.insert(1, 0)
        eviction = array.insert(1, 1)
        assert eviction.victim_line is None
        assert array.occupancy_by_thread(2) == [0, 1]  # ownership moved

    def test_free_ways_used_before_eviction(self):
        array = make_array(sets=1, ways=4)
        for line in range(4):
            assert array.insert(line, 0).victim_line is None
        assert array.insert(4, 0).victim_line is not None


class TestLRUVictim:
    def test_victim_way_matches_the_snapshot_choice(self):
        # The array hands LRU the set itself; on every full set the way
        # it reads off the recency stack is the snapshot policy's pick.
        array = make_array(sets=2, ways=4)
        policy = array.policy
        for step, line in enumerate([0, 2, 4, 6, 2, 8, 0, 10, 4, 12, 6]):
            if step % 3 == 0:
                array.lookup(line)
            array.insert(line, step % 2)
            for cset in array.built_sets():
                if all(cset.valid):
                    assert policy.victim_way(cset, 0) == (
                        policy.choose_victim(cset.view(), 0))


class TestDirtyState:
    def test_dirty_roundtrip(self):
        array = make_array()
        array.insert(7, 0)
        assert not array.is_dirty(7)
        array.set_dirty(7)
        assert array.is_dirty(7)

    def test_eviction_reports_dirty(self):
        array = make_array(sets=1, ways=1)
        array.insert(1, 0)
        array.set_dirty(1)
        eviction = array.insert(2, 0)
        assert eviction.victim_dirty
        assert eviction.victim_line == 1

    def test_fill_clears_dirty(self):
        array = make_array(sets=1, ways=1)
        array.insert(1, 0)
        array.set_dirty(1)
        array.insert(2, 0)
        assert not array.is_dirty(2)

    def test_set_dirty_missing_line(self):
        with pytest.raises(KeyError):
            make_array().set_dirty(99)


class TestInvalidate:
    def test_invalidate_then_miss(self):
        array = make_array()
        array.insert(3, 0)
        array.invalidate(3)
        assert not array.contains(3)

    def test_invalidate_absent_is_noop(self):
        make_array().invalidate(42)


class TestOccupancy:
    def test_per_thread_counts(self):
        array = make_array(sets=1, ways=4)
        array.insert(0, 0)
        array.insert(1, 0)
        array.insert(2, 1)
        assert array.occupancy_by_thread(2) == [2, 1]

    def test_miss_rate(self):
        array = make_array()
        array.lookup(1)
        array.insert(1, 0)
        array.lookup(1)
        assert array.miss_rate() == pytest.approx(0.5)


def _contents(array):
    """Every built set's lines, owners, dirty bits and recency stack."""
    return {
        cset.index: (list(cset.line_of), list(cset.owner), list(cset.valid),
                     list(cset.dirty), list(cset.lru))
        for cset in array.built_sets()
    }


class TestFirstTouch:
    def test_fresh_array_builds_no_set(self):
        assert list(make_array(sets=8).built_sets()) == []

    def test_probes_of_an_unbuilt_set_build_nothing(self):
        array = make_array(sets=8)
        assert not array.lookup(5)
        assert not array.lookup(5, update_lru=False)
        assert not array.contains(5)
        assert not array.is_dirty(5)
        array.invalidate(5)
        with pytest.raises(KeyError, match="not present"):
            array.set_dirty(5)
        assert (array.hits, array.misses) == (0, 2)
        assert list(array.built_sets()) == []

    def test_one_insert_builds_one_set(self):
        array = make_array(sets=8, stride=2)
        array.insert(6, thread_id=1)
        built = list(array.built_sets())
        assert [cset.index for cset in built] == [array.set_index(6)]
        assert built[0].ways == array.ways
        assert array.lookup(6) and not array.lookup(8)
        assert (array.hits, array.misses) == (1, 1)
        assert array.occupancy_by_thread(2) == [0, 1]

    def test_half_built_array_survives_a_pickle_round_trip(self):
        array = make_array(sets=8, ways=2)
        for line in (1, 3, 9, 17):
            array.insert(line, line % 2)
        array.set_dirty(9)
        clone = pickle.loads(pickle.dumps(array))
        assert _contents(clone) == _contents(array)
        assert len(_contents(clone)) == 2
        # Both copies go on identically: an eviction in a built set,
        # then a first touch of an unbuilt one.
        for copy in (array, clone):
            eviction = copy.insert(25, 0)
            assert (eviction.victim_line, eviction.victim_dirty) == (9, True)
            copy.insert(4, 1)
        assert _contents(clone) == _contents(array)
        assert clone.occupancy_by_thread(2) == array.occupancy_by_thread(2)

    def test_fully_built_array_behaves_the_same(self):
        # The layout checkpoints written before sets were built on first
        # touch carry: every slot holds a CacheSet, most of them empty.
        lazy = make_array(sets=4, ways=2)
        full = make_array(sets=4, ways=2)
        full._sets = [CacheSet(2, index) for index in range(4)]
        full = pickle.loads(pickle.dumps(full))
        ops = {
            "lookup": lambda array, line: array.lookup(line),
            "insert": lambda array, line: array.insert(line, line % 3),
            "set_dirty": lambda array, line: array.set_dirty(line),
            "is_dirty": lambda array, line: array.is_dirty(line),
            "invalidate": lambda array, line: array.invalidate(line),
            "contains": lambda array, line: array.contains(line),
        }
        for op, line in [("lookup", 3), ("insert", 3), ("insert", 7),
                         ("lookup", 3), ("insert", 11), ("set_dirty", 3),
                         ("insert", 15), ("is_dirty", 3), ("lookup", 2),
                         ("invalidate", 11), ("insert", 2),
                         ("contains", 7)]:
            assert ops[op](lazy, line) == ops[op](full, line), (op, line)
        # The fully built array also holds the sets nothing was put in.
        occupied = {index: state for index, state in _contents(full).items()
                    if any(state[2])}
        assert occupied == _contents(lazy)
        assert (lazy.hits, lazy.misses) == (full.hits, full.misses)
        assert lazy.occupancy_by_thread(3) == full.occupancy_by_thread(3)
