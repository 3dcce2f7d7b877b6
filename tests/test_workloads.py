"""Unit tests for the workload generators (Table 2 + SPEC stand-ins)."""

import itertools

import pytest

from repro.cpu.isa import (
    LOAD,
    NONMEM,
    STORE,
    instruction_count,
    load,
    nonmem,
    store,
    validate_trace,
)
from repro.workloads import workload_name, workload_spec
from repro.workloads.microbench import (
    ARRAY_BYTES,
    ROW_BYTES,
    ROWS,
    loads_trace,
    stores_trace,
    thread_base,
)
from repro.workloads.profiles import (
    HETEROGENEOUS_MIXES,
    SPEC_ORDER,
    SPEC_PROFILES,
    spec_trace,
)
from repro.workloads.synthetic import WorkloadProfile, synthetic_trace


class TestISA:
    def test_constructors_validate(self):
        with pytest.raises(ValueError):
            nonmem(0)
        with pytest.raises(ValueError):
            load(-1)
        with pytest.raises(ValueError):
            store(-4)

    def test_instruction_count(self):
        trace = [nonmem(10), load(0), store(4)]
        assert instruction_count(trace) == 12

    def test_validate_trace_rejects_junk(self):
        with pytest.raises(ValueError):
            list(validate_trace([("X", 1)]))
        with pytest.raises(ValueError):
            list(validate_trace([(LOAD, 0, "yes")]))

    def test_validate_trace_passthrough(self):
        trace = [nonmem(1), load(0, True), store(4)]
        assert list(validate_trace(trace)) == trace


class TestMicrobenchmarks:
    def test_table2_geometry(self):
        assert ARRAY_BYTES == 32 * 1024      # twice the 16KB L1
        assert ROW_BYTES == 64               # one L1 line per row
        assert ROWS == 512

    def test_loads_walks_every_row(self):
        items = list(itertools.islice(loads_trace(0), 0, 640))
        loads = [item for item in items if item[0] == LOAD]
        lines = {item[1] // 64 for item in loads}
        base_line = thread_base(0) // 64
        assert min(lines) == base_line
        # Addresses stride by one row (64 bytes).
        assert len(lines) >= 500

    def test_loads_stream_is_all_loads_plus_overhead(self):
        items = list(itertools.islice(loads_trace(0), 0, 100))
        kinds = {item[0] for item in items}
        assert kinds == {LOAD, NONMEM}

    def test_stores_stream_is_all_stores_plus_overhead(self):
        items = list(itertools.islice(stores_trace(0), 0, 100))
        kinds = {item[0] for item in items}
        assert kinds == {STORE, NONMEM}

    def test_stores_touch_distinct_lines(self):
        """Consecutive stores hit different lines: nothing gathers."""
        items = list(itertools.islice(stores_trace(0), 0, 10))
        stores = [item for item in items if item[0] == STORE]
        lines = [item[1] // 64 for item in stores]
        assert len(set(lines)) == len(lines)

    def test_threads_use_disjoint_address_spaces(self):
        a = next(item for item in loads_trace(0) if item[0] == LOAD)
        b = next(item for item in loads_trace(1) if item[0] == LOAD)
        assert abs(a[1] - b[1]) >= ARRAY_BYTES

    def test_trace_wraps_around(self):
        per_pass = ROWS + ROWS // 4
        items = list(itertools.islice(loads_trace(0), 0, 3 * per_pass))
        loads = [item[1] for item in items if item[0] == LOAD]
        assert loads.count(loads[0]) >= 2   # revisits the first row


class TestSyntheticGenerator:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("bad", p_hot=0.5, p_warm=0.1, p_cold=0.1).validate()
        with pytest.raises(ValueError):
            WorkloadProfile("bad", mem_fraction=0.0).validate()
        with pytest.raises(ValueError):
            WorkloadProfile("bad", dependent_prob=1.5).validate()

    def test_deterministic_for_seed(self):
        profile = SPEC_PROFILES["gcc"]
        a = list(itertools.islice(synthetic_trace(profile, 0, seed=1), 200))
        b = list(itertools.islice(synthetic_trace(profile, 0, seed=1), 200))
        assert a == b

    def test_different_threads_differ(self):
        profile = SPEC_PROFILES["gcc"]
        a = list(itertools.islice(synthetic_trace(profile, 0, seed=1), 200))
        b = list(itertools.islice(synthetic_trace(profile, 1, seed=1), 200))
        assert a != b

    def test_memory_fraction_approximates_profile(self):
        profile = SPEC_PROFILES["art"]
        items = list(itertools.islice(synthetic_trace(profile, 0), 20000))
        mem_ops = sum(1 for item in items if item[0] != NONMEM)
        total = instruction_count(items)
        observed = mem_ops / total
        assert observed == pytest.approx(profile.mem_fraction, rel=0.3)

    def test_store_fraction_approximates_profile(self):
        """store_fraction is run-level; derive the expected op-level mix."""
        profile = SPEC_PROFILES["mesa"]
        items = list(itertools.islice(synthetic_trace(profile, 0), 20000))
        stores = sum(1 for item in items if item[0] == STORE)
        mem_ops = sum(1 for item in items if item[0] != NONMEM)
        st, srun, run = (
            profile.store_fraction, profile.store_run_length, profile.run_length
        )
        expected = st * srun / (st * srun + (1 - st) * run)
        assert stores / mem_ops == pytest.approx(expected, rel=0.2)

    def test_dependent_loads_emitted(self):
        profile = SPEC_PROFILES["mcf"]
        items = list(itertools.islice(synthetic_trace(profile, 0), 20000))
        dependents = [item for item in items if item[0] == LOAD and item[2]]
        assert dependents, "mcf profile must emit dependent loads"


class TestProfiles:
    def test_all_figure6_benchmarks_present(self):
        assert set(SPEC_ORDER) == set(SPEC_PROFILES)
        assert len(SPEC_ORDER) == 18

    def test_profiles_validate(self):
        for profile in SPEC_PROFILES.values():
            profile.validate()

    def test_equake_swim_write_light(self):
        """Figure 7: equake and swim have very few L2 writes."""
        assert SPEC_PROFILES["equake"].store_fraction < 0.1
        assert SPEC_PROFILES["swim"].store_fraction < 0.1

    def test_mcf_is_low_mlp(self):
        assert SPEC_PROFILES["mcf"].dependent_prob >= 0.3

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            spec_trace("doom")

    def test_mixes_reference_known_benchmarks(self):
        for mix in HETEROGENEOUS_MIXES.values():
            assert len(mix) == 4
            assert all(name in SPEC_PROFILES for name in mix)


class TestWorkloadNames:
    @pytest.mark.parametrize("name", [
        "loads", "stores", "art", "art-sixtrack", "phase:art+mcf@8000",
        "trace:runs/mix.trace",
    ])
    def test_workload_name_inverts_workload_spec(self, name):
        assert workload_name(workload_spec(name)) == name

    def test_experiment_spelling_reads_as_the_cli_name(self):
        assert workload_name(("loads",)) == "loads"
        assert workload_spec(workload_name(("stores",))) == ("micro",
                                                             "stores")
