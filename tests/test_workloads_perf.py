"""Tests for the workload substrate and the trace-driven simulator."""

import dataclasses

import pytest

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.perf.simulator import (
    CoreResult,
    TraceSimulator,
    page_is_upgraded,
    worst_case_performance_ratio,
    worst_case_power_ratio,
)
from repro.util.rng import make_rng
from repro.workloads.spec import (
    ALL_MIXES,
    BENCHMARKS,
    BenchmarkProfile,
    _mix,
    mix_by_name,
)
from repro.workloads.trace import CoreTrace, TraceGenerator


class TestBenchmarkProfiles:
    def test_all_mix_benchmarks_defined(self):
        for mix in ALL_MIXES:
            assert len(mix.profiles) == 4

    def test_twelve_mixes(self):
        assert len(ALL_MIXES) == 12
        assert [m.name for m in ALL_MIXES] == [
            f"Mix{i}" for i in range(1, 13)
        ]

    def test_table_7_3_contents(self):
        mix1 = mix_by_name("Mix1")
        assert mix1.benchmark_names == (
            "mesa", "leslie3d", "GemsFDTD", "fma3d",
        )
        mix10 = mix_by_name("Mix10")
        assert "libquantum" in mix10.benchmark_names

    def test_unknown_mix_rejected(self):
        with pytest.raises(KeyError):
            mix_by_name("Mix13")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad", base_ipc=3.0, llc_mpki=1, read_fraction=0.5,
                spatial_locality=0.5, mlp=1,
            )
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad", base_ipc=1.0, llc_mpki=1, read_fraction=0.5,
                spatial_locality=1.0, mlp=1,
            )

    @pytest.mark.parametrize(
        "field, value",
        [("read_fraction", 0.0), ("read_fraction", 1.5), ("mlp", 0.5)],
    )
    def test_profile_field_ranges(self, field, value):
        good = dataclasses.asdict(BENCHMARKS["mesa"])
        BenchmarkProfile(**good)
        with pytest.raises(ValueError):
            BenchmarkProfile(**{**good, field: value})

    def test_mix_of_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="nosuch"):
            _mix("MixX", "mesa", "nosuch")

    def test_memory_bound_vs_compute_bound(self):
        assert BENCHMARKS["mcf2006"].llc_mpki > BENCHMARKS["mesa"].llc_mpki
        assert BENCHMARKS["libquantum"].spatial_locality > (
            BENCHMARKS["omnetpp"].spatial_locality
        )


class TestTraceGeneration:
    def test_deterministic(self):
        gen_a = TraceGenerator(mix_by_name("Mix1").profiles, seed=1)
        gen_b = TraceGenerator(mix_by_name("Mix1").profiles, seed=1)
        trace_a = gen_a.core_traces()[0]
        trace_b = gen_b.core_traces()[0]
        for _ in range(100):
            a, b = next(trace_a), next(trace_b)
            assert a.line_address == b.line_address
            assert a.is_write == b.is_write

    def test_cores_in_disjoint_regions(self):
        traces = TraceGenerator(mix_by_name("Mix1").profiles).core_traces()
        regions = set()
        for trace in traces:
            access = next(trace)
            regions.add(access.line_address >> 22)
        assert len(regions) == 4

    def test_addresses_within_footprint(self):
        profile = BENCHMARKS["swim"]
        trace = CoreTrace(profile, core_id=0, rng=make_rng(2))
        for _ in range(500):
            access = next(trace)
            assert 0 <= access.line_address < trace.footprint_lines

    def test_spatial_locality_shows_in_stream(self):
        """A high-locality benchmark produces mostly sequential steps."""
        hot = CoreTrace(BENCHMARKS["libquantum"], 0, make_rng(3))
        cold = CoreTrace(BENCHMARKS["omnetpp"], 0, make_rng(3))

        def sequential_fraction(trace):
            last, seq, total = None, 0, 0
            for _ in range(2000):
                access = next(trace)
                if last is not None:
                    total += 1
                    if access.line_address == last + 1:
                        seq += 1
                last = access.line_address
            return seq / total

        assert sequential_fraction(hot) > sequential_fraction(cold) + 0.3

    def test_read_fraction_respected(self):
        profile = BENCHMARKS["sphinx3"]  # 85% reads
        trace = CoreTrace(profile, 0, make_rng(4))
        writes = sum(1 for _ in range(3000) if next(trace).is_write)
        assert 0.05 < writes / 3000 < 0.30

    def test_footprint_must_fit_the_region(self):
        profile = BENCHMARKS["swim"]
        with pytest.raises(ValueError):
            CoreTrace(
                profile, 0, make_rng(6),
                region_lines=profile.footprint_pages * 64 - 1,
            )

    def test_sequential_run_wraps_inside_the_footprint(self):
        profile = dataclasses.replace(
            BENCHMARKS["libquantum"], spatial_locality=0.99, footprint_pages=1
        )
        trace = CoreTrace(profile, core_id=1, rng=make_rng(7), region_lines=64)
        assert iter(trace) is trace
        lines = [access.line_address for _, access in zip(range(300), trace)]
        assert all(64 <= line < 128 for line in lines)
        assert any(a == 127 and b == 64 for a, b in zip(lines, lines[1:]))

    def test_gap_positive(self):
        trace = CoreTrace(BENCHMARKS["mesa"], 0, make_rng(5))
        assert all(
            next(trace).instructions_since_last >= 1 for _ in range(100)
        )


class TestPageUpgradedHash:
    def test_extremes(self):
        assert not page_is_upgraded(123, 0.0)
        assert page_is_upgraded(123, 1.0)

    def test_fraction_approximately_respected(self):
        for fraction in (0.1, 0.5):
            hits = sum(
                1 for p in range(10_000) if page_is_upgraded(p, fraction)
            )
            assert abs(hits / 10_000 - fraction) < 0.03

    def test_deterministic(self):
        assert page_is_upgraded(42, 0.3) == page_is_upgraded(42, 0.3)


class TestWorstCaseRatios:
    def test_power_lane_doubles(self):
        assert worst_case_power_ratio(1.0) == 2.0

    def test_perf_lane_halves(self):
        assert worst_case_performance_ratio(1.0) == 0.5

    def test_identity_at_zero(self):
        assert worst_case_power_ratio(0.0) == 1.0
        assert worst_case_performance_ratio(0.0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            worst_case_power_ratio(1.5)
        with pytest.raises(ValueError):
            worst_case_performance_ratio(-0.1)


class TestTraceSimulator:
    def test_result_structure(self):
        result = TraceSimulator(ARCC_MEMORY_CONFIG).run(
            mix_by_name("Mix1"), instructions_per_core=5_000
        )
        assert len(result.cores) == 4
        assert result.performance > 0
        assert result.power.total_w > 0
        assert 0 <= result.llc_miss_rate <= 1

    def test_deterministic(self):
        a = TraceSimulator(ARCC_MEMORY_CONFIG, seed=9).run(
            mix_by_name("Mix2"), instructions_per_core=5_000
        )
        b = TraceSimulator(ARCC_MEMORY_CONFIG, seed=9).run(
            mix_by_name("Mix2"), instructions_per_core=5_000
        )
        assert a.performance == b.performance
        assert a.power.total_w == b.power.total_w

    def test_arcc_saves_power(self):
        """The headline comparison on one mix."""
        mix = mix_by_name("Mix5")
        base = TraceSimulator(BASELINE_MEMORY_CONFIG).run(
            mix, instructions_per_core=10_000
        )
        arcc = TraceSimulator(ARCC_MEMORY_CONFIG).run(
            mix, instructions_per_core=10_000
        )
        saving = 1 - arcc.power.total_w / base.power.total_w
        assert 0.25 < saving < 0.50

    def test_upgraded_fraction_costs_power(self):
        mix = mix_by_name("Mix5")
        clean = TraceSimulator(
            ARCC_MEMORY_CONFIG, upgraded_fraction=0.0
        ).run(mix, instructions_per_core=10_000)
        faulty = TraceSimulator(
            ARCC_MEMORY_CONFIG, upgraded_fraction=1.0
        ).run(mix, instructions_per_core=10_000)
        ratio = faulty.power.total_w / clean.power.total_w
        assert 1.05 < ratio < 2.0  # below the worst-case 2x

    def test_upgrade_requires_arcc_config(self):
        one_channel = dataclasses.replace(
            BASELINE_MEMORY_CONFIG, name="one-channel", channels=1
        )
        with pytest.raises(ValueError, match="ARCC pairing"):
            TraceSimulator(one_channel, upgraded_fraction=0.5)

    def test_idle_core_ipc_is_zero(self):
        assert CoreResult("mesa", instructions=0, cycles=0.0).ipc == 0.0
        assert CoreResult("mesa", instructions=10, cycles=20.0).ipc == 0.5

    def test_ipc_bounded_by_base(self):
        result = TraceSimulator(ARCC_MEMORY_CONFIG).run(
            mix_by_name("Mix1"), instructions_per_core=5_000
        )
        for core, profile in zip(
            result.cores, mix_by_name("Mix1").profiles
        ):
            assert core.ipc <= profile.base_ipc * (1 + 1e-9)
