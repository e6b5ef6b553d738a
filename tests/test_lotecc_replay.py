"""LOT-ECC checksum-replay mode of the trace replay.

The engine measures LOT-ECC's extra traffic directly instead of
scaling a fault-free run by the closed-form ``2(2r+2w)/(r+2w)``
factor: every DRAM write issues an extra checksum write burst, and
every upgraded fill additionally pays one checksum read per sub-line
on its critical path. These tests pin the mode's contract:

* the compiled kernel and the reference tier (``TraceSimulator``)
  agree on it bit for bit;
* turning it on strictly increases measured traffic — checksum bursts
  occupy the buses, so memory latency and core cycles rise even with
  zero upgrades, and upgraded fills pay checksum reads on top;
* the measured-overhead planner records the provenance: every LOT-ECC
  job carries the resolved engine tier, like every other job, and
  ``lotecc_checksum=True`` in its cache key; no other job carries the
  flag (their cache keys — shared with the Figure 7.1-7.3 sweeps — are
  unchanged).
"""

import pytest

from repro.config import ARCC_MEMORY_CONFIG
from repro.perf._kernel import kernel_available, kernel_provenance
from repro.perf.engine import SweepPoint, replay, resolve_engine
from repro.workloads.spec import ALL_MIXES

#: A mix whose 200k-instruction working set overflows the LLC, so
#: dirty evictions (and their checksum writes) actually occur.
MIX = ALL_MIXES[6]
N = 200_000


def _point(fraction: float, checksum: bool) -> SweepPoint:
    return SweepPoint(
        config=ARCC_MEMORY_CONFIG,
        upgraded_fraction=fraction,
        lotecc_checksum=checksum,
    )


def _run(fraction: float, checksum: bool):
    return replay(MIX, _point(fraction, checksum), N, 0x7ACE)


class TestChecksumTiers:
    @pytest.mark.skipif(
        not kernel_available(),
        reason=f"compiled replay kernel unavailable: {kernel_provenance()}",
    )
    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_compiled_equals_reference_on_checksum_points(self, fraction):
        results = [
            replay(MIX, _point(fraction, True), N, 0x7ACE, engine=tier)
            for tier in ("compiled", "reference")
        ]
        assert results[0] == results[1]

    def test_reference_tier_accepts_checksum_points(self):
        result = replay(
            MIX, _point(0.0, True), N, 0x7ACE, engine="reference"
        )
        assert result.power.total_w > 0


class TestChecksumTraffic:
    def test_checksum_writes_slow_the_buses_even_without_upgrades(self):
        """Relaxed LOT-ECC doubles write traffic; the extra bursts
        occupy banks and buses, so later fills wait behind them even
        with zero upgraded pages."""
        plain = _run(0.0, checksum=False)
        checked = _run(0.0, checksum=True)
        assert (
            checked.average_memory_latency_ns
            > plain.average_memory_latency_ns
        )
        assert max(c.cycles for c in checked.cores) > max(
            c.cycles for c in plain.cores
        )

    def test_upgraded_fills_pay_checksum_reads_on_critical_path(self):
        plain = _run(0.5, checksum=False)
        checked = _run(0.5, checksum=True)
        assert (
            checked.average_memory_latency_ns
            > plain.average_memory_latency_ns
        )
        # The upgraded-fill checksum reads dominate the zero-upgrade
        # bus effect by an order of magnitude: they serialize on the
        # fill's critical path.
        no_upgrade_delta = (
            _run(0.0, checksum=True).average_memory_latency_ns
            - _run(0.0, checksum=False).average_memory_latency_ns
        )
        upgrade_delta = (
            checked.average_memory_latency_ns
            - plain.average_memory_latency_ns
        )
        assert upgrade_delta > 10 * no_upgrade_delta

    def test_checksum_mode_is_deterministic(self):
        assert _run(0.5, checksum=True) == _run(0.5, checksum=True)


class TestMeasuredProvenance:
    def test_lotecc_jobs_record_resolved_tier_with_checksum_flag(self):
        from repro.fleet.measured import plan_measured_profiles

        plan = plan_measured_profiles(
            policies=("arcc", "lotecc"),
            mixes=[MIX],
            instructions_per_core=N,
        )
        lotecc_jobs = [
            job for job in plan.jobs if dict(job.config).get("lotecc_checksum")
        ]
        assert lotecc_jobs, "no LOT-ECC checksum jobs planned"
        for job in lotecc_jobs:
            config = dict(job.config)
            assert config["engine"] == resolve_engine("auto")
            assert "lotecc" in job.name
        # Every other job's cache key is untouched by the new mode —
        # the flag is absent, not merely false.
        for job in plan.jobs:
            if job not in lotecc_jobs:
                assert "lotecc_checksum" not in dict(job.config)

    def test_relaxed_lotecc_baseline_is_planned_per_mix(self):
        from repro.fleet.measured import plan_measured_profiles

        plan = plan_measured_profiles(
            policies=("arcc", "lotecc"),
            mixes=[MIX],
            instructions_per_core=N,
        )
        relaxed = [
            j
            for j in plan.jobs
            if dict(j.config).get("lotecc_checksum")
            and dict(j.config)["upgraded_fraction"] == 0.0
        ]
        assert len(relaxed) == 1
        assert "lotecc" in relaxed[0].name
