"""Tests for the perf -> fleet measured-overhead bridge.

The load-bearing guarantees: measured weights are bounded by the
worst-case arithmetic (the Figure 7.6 oracle) per fault class; the
same measurement serves measured Figures 7.4/7.5 and ``fleet --measured``
through shared cache keys; profiles parameterize the policy comparison
per (policy, organization) with the reliability models untouched;
``plan_fleet_compare_measured`` is the one path from measurement to
comparison, and ``repro fleet --measured`` over several scenarios is
exactly its standalone plans run in one deduplicated batch; and the
whole pipeline — including the CLI over a custom-organizations scenario
file — is bit-identical at any worker count and across a warm cache.
"""

import pytest

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.faults.types import FaultType
from repro.fleet.measured import MeasuredOverheadProfile, plan_measured_profiles
from repro.fleet.policies import (
    measured_policy,
    plan_fleet_compare,
    plan_fleet_compare_measured,
    resolve_policies,
)
from repro.fleet.scenarios import FleetScenario, SubPopulation
from repro.runner.cache import ResultCache
from repro.runner.executor import execute_plan
from repro.runner.job import job_identity
from repro.workloads.spec import ALL_MIXES, WorkloadMix

MIXES = ALL_MIXES[:3]
INSTRUCTIONS = 4_000


@pytest.fixture(scope="module")
def profiles():
    return execute_plan(
        plan_measured_profiles(
            policies=("arcc", "sccdcd", "lotecc"),
            organizations=(ARCC_MEMORY_CONFIG,),
            mixes=MIXES,
            instructions_per_core=INSTRUCTIONS,
        )
    )


class TestProfileReduction:
    def test_profiles_keyed_by_policy_and_organization(self, profiles):
        assert set(profiles) == {
            ("arcc", "ARCC"),
            ("sccdcd", "ARCC"),
            ("lotecc", "ARCC"),
        }

    def test_measured_below_worst_case_per_class(self, profiles):
        """The satellite ordering: measured <= worst-case cap, per class."""
        for profile in profiles.values():
            profile.validate_bounds()
            for ft, (mean, half) in profile.power.items():
                assert 0.0 <= mean <= profile.worst_case_power[ft]
                assert half >= 0.0
            for ft, (mean, half) in profile.performance.items():
                assert 0.0 <= mean <= profile.worst_case_performance[ft]

    def test_measured_weights_strictly_beat_worst_case(self, profiles):
        """Locality is real: the lane-class saving is substantial, not a
        rounding artifact (the paper's Figure 7.2/7.3 claim)."""
        arcc = profiles[("arcc", "ARCC")]
        lane_mean = arcc.power[FaultType.LANE][0]
        assert lane_mean < 0.8 * arcc.worst_case_power[FaultType.LANE]
        lot = profiles[("lotecc", "ARCC")]
        assert lot.power[FaultType.LANE][0] < 0.8 * lot.worst_case_power[
            FaultType.LANE
        ]

    def test_sccdcd_premium_is_arcc_lane_measurement(self, profiles):
        arcc = profiles[("arcc", "ARCC")]
        sccdcd = profiles[("sccdcd", "ARCC")]
        assert sccdcd.static_power == arcc.power[FaultType.LANE]
        assert not sccdcd.power  # nothing accrues per fault
        assert sccdcd.validate_bounds() is None

    def test_caps_are_the_measured_saturation(self, profiles):
        arcc = profiles[("arcc", "ARCC")]
        assert arcc.power_cap == max(m for m, _ in arcc.power.values())
        assert arcc.performance_cap == max(
            m for m, _ in arcc.performance.values()
        )

    def test_single_channel_organization_rejected(self):
        import dataclasses

        one = dataclasses.replace(
            ARCC_MEMORY_CONFIG, name="one-ch", channels=1
        )
        with pytest.raises(ValueError, match="ARCC pairing"):
            plan_measured_profiles(organizations=(one,))

    def test_lotecc_only_replays_no_relaxed_baseline(self):
        """LOT-ECC normalizes to its own checksum-mode baseline, so a
        LOT-ECC-only measurement builds no relaxed fault-free point."""
        plan = plan_measured_profiles(
            policies=("lotecc",), mixes=ALL_MIXES[:2], instructions_per_core=2_000
        )
        assert len(plan.jobs) == 10  # 2 mixes x (baseline + 4 classes)
        assert all(dict(job.config).get("lotecc_checksum") for job in plan.jobs)

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="unknown policy"):
            plan_measured_profiles(policies=("secded",))

    @pytest.mark.parametrize("keys", [("arccc",), ("arcc", "arcc"), ()])
    def test_bad_keys_fail_as_resolve_policies_does(self, keys):
        """Unknown, repeated and empty key sets raise the same exception,
        with the same message, from the measurement planner as from the
        policy builder."""
        failures = []
        for build in (resolve_policies, plan_measured_profiles):
            with pytest.raises((KeyError, ValueError)) as info:
                build(keys)
            failures.append((type(info.value), str(info.value)))
        assert failures[0] == failures[1]


class TestDeterminismAndCaching:
    def test_jobs_1_vs_4_identical(self):
        kwargs = dict(
            policies=("arcc", "lotecc"),
            organizations=(ARCC_MEMORY_CONFIG,),
            mixes=MIXES,
            instructions_per_core=INSTRUCTIONS,
        )
        a = execute_plan(plan_measured_profiles(**kwargs), max_workers=1)
        b = execute_plan(plan_measured_profiles(**kwargs), max_workers=4)
        assert a == b

    def test_warm_cache_equals_cold_run(self, tmp_path):
        """A second, cache-mediated measurement reproduces the first
        exactly."""
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(
            policies=("arcc", "sccdcd", "lotecc"),
            organizations=(ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG),
            mixes=MIXES,
            instructions_per_core=INSTRUCTIONS,
        )
        cold = execute_plan(plan_measured_profiles(**kwargs), cache=cache)
        assert ResultCache(tmp_path / "cache").keys()
        warm = execute_plan(plan_measured_profiles(**kwargs), cache=cache)
        assert cold == warm

    def test_measurement_jobs_share_cache_keys_with_fig7_2(self):
        """Measured Figures 7.4/7.5 and `fleet --measured` run through one
        cached computation: every fig7.2/7.3 point's cache key appears
        among the bridge's measurement jobs (names differ, keys agree)."""
        from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3

        cache = ResultCache("unused", version="pinned")
        bridge = plan_measured_profiles(
            policies=("arcc", "sccdcd", "lotecc"),
            organizations=(ARCC_MEMORY_CONFIG,),
            mixes=MIXES,
            instructions_per_core=INSTRUCTIONS,
        )
        fig = plan_fig7_2_7_3(
            mixes=MIXES, instructions_per_core=INSTRUCTIONS
        )
        bridge_keys = {cache.key(job) for job in bridge.jobs}
        fig_keys = {cache.key(job) for job in fig.jobs}
        assert fig_keys <= bridge_keys

    def test_measured_fig7_4_is_the_fig7_2_grid_plus_inline_lifetime(
        self, tmp_path
    ):
        """Measured Figures 7.4/7.5 are a plan: its jobs are Figure 7.2's
        and its follow-up is the lifetime plan on the grid's
        per-fault-type averages (one cache entry per job of either
        stage), and a warm run recomputes nothing."""
        from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3
        from repro.experiments.fig7_4_7_5 import plan_fig7_4_7_5, plan_fig7_4_7_5_measured

        kwargs = dict(mixes=MIXES[:1], instructions_per_core=2_000)
        plan = plan_fig7_4_7_5_measured(years=2, channels=60, **kwargs)
        fig72 = plan_fig7_2_7_3(**kwargs)
        assert [job_identity(j) for j in plan.jobs] == [
            job_identity(j) for j in fig72.jobs
        ]
        cache = ResultCache(tmp_path / "cache")
        cold = execute_plan(plan, cache=cache)
        entries = ResultCache(tmp_path / "cache").keys()
        overheads = execute_plan(fig72, cache=cache).overheads()
        assert set(overheads) == {
            FaultType.LANE,
            FaultType.DEVICE,
            FaultType.BANK,
            FaultType.COLUMN,
        }
        follow_up = plan_fig7_4_7_5(years=2, channels=60, overheads=overheads)
        assert len(entries) == len(plan.jobs) + len(follow_up.jobs)
        warm = execute_plan(plan, cache=cache)
        assert ResultCache(tmp_path / "cache").keys() == entries
        direct = execute_plan(follow_up)
        for result in (cold, warm):
            assert result.power_overhead == direct.power_overhead
            assert result.performance_overhead == direct.performance_overhead

    def test_same_named_mixes_are_told_apart(self):
        """A custom mix reusing a built-in name is measured on its own
        benchmarks: other identities, other ratios."""
        from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3

        builtin = ALL_MIXES[0]
        impostor = WorkloadMix(builtin.name, ALL_MIXES[9].benchmark_names)
        assert impostor.benchmark_names != builtin.benchmark_names
        plans = [
            plan_fig7_2_7_3(mixes=[mix], instructions_per_core=300)
            for mix in (builtin, impostor)
        ]
        first, second = (
            {job_identity(job) for job in plan.jobs} for plan in plans
        )
        assert first.isdisjoint(second)
        first, second = (execute_plan(plan).ratios for plan in plans)
        assert first.keys() == second.keys()
        assert second != first

    def test_identically_defined_mixes_share_identities(self):
        """Identity follows what a mix is, not the object: a fresh
        ``WorkloadMix`` with a built-in's name and benchmarks is the
        built-in's measurement, one cache entry per point."""
        from repro.experiments.fig7_2_7_3 import plan_fig7_2_7_3

        builtin = ALL_MIXES[0]
        twin = WorkloadMix(builtin.name, builtin.benchmark_names)
        assert twin is not builtin
        first, second = (
            [
                job_identity(job)
                for job in plan_fig7_2_7_3(
                    mixes=[mix], instructions_per_core=300
                ).jobs
            ]
            for mix in (builtin, twin)
        )
        assert first == second


class TestMeasuredPolicies:
    def test_measured_policy_swaps_costs_not_reliability(self, profiles):
        base = resolve_policies(("lotecc",))[0]
        measured = measured_policy(base, profiles[("lotecc", "ARCC")])
        assert measured.sdc_model == base.sdc_model
        assert measured.due_window == base.due_window
        assert measured.correction_window == base.correction_window
        assert measured.per_fault_power != base.per_fault_power
        assert measured.power_cap < base.power_cap
        assert "[measured]" in measured.title

    def test_mismatched_profile_rejected(self, profiles):
        base = resolve_policies(("arcc",))[0]
        with pytest.raises(ValueError, match="cannot parameterize"):
            measured_policy(base, profiles[("lotecc", "ARCC")])

    def test_plan_requires_profile_per_organization(self, profiles):
        scenario = FleetScenario(
            name="mixed-orgs",
            description="",
            populations=(
                SubPopulation(name="a", channels=64),
                SubPopulation(
                    name="b", channels=64, config=BASELINE_MEMORY_CONFIG
                ),
            ),
        )
        with pytest.raises(KeyError, match="Baseline-SCCDCD"):
            plan_fleet_compare(
                scenario, policies=("arcc",), profiles=profiles
            )


class TestMeasuredComparison:
    @pytest.fixture(scope="class")
    def report(self):
        return execute_plan(
            plan_fleet_compare_measured(
                "steady",
                policies=("arcc", "sccdcd", "lotecc"),
                channels=400,
                seed=3,
                mixes=MIXES,
                instructions_per_core=INSTRUCTIONS,
            )
        )

    def test_report_carries_profiles(self, report):
        assert report.profiles is not None
        assert {(p.policy, p.organization) for p in report.profiles} == {
            ("arcc", "ARCC"),
            ("sccdcd", "ARCC"),
            ("lotecc", "ARCC"),
        }

    def test_table_shows_measured_weights_with_cis(self, report):
        table = report.to_table()
        assert "Measured per-fault weights" in table
        assert "±" in table
        assert "lotecc" in table
        assert "Worst case" in table

    def test_lotecc_measured_beats_its_worst_case_scoring(self, report):
        """The headline: with measured weights, adaptive LOT-ECC stays
        far below SCCDCD's constant premium."""
        lot = report.fleet_summary("lotecc")
        sccdcd = report.fleet_summary("sccdcd")
        assert lot.power_overhead[0] < sccdcd.power_overhead[0] / 5
        assert report.best_by("due") == "lotecc"

    def test_measured_run_matches_worst_case_reliability(self, report):
        """Measurement changes costs, never SDC/DUE physics."""
        worst = execute_plan(
            plan_fleet_compare("steady", channels=400, seed=3)
        )
        for policy in ("arcc", "sccdcd", "lotecc"):
            a = report.fleet_summary(policy)
            b = worst.fleet_summary(policy)
            assert a.sdc_events_per_year == b.sdc_events_per_year
            assert a.due_events_per_year == b.due_events_per_year

    def test_lotecc_measured_at_most_worst_case_scoring(self, report):
        """LOT-ECC's fallback really is the Figure 7.6 worst case, and
        measured weights are clamped to it per class, so its measured
        fleet overhead can never exceed the worst-case scoring. (No such
        structural bound exists for arcc/sccdcd — their fallback weights
        are themselves measurements recorded at another trace scale.)"""
        worst = execute_plan(
            plan_fleet_compare("steady", channels=400, seed=3)
        )
        assert (
            report.fleet_summary("lotecc").power_overhead[0]
            <= worst.fleet_summary("lotecc").power_overhead[0] + 1e-12
        )
        assert (
            report.fleet_summary("lotecc").performance_overhead[0]
            <= worst.fleet_summary("lotecc").performance_overhead[0] + 1e-12
        )

    def test_end_to_end_measured_jobs_1_vs_4(self):
        policies = ("arcc", "lotecc")

        def measured_compare(jobs):
            return execute_plan(
                plan_fleet_compare_measured(
                    "steady",
                    policies=policies,
                    channels=300,
                    seed=5,
                    instructions_per_core=2_000,
                ),
                max_workers=jobs,
            )

        a = measured_compare(1)
        b = measured_compare(4)
        assert [vars(s) for s in a.slices] == [vars(s) for s in b.slices]
        assert [vars(s) for s in a.fleet] == [vars(s) for s in b.fleet]
        assert a.profiles == b.profiles


class TestRegistryAndCli:
    def test_registry_exposes_fleet_compare_measured(self):
        from repro.runner.registry import FIGURES, build_plans

        assert "fleet-compare-measured" in FIGURES
        (plan,) = build_plans(["fleet-compare-measured"], quick=True)
        assert plan.name == "fleet-compare-measured"
        assert plan.jobs  # the measurement points

    def test_registry_plan_executes_to_measured_report(self):
        plan = plan_fleet_compare_measured(
            "steady",
            policies=("arcc", "lotecc"),
            channels=300,
            instructions_per_core=2_000,
        )
        report = execute_plan(plan)
        assert report.profiles
        assert "Measured per-fault weights" in report.to_table()

    def test_cli_measured_requires_policies(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="requires --policies"):
            main(["fleet", "steady", "--measured"])

    def test_cli_measured_custom_orgs_bit_identical_across_jobs(
        self, tmp_path, monkeypatch, capsys
    ):
        """The acceptance criterion: a scenario file with custom
        [organizations], --policies --measured, --jobs 1 == --jobs 4."""
        from pathlib import Path

        from repro.cli import main

        scenario = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "scenarios"
            / "custom_organizations.toml"
        )
        monkeypatch.chdir(tmp_path)  # keep .repro-cache out of the repo
        outputs = []
        for jobs in ("1", "4"):
            code = main(
                [
                    "fleet",
                    "--scenario-file",
                    str(scenario),
                    "--policies",
                    "arcc,sccdcd,lotecc",
                    "--measured",
                    "--channels",
                    "300",
                    "--jobs",
                    jobs,
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        strip = [
            "\n".join(
                line
                for line in out.splitlines()
                if not line.startswith("[repro fleet]")
            )
            for out in outputs
        ]
        assert strip[0] == strip[1]
        assert "Measured per-fault weights" in strip[0]
        assert "quad-x8" in strip[0]
        assert "(measured weights)" in outputs[0]

    def test_cli_measured_scenarios_are_the_standalone_plans_in_one_batch(
        self, tmp_path, monkeypatch, capsys
    ):
        """`repro fleet A B --measured` prints exactly each scenario's
        standalone measured plan, and the two scenarios (one
        organization) share every measurement job in-batch."""
        from repro.cli import main

        policies = ("arcc", "lotecc")
        plans = [
            plan_fleet_compare_measured(name, policies=policies, channels=300)
            for name in ("steady", "burn-in")
        ]
        expected = "".join(
            execute_plan(plan).to_table() + "\n\n" for plan in plans
        )
        monkeypatch.chdir(tmp_path)  # keep .repro-cache out of the repo
        code = main(
            [
                "fleet",
                "steady",
                "burn-in",
                "--policies",
                ",".join(policies),
                "--measured",
                "--channels",
                "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(expected)
        assert out[len(expected):].startswith("[repro fleet] 2 scenario(s)")

        jobs = [job for plan in plans for job in plan.jobs]
        unique = {job_identity(job) for job in jobs}
        assert len(unique) == len({job_identity(j) for j in plans[0].jobs})
        assert len(jobs) == 2 * len(unique)

    def test_cli_measured_rejects_single_channel_org(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main

        path = tmp_path / "one.toml"
        path.write_text(
            """
name = "one"
[organizations.solo]
io_width = 8
channels = 1
ranks_per_channel = 2
devices_per_rank = 18
data_devices_per_rank = 16
[[populations]]
name = "a"
channels = 64
config = "solo"
"""
        )
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="ARCC pairing"):
            main(
                [
                    "fleet",
                    "--scenario-file",
                    str(path),
                    "--policies",
                    "arcc",
                    "--measured",
                ]
            )


class TestProfilesOverCustomOrganizations:
    def test_per_organization_fractions_flow_into_weights(self):
        """A tri-rank organization's device class upgrades 1/3 of pages,
        so its worst-case bound (and the measured clamp) follows."""
        import dataclasses

        tri = dataclasses.replace(
            BASELINE_MEMORY_CONFIG, name="tri-rank-x4", ranks_per_channel=3
        )
        profiles = execute_plan(
            plan_measured_profiles(
                policies=("arcc",),
                organizations=(tri,),
                mixes=MIXES[:1],
                instructions_per_core=2_000,
            )
        )
        profile = profiles[("arcc", "tri-rank-x4")]
        assert profile.worst_case_power[FaultType.DEVICE] == pytest.approx(
            1.0 / 3.0
        )
        profile.validate_bounds()

    def test_validate_bounds_catches_violations(self):
        profile = MeasuredOverheadProfile(
            policy="arcc",
            organization="ARCC",
            power={FaultType.LANE: (1.5, 0.0)},
            performance={},
            worst_case_power={FaultType.LANE: 1.0},
            worst_case_performance={},
        )
        with pytest.raises(ValueError, match="exceeds the worst-case"):
            profile.validate_bounds()


def test_exposure_report_names_organizations():
    """The fleet exposure summary now says which organization each
    slice runs (custom organizations are first-class everywhere)."""
    from repro.fleet.report import plan_fleet

    report = execute_plan(
        plan_fleet("mixed-generations", channels=300, seed=1)
    )
    assert {r.organization for r in report.subpopulations} == {
        "ARCC",
        "Baseline-SCCDCD",
    }
    assert "Organization" in report.to_table()
