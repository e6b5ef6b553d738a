"""Tests for the protection-policy comparison (:mod:`repro.fleet.policies`).

The load-bearing guarantees: all policies score *identical* fault
histories (a paired comparison, bit-identical at any worker count); the
cost/reliability orderings match the paper's claims (ARCC cheapest,
SCCDCD strongest detection, LOT-ECC's sparing-class DUE win); and the
uncorrectable-pair screen obeys the window/rank/device rules.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.ecc.lotecc import WORST_CASE_UPGRADE_FACTOR
from repro.faults.models import TABLE_7_4_TYPES
from repro.faults.types import FaultType
from repro.fleet.engine import uncorrectable_candidate_channels
from repro.fleet.events import FAULT_TYPE_ORDER, FaultEventBatch
from repro.fleet.measured import POLICIES, POLICY_KEYS
from repro.fleet.policies import (
    plan_fleet_compare,
    policy_due_per_1k,
    policy_sdc_per_1k,
    resolve_policies,
    slice_reliability_params,
)
from repro.fleet.report import plan_fleet
from repro.fleet.scenarios import FleetScenario, SpatialFaultModel, SubPopulation
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.due import DEFAULT_REPAIR_HOURS
from repro.runner.executor import execute_plan


def _batch(rows):
    """Build a rank-level batch from (member, time_hours, type, channel,
    rank, device): the sub-device coordinates are all zero."""
    rows = sorted(rows, key=lambda r: (r[0], r[1]))
    members = max(r[0] for r in rows) + 1
    counts = np.bincount([r[0] for r in rows], minlength=members)
    zeros = np.zeros(len(rows), dtype=np.int64)
    return FaultEventBatch(
        offsets=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        time_hours=np.array([r[1] for r in rows], dtype=np.float64),
        type_code=np.array(
            [FAULT_TYPE_ORDER.index(r[2]) for r in rows], dtype=np.int64
        ),
        channel=np.array([r[3] for r in rows], dtype=np.int64),
        rank=np.array([r[4] for r in rows], dtype=np.int64),
        device=np.array([r[5] for r in rows], dtype=np.int64),
        bank=zeros,
        row=zeros,
        column=zeros,
    )


_KEY_TESTS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _compares_policy_key(node: ast.AST) -> bool:
    """Whether ``node`` is an equality or membership test with a policy
    key literal (alone or in a tuple, list or set) as an operand."""
    if not (
        isinstance(node, ast.Compare)
        and any(isinstance(op, _KEY_TESTS) for op in node.ops)
    ):
        return False
    literals = [
        leaf
        for operand in [node.left, *node.comparators]
        for leaf in (
            operand.elts
            if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
            else [operand]
        )
    ]
    return any(
        isinstance(leaf, ast.Constant) and leaf.value in POLICIES
        for leaf in literals
    )


class TestPolicyRegistry:
    def test_known_keys(self):
        assert POLICY_KEYS == ("arcc", "sccdcd", "lotecc")
        assert all(policy.key == key for key, policy in POLICIES.items())

    def test_resolve_builds_all(self):
        policies = resolve_policies(POLICY_KEYS)
        assert [p.key for p in policies] == list(POLICY_KEYS)

    def test_unknown_key_suggests(self):
        with pytest.raises(KeyError, match="did you mean 'arcc'"):
            resolve_policies(["arccc"])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            resolve_policies(["arcc", "arcc"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            resolve_policies([])

    def test_records_carry_the_policy_facts(self):
        arcc, sccdcd, lotecc = resolve_policies(POLICY_KEYS)
        assert [p.always_strong for p in (arcc, sccdcd, lotecc)] == [
            False, True, False
        ]
        assert [p.sparing for p in (arcc, sccdcd, lotecc)] == [False, False, True]
        assert [p.lotecc_checksum for p in (arcc, sccdcd, lotecc)] == [
            False, False, True
        ]
        assert lotecc.upgrade_factor == WORST_CASE_UPGRADE_FACTOR
        assert arcc.upgrade_factor is None and sccdcd.upgrade_factor is None
        assert sccdcd.fault_classes == (FaultType.LANE,)
        assert arcc.fault_classes == lotecc.fault_classes == TABLE_7_4_TYPES

    def test_no_fleet_module_compares_a_policy_key_literal(self):
        """Policies differ by their record's fields: no ``==``, ``!=``
        or ``in`` test against a key literal under ``repro.fleet``."""
        root = Path(__file__).resolve().parent.parent / "src" / "repro" / "fleet"
        offenders = [
            f"{path.name}:{node.lineno}"
            for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if _compares_policy_key(node)
        ]
        assert offenders == []

    def test_arcc_accumulates_sccdcd_pays_upfront(self):
        arcc, sccdcd = resolve_policies(["arcc", "sccdcd"])
        assert arcc.static_power_overhead == 0.0
        assert arcc.per_fault_power[FaultType.LANE] > 0
        assert sccdcd.static_power_overhead > 0
        assert not sccdcd.per_fault_power
        # SCCDCD's constant premium is ARCC's fully-upgraded asymptote.
        assert sccdcd.static_power_overhead == pytest.approx(
            arcc.per_fault_power[FaultType.LANE]
        )


class TestSliceReliability:
    POP = SubPopulation(name="x", channels=100, rate_multiplier=2.0)

    def test_params_cover_one_channel(self):
        """Closed forms run per channel: codewords (and lane faults)
        never span the independent channels of a memory system, matching
        the MC screen's same-channel rule."""
        params = slice_reliability_params(self.POP)
        cfg = self.POP.config
        assert params.devices_per_rank == cfg.devices_per_rank
        assert params.ranks == cfg.ranks_per_channel
        assert params.total_devices == cfg.total_devices // cfg.channels
        assert params.rate_multiplier == pytest.approx(2.0)

    def test_machine_rate_scales_with_channel_count(self):
        """Doubling the channels of a (hypothetical) system ~doubles the
        per-machine SDC rate: channels contribute independently."""
        from dataclasses import replace

        arcc = resolve_policies(["arcc"])[0]
        one = SubPopulation(
            name="one",
            channels=10,
            config=replace(self.POP.config, channels=1),
        )
        two = SubPopulation(name="two", channels=10)
        assert policy_sdc_per_1k(arcc, two) == pytest.approx(
            2 * policy_sdc_per_1k(arcc, one), rel=1e-6
        )

    def test_schedule_enters_as_time_weighted_mean(self):
        from repro.fleet.scenarios import RatePhase

        pop = SubPopulation(
            name="x",
            channels=100,
            lifespan_years=4.0,
            schedule=(RatePhase(duration_years=1.0, multiplier=5.0),),
        )
        params = slice_reliability_params(pop)
        # (1y * 5x + 3y * 1x) / 4y = 2x
        assert params.rate_multiplier == pytest.approx(2.0)

    def test_sccdcd_sdc_far_below_arcc(self):
        arcc, sccdcd, lotecc = resolve_policies(POLICY_KEYS)
        assert policy_sdc_per_1k(sccdcd, self.POP) < policy_sdc_per_1k(
            arcc, self.POP
        )
        # Relaxed detection: ARCC and ARCC+LOT-ECC share the pair race.
        assert policy_sdc_per_1k(lotecc, self.POP) == pytest.approx(
            policy_sdc_per_1k(arcc, self.POP)
        )

    def test_lotecc_due_an_order_of_magnitude_better(self):
        arcc, sccdcd, lotecc = resolve_policies(POLICY_KEYS)
        due_arcc = policy_due_per_1k(arcc, self.POP)
        due_lotecc = policy_due_per_1k(lotecc, self.POP)
        assert due_arcc == pytest.approx(policy_due_per_1k(sccdcd, self.POP))
        # The paper cites ~17x from gaining double chip sparing.
        assert due_arcc / due_lotecc > 10


class TestUncorrectablePairScreen:
    def test_pair_in_window_flags_channel(self):
        batch = _batch(
            [
                (0, 10.0, FaultType.DEVICE, 0, 0, 1),
                (0, 20.0, FaultType.DEVICE, 0, 0, 2),
            ]
        )
        assert uncorrectable_candidate_channels(batch, 100.0).tolist() == [True]

    def test_pair_outside_window_is_safe(self):
        batch = _batch(
            [
                (0, 10.0, FaultType.DEVICE, 0, 0, 1),
                (0, 500.0, FaultType.DEVICE, 0, 0, 2),
            ]
        )
        assert uncorrectable_candidate_channels(batch, 100.0).tolist() == [
            False
        ]

    def test_same_device_is_one_symbol(self):
        batch = _batch(
            [
                (0, 10.0, FaultType.ROW, 0, 0, 3),
                (0, 20.0, FaultType.BANK, 0, 0, 3),
            ]
        )
        assert uncorrectable_candidate_channels(batch, 100.0).tolist() == [
            False
        ]

    def test_different_rank_does_not_share_codewords(self):
        batch = _batch(
            [
                (0, 10.0, FaultType.DEVICE, 0, 0, 1),
                (0, 20.0, FaultType.DEVICE, 0, 1, 2),
            ]
        )
        assert uncorrectable_candidate_channels(batch, 100.0).tolist() == [
            False
        ]

    def test_lane_spans_ranks_of_its_channel(self):
        batch = _batch(
            [
                (0, 10.0, FaultType.LANE, 0, 0, 1),
                (0, 20.0, FaultType.DEVICE, 0, 1, 2),
            ]
        )
        assert uncorrectable_candidate_channels(batch, 100.0).tolist() == [True]

    def test_different_memory_channels_independent(self):
        batch = _batch(
            [
                (0, 10.0, FaultType.LANE, 0, 0, 1),
                (0, 20.0, FaultType.DEVICE, 1, 0, 2),
            ]
        )
        assert uncorrectable_candidate_channels(batch, 100.0).tolist() == [
            False
        ]

    def test_bit_faults_never_defeat_correction(self):
        batch = _batch(
            [
                (0, 10.0, FaultType.BIT, 0, 0, 1),
                (0, 20.0, FaultType.BIT, 0, 0, 2),
            ]
        )
        assert uncorrectable_candidate_channels(batch, 100.0).tolist() == [
            False
        ]

    def test_per_member_isolation(self):
        batch = _batch(
            [
                (0, 10.0, FaultType.DEVICE, 0, 0, 1),
                (1, 20.0, FaultType.DEVICE, 0, 0, 2),
                (2, 10.0, FaultType.DEVICE, 0, 0, 1),
                (2, 30.0, FaultType.DEVICE, 0, 0, 4),
            ]
        )
        assert uncorrectable_candidate_channels(batch, 100.0).tolist() == [
            False,
            False,
            True,
        ]


class TestComparisonReport:
    @pytest.fixture(scope="class")
    def report(self):
        return execute_plan(
            plan_fleet_compare(
                "mixed-generations",
                channels=1200,
                seed=0xC0FFEE,
            )
        )

    def test_structure(self, report):
        assert report.policies == list(POLICY_KEYS)
        assert {row.slice_name for row in report.slices} == {
            "arcc-new",
            "arcc-midlife",
            "legacy-x4",
        }
        assert len(report.slices) == 3 * len(POLICY_KEYS)
        assert len(report.fleet) == len(POLICY_KEYS)
        assert report.total_channels == pytest.approx(1200, abs=2)

    def test_every_mean_has_ci(self, report):
        for row in report.slices:
            for mean, half in (
                row.power_overhead,
                row.performance_overhead,
                row.uncorrectable_fraction,
            ):
                assert mean >= 0.0
                assert half >= 0.0
            assert row.sdc_per_1k_machine_years >= 0.0
            assert row.due_per_1k_machine_years >= 0.0

    def test_paper_orderings_hold(self, report):
        arcc = report.fleet_summary("arcc")
        sccdcd = report.fleet_summary("sccdcd")
        lotecc = report.fleet_summary("lotecc")
        # ARCC's accumulated overhead stays far below SCCDCD's premium.
        assert arcc.power_overhead[0] < sccdcd.power_overhead[0]
        # Strong detection wins SDC; sparing wins DUE.
        assert sccdcd.sdc_events_per_year < arcc.sdc_events_per_year
        assert lotecc.due_events_per_year < arcc.due_events_per_year
        assert report.best_by("power") == "arcc"
        assert report.best_by("sdc") == "sccdcd"
        assert report.best_by("due") == "lotecc"

    def test_arcc_and_sccdcd_due_identical(self, report):
        # Section 6.1: ARCC does not change the base code's DUE story.
        due = {
            (row.policy, row.slice_name): row.due_per_1k_machine_years
            for row in report.slices
        }
        for name in ("arcc-new", "legacy-x4"):
            assert due["arcc", name] == pytest.approx(due["sccdcd", name])

    def test_table_renders(self, report):
        table = report.to_table()
        assert "Policy comparison 'mixed-generations'" in table
        assert "Fleet decision table" in table
        assert "±" in table
        for key in POLICY_KEYS:
            assert key in table
        assert "Lowest power:" in table

    def test_lookup_errors(self, report):
        with pytest.raises(KeyError):
            report.fleet_summary("secded")
        with pytest.raises(KeyError):
            report.best_by("vibes")

    def test_jobs_1_vs_4_identical(self):
        kwargs = dict(
            scenario="harsh-environment",
            policies=("arcc", "lotecc"),
            channels=600,
            seed=3,
        )
        a = execute_plan(plan_fleet_compare(**kwargs), max_workers=1)
        b = execute_plan(plan_fleet_compare(**kwargs), max_workers=4)
        assert [vars(s) for s in a.slices] == [vars(s) for s in b.slices]
        assert [vars(s) for s in a.fleet] == [vars(s) for s in b.fleet]

    def test_policy_subset_and_order_respected(self):
        report = execute_plan(
            plan_fleet_compare(
                "steady",
                policies=("lotecc", "arcc"),
                channels=200,
            )
        )
        assert report.policies == ["lotecc", "arcc"]
        assert [s.policy for s in report.fleet] == ["lotecc", "arcc"]


class TestPairedSampling:
    def test_policies_share_block_seeds(self):
        """One job per (slice, block) asks for every policy's power and
        performance rows, in order, and one pair screen per distinct
        correction window, on exactly the blocks :func:`plan_fleet`
        samples for that slice."""
        kwargs = dict(scenario="mixed-generations", channels=1500, seed=11)
        plan = plan_fleet_compare(policies=POLICY_KEYS, **kwargs)
        blocks = [
            (
                job.name.split("[", 1)[1],
                job.kwargs["seed"],
                job.kwargs["index"],
                job.kwargs["channels"],
            )
            for job in plan.jobs
        ]
        fleet_blocks = [
            (
                job.name.split("[", 1)[1],
                job.kwargs["seed"],
                job.kwargs["index"],
                job.kwargs["channels"],
            )
            for job in plan_fleet(**kwargs).jobs
        ]
        assert blocks == fleet_blocks
        rows = tuple(
            row
            for policy in resolve_policies(POLICY_KEYS)
            for row in (
                (policy.per_fault_power, policy.power_cap),
                (policy.per_fault_performance, policy.performance_cap),
            )
        )
        scrub_hours = ReliabilityParams().scrub_interval_hours
        for job in plan.jobs:
            overheads, screens = job.kwargs["reductions"]
            assert overheads.rows == rows
            # arcc and sccdcd share the repair window; lotecc's is a scrub.
            assert screens.windows == (DEFAULT_REPAIR_HOURS, scrub_hours)

    def test_sharing_a_job_never_changes_a_policy_row(self):
        """Each policy scored alone gets exactly its cells of the
        three-policy report: neither the shared block, the shared
        accumulation pass nor the shared screen per window leaks."""
        scenario = FleetScenario(
            name="two-windows",
            description="hot enough that the repair and scrub screens differ",
            populations=(
                SubPopulation(
                    name="hot",
                    channels=1500,
                    rate_multiplier=400.0,
                    spatial=SpatialFaultModel(kind="retention-cluster", fraction=0.9),
                ),
                SubPopulation(name="calm", channels=600),
            ),
        )
        kwargs = dict(scenario=scenario, seed=5)
        together = execute_plan(plan_fleet_compare(policies=POLICY_KEYS, **kwargs))
        unc = {
            row.policy: row.uncorrectable_fraction[0]
            for row in together.slices
            if row.slice_name == "hot"
        }
        assert unc["arcc"] > unc["lotecc"] > 0  # both windows flag channels
        for key in POLICY_KEYS:
            alone = execute_plan(plan_fleet_compare(policies=(key,), **kwargs))
            assert [vars(row) for row in alone.slices] == [
                vars(row) for row in together.slices if row.policy == key
            ]
            assert vars(alone.fleet_summary(key)) == vars(together.fleet_summary(key))

    def test_custom_scenario_object(self):
        scenario = FleetScenario(
            name="tiny-compare",
            description="doc",
            populations=(SubPopulation(name="only", channels=100),),
        )
        report = execute_plan(
            plan_fleet_compare(scenario, policies=("arcc",))
        )
        assert report.scenario == "tiny-compare"
        assert len(report.slices) == 1


class TestRegistryAndCLI:
    def test_registry_exposes_fleet_compare(self):
        from repro.runner.registry import FIGURES, build_plans

        assert "fleet-compare" in FIGURES
        (plan,) = build_plans(["fleet-compare"], quick=True)
        assert plan.name == "fleet-compare"
        assert plan.jobs

    def test_cli_policies_flag(self, capsys):
        from repro.cli import main

        code = main(
            ["fleet", "steady", "--policies", "arcc,sccdcd", "--channels", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Policy comparison 'steady'" in out
        assert "Fleet decision table" in out

    def test_cli_unknown_policy_suggests(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="did you mean 'sccdcd'"):
            main(["fleet", "steady", "--policies", "sccdc"])

    def test_cli_policies_tolerate_spaces(self, capsys):
        from repro.cli import main

        code = main(
            ["fleet", "steady", "--policies", "arcc, lotecc", "--channels", "100"]
        )
        assert code == 0
        assert "Policy comparison 'steady'" in capsys.readouterr().out

    def test_cli_empty_policies_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="at least one policy"):
            main(["fleet", "steady", "--policies", ","])

    def test_cli_list_mentions_policies_and_descriptions(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--list"]) == 0
        out = capsys.readouterr().out
        from repro.fleet.scenarios import DEFAULT_SCENARIOS

        for scenario in DEFAULT_SCENARIOS.values():
            assert scenario.name in out
            assert scenario.description in out
            for pop in scenario.populations:
                assert pop.name in out
        assert "policies (--policies): arcc, sccdcd, lotecc" in out
