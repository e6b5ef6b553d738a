"""The differential fuzz harness: sampler validity, campaign behaviour.

Three properties carry the harness:

* every sampled case is *valid* — organizations round-trip through the
  scenario-file loader's constraints, schedules through
  ``SubPopulation``, so a campaign can only ever fail by divergence;
* campaigns are pure functions of (seed, count): same seed, same cases,
  same verdicts, bit-identical between ``--jobs 1`` and ``--jobs N``;
* the tier-1 smoke campaign itself: a fixed-seed quick run across every
  registered oracle pair must finish with zero divergences (the nightly
  CI job runs the same command 20x larger).
"""

import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fuzz import sampler
from repro.fuzz.campaign import plan_campaign, run_campaign, sample_campaign_cases
from repro.fuzz.oracles import ORACLE_PAIRS, organization_config, resolve_oracles
from repro.util.rng import make_rng


class TestSamplerValidity:
    @pytest.mark.parametrize("seed", range(12))
    def test_sampled_organizations_load(self, seed):
        """Every sampled organization table passes the scenario-file
        loader's full constraint set (io_width, pow2 sizes, check
        devices, capacity alignment)."""
        rng = make_rng(seed)
        org = sampler.sample_organization(rng)
        config = organization_config(org)
        assert config.channels == org["channels"]
        assert config.check_devices_per_rank >= 1

    @pytest.mark.parametrize("seed", range(8))
    def test_arcc_required_organizations_are_capable(self, seed):
        from repro.perf.engine import arcc_capable

        org = sampler.sample_organization(make_rng(seed), require_arcc=True)
        assert arcc_capable(organization_config(org))

    def test_builtin_references_resolve(self):
        for name in sampler.BUILTIN_ORGANIZATIONS:
            assert organization_config(name).channels >= 2

    @pytest.mark.parametrize("key", ORACLE_PAIRS)
    def test_case_sampling_is_deterministic(self, key):
        pair = ORACLE_PAIRS[key]
        assert pair.sample(make_rng(7), False) == pair.sample(
            make_rng(7), False
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_schedules_fit_the_lifespan(self, seed):
        phases = sampler.sample_schedule(make_rng(seed), 5.0)
        assert len(phases) <= 2
        assert sum(duration for duration, _ in phases) < 5.0

    def test_mix_names_are_real(self):
        from repro.workloads.spec import mix_by_name

        names = sampler.sample_mix_names(make_rng(3), 1, 2)
        for name in names:
            assert mix_by_name(name).name == name


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestRoundTo:
    """``sampler.round_to`` is ``float(np.round(x, d))``, bit for bit
    (the sign of a zero and NaN's pass-through included)."""

    @settings(max_examples=400, deadline=None)
    @given(
        value=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(-50.0, 50.0),
            # Halfway values at every number of places the sampler uses.
            st.builds(
                lambda n, d: (n + 0.5) / 10.0**d,
                st.integers(-(10**6), 10**6),
                st.integers(2, 4),
            ),
        ),
        decimals=st.integers(2, 4),
    )
    @example(value=-0.0, decimals=3)
    @example(value=-0.00049, decimals=3)
    @example(value=0.125, decimals=2)
    @example(value=2.675, decimals=2)
    @example(value=1e300, decimals=3)
    @example(value=1e306, decimals=4)
    @example(value=-math.inf, decimals=2)
    @example(value=math.nan, decimals=4)
    def test_equals_numpy(self, value, decimals):
        with np.errstate(over="ignore"):
            expected = float(np.round(value, decimals))
        got = sampler.round_to(value, decimals)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize(
        "low, high, decimals",
        [(2.0, 40.0, 3), (0.1, 2.5, 3), (0.5, 6.0, 3), (0.0, 1.0, 4),
         (1.0, 7.0, 2), (4.0, 24.0, 2), (0.0, 0.4, 4), (0.3, 1.2, 3)],
    )
    def test_sampler_ranges(self, low, high, decimals):
        for value in make_rng(11).uniform(low, high, 5_000).tolist():
            assert _bits(sampler.round_to(value, decimals)) == _bits(
                float(np.round(value, decimals))
            )


class TestCampaign:
    def test_cases_are_pinned(self):
        """The 200-case campaign of seed 0, as sampled with NumPy's
        scalar rounding: the draws, their order and every rounded
        value are unchanged."""
        for quick, pinned in ((False, "01c6ef4818262f32"),
                              (True, "8fa0e3fa60cdd7cb")):
            cases = [
                (index, pair.key, case_seed, case)
                for index, pair, case_seed, case in sample_campaign_cases(
                    0, 200, quick=quick
                )
            ]
            text = json.dumps(cases, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == pinned

    def test_cases_are_pure_functions_of_seed_and_index(self):
        full = sample_campaign_cases(seed=5, count=10, quick=True)
        again = sample_campaign_cases(seed=5, count=10, quick=True)
        assert [(i, p.key, s, c) for i, p, s, c in full] == [
            (i, p.key, s, c) for i, p, s, c in again
        ]
        # Prefix stability: a longer campaign starts with the same cases.
        longer = sample_campaign_cases(seed=5, count=14, quick=True)
        assert [c for _, _, _, c in longer[:10]] == [
            c for _, _, _, c in full
        ]

    def test_round_robin_covers_every_pair(self):
        plan = plan_campaign(seed=1, count=len(ORACLE_PAIRS) * 2, quick=True)
        names = [job.name for job in plan.jobs]
        for key in ORACLE_PAIRS:
            assert sum(f"[{key}]" in n for n in names) == 2

    def test_smoke_campaign_finds_no_divergence(self):
        """Tier-1's fixed-seed smoke campaign across every oracle pair."""
        report = run_campaign(seed=0, count=10, quick=True, jobs=1)
        assert report.ok, report.to_table()
        assert {r.oracle for r in report.results} == set(ORACLE_PAIRS)
        assert "all cases agree" in report.to_table()

    @pytest.mark.slow
    def test_jobs_parallelism_is_bit_identical(self):
        serial = run_campaign(seed=3, count=10, quick=True, jobs=1)
        parallel = run_campaign(seed=3, count=10, quick=True, jobs=2)
        assert [
            (r.index, r.oracle, r.case_seed, r.case, r.diverged, r.detail)
            for r in serial.results
        ] == [
            (r.index, r.oracle, r.case_seed, r.case, r.diverged, r.detail)
            for r in parallel.results
        ]


class TestOracleRegistry:
    def test_every_pair_declares_guarantee_and_hook(self):
        for pair in ORACLE_PAIRS.values():
            assert pair.guarantee in ("bit-identical", "exact", "upper-bound")
            assert pair.hook.startswith("tests/")

    def test_resolve_preserves_request_order_and_dedups(self):
        picked = resolve_oracles(["pair-screen", "montecarlo", "pair-screen"])
        assert [p.key for p in picked] == ["pair-screen", "montecarlo"]

    def test_unknown_oracle_gets_a_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'montecarlo'"):
            resolve_oracles(["montecarl"])

    def test_unknown_organization_gets_a_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'arcc'"):
            organization_config("arc")

    def test_registry_exposes_fuzz_figure(self):
        from repro.runner.registry import FIGURES

        assert "fuzz" in FIGURES
        plan = FIGURES["fuzz"].plan(quick=True)
        assert len(plan.jobs) == 10

    def test_unknown_figure_gets_a_suggestion(self):
        from repro.runner.registry import build_plans

        with pytest.raises(KeyError, match="did you mean 'fuzz'"):
            build_plans(["fuz"])

    def test_unknown_scenario_gets_a_suggestion(self):
        from repro.fleet.scenarios import DEFAULT_SCENARIOS, resolve_scenario

        first = next(iter(DEFAULT_SCENARIOS))
        with pytest.raises(KeyError, match="did you mean"):
            resolve_scenario(first[:-1] + "x")


class TestFuzzCli:
    def test_list_names_every_pair(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--list"]) == 0
        out = capsys.readouterr().out
        for key in ORACLE_PAIRS:
            assert key in out

    def test_smoke_campaign_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--seed", "0", "--count", "5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all cases agree" in out
        assert "0 divergence(s)" in out

    def test_unknown_oracle_flag_suggests(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="did you mean"):
            main(["fuzz", "--oracles", "montecarl", "--count", "1"])

    def test_replay_missing_file_fails_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="repro fuzz"):
            main(["fuzz", "--replay", str(tmp_path / "nope.json")])
