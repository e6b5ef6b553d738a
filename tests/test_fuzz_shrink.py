"""The shrinker's contract, proven against an intentionally broken engine.

The campaign's promise is not "finds bugs" but "turns a bug into a
minimal, replayable artifact". These tests break a real engine — the
vectorized Monte-Carlo fast path's scrub-boundary helper
(``_next_scrub_array``), which the exact event loops never call — run a
campaign against it, and pin the whole reporting pipeline:

* the campaign finds the divergence and the shrinker minimizes it
  **deterministically** (same input case, same minimized case),
  **monotonically** (every adopted candidate, and the final case, still
  diverges) and **boundedly** (at most ``SHRINK_PASS_BUDGET`` passes);
* the written repro file replays to the same divergence while the bug
  exists (`repro fuzz --replay` exits 1) and comes back clean once the
  engine is fixed (exits 0).
"""

import json

import numpy as np
import pytest

import repro.reliability.montecarlo as mc_mod
from repro.fuzz.campaign import run_campaign, sample_campaign_cases
from repro.fuzz.oracles import ORACLE_PAIRS
from repro.fuzz.shrink import (
    SHRINK_PASS_BUDGET,
    load_repro_file,
    replay_repro_file,
    shrink_case,
    write_repro_file,
)


@pytest.fixture
def broken_scrub(monkeypatch):
    """Break only the vectorized fast path: scrubs never happen, so every
    intersecting two-fault pair becomes an ARCC SDC / sparing DUE even
    when the exact event loop sees it detected in time."""
    monkeypatch.setattr(
        mc_mod,
        "_next_scrub_array",
        lambda time_hours, interval: np.full_like(time_hours, np.inf),
    )


def _diverging_case():
    """The first seed-0 montecarlo case that trips the broken engine."""
    pair = ORACLE_PAIRS["montecarlo"]
    for _, _, _, case in sample_campaign_cases(
        seed=0, count=10, oracles=["montecarlo"], quick=True
    ):
        if pair.execute(case) is not None:
            return case
    raise AssertionError("broken engine produced no divergence in 10 cases")


class TestBrokenEngineCampaign:
    def test_campaign_finds_minimizes_and_writes_repro(
        self, broken_scrub, tmp_path
    ):
        report = run_campaign(
            seed=0,
            count=10,
            oracles=["montecarlo"],
            quick=True,
            jobs=1,
            report_dir=tmp_path,
        )
        assert not report.ok
        assert report.shrunk and report.repro_paths
        shrunk = report.shrunk[0]
        # Monotone: the minimized case is itself the stored divergence.
        assert ORACLE_PAIRS["montecarlo"].execute(shrunk.case) == shrunk.detail
        # Actually smaller, not just re-sampled.
        assert shrunk.case["channels"] <= shrunk.original_case["channels"]
        assert shrunk.shrunk

        payload = load_repro_file(report.repro_paths[0])
        assert payload["oracle"] == "montecarlo"
        assert payload["campaign_seed"] == 0
        assert payload["case"] == shrunk.case

    def test_table_names_each_divergence_and_repro(
        self, broken_scrub, tmp_path
    ):
        report = run_campaign(
            seed=0, count=4, oracles=["montecarlo"], quick=True, jobs=1,
            report_dir=tmp_path,
        )
        lines = report.to_table().splitlines()
        diverged = [line for line in lines if line.startswith("DIVERGED")]
        written = [line for line in lines if line.startswith("repro written")]
        assert len(diverged) == len(report.divergences) >= 1
        assert written == [f"repro written: {p}" for p in report.repro_paths]
        assert "all cases agree" not in lines


class TestShrinkerContract:
    def test_deterministic(self, broken_scrub):
        case = _diverging_case()
        first = shrink_case("montecarlo", case)
        second = shrink_case("montecarlo", case)
        assert first == second

    def test_monotone(self, broken_scrub):
        case = _diverging_case()
        result = shrink_case("montecarlo", case)
        assert ORACLE_PAIRS["montecarlo"].execute(result.case) is not None

    def test_bounded(self, broken_scrub):
        case = _diverging_case()
        result = shrink_case("montecarlo", case)
        assert result.passes <= SHRINK_PASS_BUDGET
        tighter = shrink_case("montecarlo", case, budget=2)
        assert tighter.passes <= 2
        # A tighter budget still returns a diverging case.
        assert ORACLE_PAIRS["montecarlo"].execute(tighter.case) is not None

    def test_passing_case_is_rejected(self):
        case = _healthy_case()
        with pytest.raises(ValueError, match="does not diverge"):
            shrink_case("montecarlo", case)


def _healthy_case():
    return sample_campaign_cases(
        seed=0, count=1, oracles=["montecarlo"], quick=True
    )[0][3]


class TestShrinkCandidates:
    """Every pair's ``shrinks`` lists strictly smaller cases, so greedy
    shrinking terminates whatever the engines say."""

    @staticmethod
    def _shrinkable_case(key):
        pair = ORACLE_PAIRS[key]
        for _, _, _, case in sample_campaign_cases(
            seed=0, count=12, oracles=[key]
        ):
            if pair.shrinks(case):
                return case
        raise AssertionError(f"no shrinkable {key} case in 12 samples")

    @pytest.mark.parametrize("key", ORACLE_PAIRS)
    def test_greedy_chain_terminates(self, key):
        pair = ORACLE_PAIRS[key]
        case = self._shrinkable_case(key)
        assert pair.shrinks(case) == pair.shrinks(case)
        steps = 0
        while True:
            candidates = pair.shrinks(case)
            if not candidates:
                break
            for candidate in candidates:
                assert candidate != case
                assert candidate.keys() == case.keys()
            case = candidates[0]
            steps += 1
            assert steps < 200, f"{key}: shrinking does not terminate"
        assert steps >= 1


class TestReplay:
    def test_replay_reproduces_then_clears(
        self, broken_scrub, tmp_path, capsys
    ):
        from repro.cli import main

        result = shrink_case("montecarlo", _diverging_case())
        path = write_repro_file(
            tmp_path / "repro.json", result, campaign_seed=0, case_index=0
        )
        # Replaying against the still-broken engine reproduces: exit 1.
        assert main(["fuzz", "--replay", str(path)]) == 1
        assert "still diverges" in capsys.readouterr().out
        assert replay_repro_file(path) == result.detail

    def test_replay_clean_after_fix(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        orig = mc_mod._next_scrub_array
        monkeypatch.setattr(
            mc_mod,
            "_next_scrub_array",
            lambda t, i: np.full_like(t, np.inf),
        )
        result = shrink_case("montecarlo", _diverging_case())
        path = write_repro_file(tmp_path / "repro.json", result)
        monkeypatch.setattr(mc_mod, "_next_scrub_array", orig)
        # The engine is fixed: the repro comes back clean, exit 0.
        assert replay_repro_file(path) is None
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_repro_naming_an_unknown_oracle_rejected(self, tmp_path):
        from repro.fuzz.shrink import REPRO_FORMAT

        path = tmp_path / "repro.json"
        path.write_text(
            json.dumps({"format": REPRO_FORMAT, "oracle": "nosuch"})
        )
        with pytest.raises(ValueError, match="unknown oracle 'nosuch'"):
            load_repro_file(path)

    def test_replay_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-repro.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a repro-fuzz/1"):
            replay_repro_file(path)
