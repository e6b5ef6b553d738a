"""Tests for refresh modeling, Section 5.1 multi-upgrades, SECDED DUE
comparison, and the CLI."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _engine_summary, build_parser, main
from repro.core.multi_upgrade import (
    SplitUpgrade,
    StripedUpgrade,
    second_upgrade_population_fraction,
)
from repro.core.scrubber import scrub_bandwidth_overhead
from repro.dram.refresh import RefreshModel, refresh_vs_scrub_overhead
from repro.dram.timing import MICRON_512MB_X4, MICRON_512MB_X8
from repro.ecc.base import CodecError, DecodeStatus
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.due import (
    chipkill_vs_secded_due_factor,
    due_rate_sccdcd,
    due_rate_secded,
)
from repro.runner.executor import execute_plans
from repro.runner.registry import build_plans
from repro.util.units import GB


def random_bytes(n, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


class TestRefreshModel:
    def test_duty_cycle_ddr2(self):
        model = RefreshModel(MICRON_512MB_X4)
        assert model.duty_cycle == pytest.approx(105.0 / 7800.0)

    def test_power_positive_and_small(self):
        model = RefreshModel(MICRON_512MB_X8)
        assert 0 < model.average_power_w < 0.01  # a few mW per device

    def test_rank_power_scales(self):
        model = RefreshModel(MICRON_512MB_X4)
        assert model.rank_power_w(36) == pytest.approx(
            36 * model.average_power_w
        )
        with pytest.raises(ValueError):
            model.rank_power_w(0)

    def test_invalid_timing_rejected(self):
        with pytest.raises(ValueError):
            RefreshModel(MICRON_512MB_X4, trefi_ns=50.0, trfc_ns=105.0)

    def test_scrub_far_below_refresh(self):
        """Section 4.2.2 in context: ARCC's 0.0167% scrub bandwidth is a
        rounding error next to the ~1.3% every DRAM pays for refresh."""
        refresh = RefreshModel(MICRON_512MB_X4)
        scrub = scrub_bandwidth_overhead(4 * GB)
        ratio = refresh_vs_scrub_overhead(refresh, scrub)
        assert ratio < 0.05


class TestStripedUpgrade:
    def test_two_device_failures_corrected(self):
        striped = StripedUpgrade()
        data = random_bytes(256, seed=1)
        cws = striped.encode(data)
        corrupted = striped.codec.corrupt_device(
            striped.codec.corrupt_device(cws, 5, 0x3C), 50, 0xC3
        )
        result = striped.decode(corrupted)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data

    def test_spans_72_devices(self):
        assert StripedUpgrade().devices_per_access == 72

    def test_three_failures_detected(self):
        striped = StripedUpgrade()
        cws = striped.encode(random_bytes(256, seed=2))
        for device in (1, 20, 40):
            cws = striped.codec.corrupt_device(cws, device, 0x11)
        assert striped.decode(cws).status == DecodeStatus.DETECTED_UE

    def test_erasures_stretch_further(self):
        """Known-bad devices cost one distance unit each: four erasures
        (the four extra spares of Section 5.1) decode fine."""
        striped = StripedUpgrade()
        data = random_bytes(256, seed=3)
        cws = striped.encode(data)
        bad = [3, 20, 40, 60]
        for device in bad:
            cws = striped.codec.corrupt_device(cws, device, 0x55)
        result = striped.decode(cws, erasures=bad)
        assert result.ok and result.data == data


class TestSplitUpgrade:
    def test_same_device_rejected(self):
        with pytest.raises(CodecError):
            SplitUpgrade((5, 5))
        with pytest.raises(CodecError):
            SplitUpgrade((0, 72))

    def test_wrong_line_size_rejected(self):
        with pytest.raises(CodecError):
            SplitUpgrade((1, 40)).encode(bytes(64))

    def test_spares_consumed_on_encode(self):
        split = SplitUpgrade((1, 40))
        split.encode(random_bytes(128, seed=4))
        assert split.can_absorb_another_failure

    def test_each_half_absorbs_new_failure(self):
        """The design goal: after splitting, each smaller codeword can
        correct yet another bad symbol."""
        split = SplitUpgrade((1, 40))
        data = random_bytes(128, seed=5)
        first, second = split.encode(data)

        def corrupt(cws, device):
            out = [list(cw) for cw in cws]
            for cw in out:
                cw[device] ^= 0x2A
            return out

        result = split.decode(corrupt(first, 9), corrupt(second, 13))
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == data

    def test_bad_devices_in_same_half_divided(self):
        split = SplitUpgrade((3, 7))  # both in half 0
        data = random_bytes(128, seed=6)
        first, second = split.encode(data)
        assert split.can_absorb_another_failure
        assert split.decode(first, second).status == DecodeStatus.NO_ERROR


class TestSecondUpgradeFraction:
    def test_tiny_population(self):
        """Paper: pages in the second upgraded mode are a tiny fraction
        of the (already small) first upgraded population."""
        fraction = second_upgrade_population_fraction(0.02)
        assert fraction < 0.001

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            second_upgrade_population_fraction(1.5)
        with pytest.raises(ValueError):
            second_upgrade_population_fraction(0.5, conditional_second_fault=2.0)


class TestSecdedComparison:
    def test_secded_worse_than_chipkill(self):
        params = ReliabilityParams()
        assert due_rate_secded(params) > due_rate_sccdcd(params)

    def test_field_study_band(self):
        """Chapter 1: chipkill reduces DUEs 4x-36x vs SECDED. Our model
        should land at or above the low end of that band."""
        factor = chipkill_vs_secded_due_factor(ReliabilityParams())
        assert factor >= 4.0

    def test_secded_rate_linear_in_multiplier(self):
        low = due_rate_secded(ReliabilityParams(rate_multiplier=1.0))
        high = due_rate_secded(ReliabilityParams(rate_multiplier=4.0))
        assert high == pytest.approx(4 * low)


class TestCli:
    """``repro run KEY`` is the one front door to every figure."""

    def test_parser_subcommands(self):
        parser = build_parser()
        subparsers = next(
            action.choices
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        assert set(subparsers) == {"fleet", "study", "run", "fuzz"}

    def test_run_prints_the_rendered_plans(self, capsys):
        keys = ["tables", "fig3.1", "fig7.6"]
        assert main(["run", *keys, "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        expected = "".join(
            f"{result.to_table() if hasattr(result, 'to_table') else result}"
            "\n\n"
            for result in execute_plans(build_plans(keys, quick=True))
        )
        assert out.startswith(expected)
        summary, engine = out[len(expected):].splitlines()
        assert re.fullmatch(
            r"\[repro run\] 3 figure\(s\), \d+ job\(s\), --jobs 1, "
            r"[\d.]+s \(cache: off\)",
            summary,
        )
        assert engine == f"[repro run] {_engine_summary()}"

    @staticmethod
    def _env():
        """A child ``repro`` that writes each print at once, as a slow
        run piped into ``head`` does."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": "1"}

    def test_reader_closing_after_one_line_is_no_traceback(self, tmp_path):
        """``repro run tables | head -1``: the footer lines meet a closed
        pipe, and the command ends without a traceback."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "tables", "--no-cache"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env(),
            cwd=tmp_path,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() in (0, 1)
        assert first == b"Table 7.1: Memory Configurations\n"
        assert err == b""

    def test_closed_pipe_exits_1_without_traceback(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "fuzz", "--list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=self._env(),
                cwd=tmp_path,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_run_unknown_key_suggests_closest(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig7.l"])
        assert "(did you mean 'fig7.1'?)" in str(excinfo.value.code)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fleet", "steady", "--channels", "0"], "--channels"),
            (
                [
                    "study",
                    "examples/scenarios/scale_study.toml",
                    "--channels",
                    "0",
                ],
                "--channels",
            ),
            (["fuzz", "--count", "-1"], "--count"),
            (["fleet", "steady", "--jobs", "-2"], "--jobs"),
            (["run", "tables", "--jobs", "0"], "--jobs"),
            (["fleet", "steady", "--seed", "-1"], "--seed"),
            (
                [
                    "study",
                    "examples/scenarios/scale_study.toml",
                    "--seed",
                    "-1",
                ],
                "--seed",
            ),
            (["fuzz", "--seed", "-1"], "--seed"),
            (["fuzz", "--seed", "x"], "--seed"),
        ],
    )
    def test_bad_counts_exit_2_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        kind = "non-negative" if flag == "--seed" else "positive"
        assert f"argument {flag}: must be a {kind} integer" in err
        assert "Traceback" not in err
