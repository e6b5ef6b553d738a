"""Tests for declarative study campaigns (repro.fleet.study)."""

import json

import pytest

from repro.cli import main
from repro.fleet import (
    ScenarioFileError,
    expand_study,
    load_study_file,
    run_study,
    scenario_from_mapping,
    study_from_mapping,
)
from repro.fleet.study import EXAMPLE_STUDY_PATH, resolve_study_path
from repro.runner import ResultCache


def base_mapping(**study):
    """A minimal valid study mapping with the given [study] section."""
    return {
        "name": "s",
        "channels": 400,
        "populations": [
            {
                "name": "fleet",
                "channels": 400,
                "config": "arcc",
                "lifespan_years": 2.0,
            }
        ],
        "study": study,
    }


def tiny_study(**overrides):
    """A fast measured study: 1 mix, tiny traces, a 2x2 grid."""
    section = {
        "measured": True,
        "mixes": 1,
        "instruction_scales": [1000, 2000],
        "rate_multipliers": [1.0, 2.0],
        "policies": ["arcc", "sccdcd"],
    }
    section.update(overrides)
    section = {k: v for k, v in section.items() if v is not None}
    return study_from_mapping(base_mapping(**section))


def write_study(tmp_path, mapping, name="study.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping))
    return path


class TestValidation:
    def test_missing_section_rejected(self):
        mapping = base_mapping()
        del mapping["study"]
        with pytest.raises(ScenarioFileError, match=r"\[study\]"):
            study_from_mapping(mapping)

    def test_both_aliases_rejected(self):
        mapping = base_mapping()
        mapping["sweep"] = {}
        with pytest.raises(ScenarioFileError, match="not both"):
            study_from_mapping(mapping)

    def test_study_file_rejected_by_plain_scenario_loader(self):
        with pytest.raises(ScenarioFileError, match="repro study"):
            scenario_from_mapping(base_mapping(measured=True))

    def test_unknown_key_suggests(self):
        with pytest.raises(
            ScenarioFileError, match="rate_multipliers"
        ) as excinfo:
            study_from_mapping(base_mapping(rate_multiplier=[1.0]))
        assert "study.rate_multiplier" in str(excinfo.value)

    def test_unknown_policy_suggests(self):
        with pytest.raises(ScenarioFileError, match="arcc"):
            study_from_mapping(base_mapping(policies=["arcx"]))

    def test_mixed_flat_and_nested_policies_rejected(self):
        with pytest.raises(ScenarioFileError, match="mixture"):
            study_from_mapping(base_mapping(policies=["arcc", ["sccdcd"]]))

    def test_nested_policy_sets_accepted(self):
        study = study_from_mapping(
            base_mapping(policies=[["arcc", "sccdcd"], ["arcc", "lotecc"]])
        )
        assert study.policy_sets == (("arcc", "sccdcd"), ("arcc", "lotecc"))

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(ScenarioFileError, match="duplicate"):
            study_from_mapping(base_mapping(rate_multipliers=[1.0, 1.0]))

    def test_zero_rate_multiplier_rejected(self):
        with pytest.raises(ScenarioFileError, match="must be > 0"):
            study_from_mapping(base_mapping(rate_multipliers=[0.0]))

    @pytest.mark.parametrize(
        "section, message",
        [
            (
                {"measured": True, "instruction_scales": [1000, "2000"]},
                "study.instruction_scales[1]: expected int, got str",
            ),
            (
                {"measured": True, "instruction_scales": [1000, True]},
                "study.instruction_scales[1]: expected int, got bool",
            ),
            (
                {"measured": True, "instruction_scales": [1000, 0]},
                "study.instruction_scales[1]: must be >= 1, got 0",
            ),
            (
                {"rate_multipliers": [1.0, 0]},
                "study.rate_multipliers[1]: must be > 0, got 0",
            ),
            (
                {"rate_multipliers": [1.0, "x"]},
                "study.rate_multipliers[1]: expected number, got str",
            ),
            (
                {"rate_multipliers": [1.0, True]},
                "study.rate_multipliers[1]: expected number, got bool",
            ),
            (
                {"upgraded_fractions": [0.0, 1.5]},
                "study.upgraded_fractions[1]: must be <= 1, got 1.5",
            ),
            (
                {"upgraded_fractions": [0.0, -0.5]},
                "study.upgraded_fractions[1]: must be >= 0, got -0.5",
            ),
            (
                {"measured": True, "mixes": True},
                "study.mixes: expected int, got bool",
            ),
            (
                {"measured": True, "mixes": 0},
                "study.mixes: must be >= 1, got 0",
            ),
            (
                {"measured": "yes"},
                "study.measured: expected bool, got str",
            ),
            (
                {"rate_multipliers": "1.0"},
                "study.rate_multipliers: expected an array, got str",
            ),
            (
                {"rate_multipliers": []},
                "study.rate_multipliers: must not be empty",
            ),
        ],
    )
    def test_value_errors_name_the_element(self, section, message):
        """Exact error text and dotted path, down to the axis element."""
        with pytest.raises(ScenarioFileError) as excinfo:
            study_from_mapping(base_mapping(**section))
        assert str(excinfo.value) == message

    def test_fractions_need_zero_point(self):
        with pytest.raises(ScenarioFileError, match="0.0"):
            study_from_mapping(base_mapping(upgraded_fractions=[0.5, 1.0]))

    def test_fraction_above_one_rejected(self):
        with pytest.raises(ScenarioFileError, match="<= 1"):
            study_from_mapping(base_mapping(upgraded_fractions=[0.0, 1.5]))

    def test_scales_need_measurements(self):
        with pytest.raises(ScenarioFileError, match="measured"):
            study_from_mapping(base_mapping(instruction_scales=[1000]))

    def test_too_many_mixes_rejected(self):
        with pytest.raises(ScenarioFileError, match="12"):
            study_from_mapping(base_mapping(mixes=13))

    def test_engine_key_rejected(self):
        """The replay tier is picked by the code, not by study files."""
        with pytest.raises(ScenarioFileError, match="unknown key") as excinfo:
            study_from_mapping(base_mapping(engine="auto"))
        assert "study.engine" in str(excinfo.value)

    def test_axis_only_organization_table_allowed(self):
        mapping = base_mapping(organizations=["custom"])
        mapping["organizations"] = {
            "custom": {
                "io_width": 8,
                "channels": 3,
                "ranks_per_channel": 1,
                "devices_per_rank": 9,
                "data_devices_per_rank": 8,
            }
        }
        study = study_from_mapping(mapping)
        assert [c.name for c in study.organizations] == ["custom"]

    def test_orphan_organization_table_rejected(self):
        mapping = base_mapping()
        mapping["organizations"] = {
            "orphan": {
                "io_width": 8,
                "channels": 3,
                "ranks_per_channel": 1,
                "devices_per_rank": 9,
                "data_devices_per_rank": 8,
            }
        }
        with pytest.raises(ScenarioFileError, match="orphan"):
            study_from_mapping(mapping)

    def test_unknown_axis_organization_suggests(self):
        with pytest.raises(ScenarioFileError, match="baseline"):
            study_from_mapping(base_mapping(organizations=["baselin"]))

    def test_single_channel_org_rejected_for_measured(self):
        mapping = base_mapping(measured=True, organizations=["narrow"])
        mapping["organizations"] = {
            "narrow": {
                "io_width": 8,
                "channels": 1,
                "ranks_per_channel": 1,
                "devices_per_rank": 9,
                "data_devices_per_rank": 8,
            }
        }
        with pytest.raises(ScenarioFileError, match="2 channels"):
            study_from_mapping(mapping)

    def test_source_prefixes_errors(self, tmp_path):
        path = write_study(tmp_path, base_mapping(mixes=0))
        with pytest.raises(ScenarioFileError, match="study.json"):
            load_study_file(path)


class TestValueRules:
    """Study values are the Study's to check; the loader re-paths them."""

    @pytest.mark.parametrize(
        "section, message",
        [
            (
                {"upgraded_fractions": [0.0, float("nan")]},
                "study.upgraded_fractions[1]: must be finite, got nan",
            ),
            (
                {"rate_multipliers": [1.0, float("inf")]},
                "study.rate_multipliers[1]: must be finite, got inf",
            ),
            (
                {"policies": [["arcc"], ["arcc", "arcx"]]},
                "study.policies[1][1]: unknown policy 'arcx' "
                "(did you mean 'arcc'?); known: arcc, sccdcd, lotecc",
            ),
            (
                {"policies": ["sccdcd", "sccdcd"]},
                "study.policies[1]: duplicate policy 'sccdcd'",
            ),
            (
                {"measured": True, "instruction_scales": [1000, 10**12]},
                "study.instruction_scales[1]: must be <= 1000000000, "
                "got 1000000000000",
            ),
        ],
        ids=[
            "nan-fraction",
            "inf-multiplier",
            "nested-policy",
            "flat-policy",
            "huge-scale",
        ],
    )
    def test_errors_land_at_the_file_path(self, section, message):
        with pytest.raises(ScenarioFileError) as excinfo:
            study_from_mapping(base_mapping(**section))
        assert str(excinfo.value) == message

    def test_fleet_scaling_is_bounded(self):
        mapping = base_mapping()
        mapping["channels"] = 10**20
        with pytest.raises(ScenarioFileError) as excinfo:
            study_from_mapping(mapping)
        assert str(excinfo.value) == (
            "channels: must be <= 10000000, got 100000000000000000000"
        )

    def test_toml_infinite_rate_multiplier(self, tmp_path):
        path = tmp_path / "study.toml"
        path.write_text(
            'name = "s"\n'
            "[[populations]]\n"
            'name = "fleet"\n'
            "channels = 400\n"
            "[study]\n"
            "rate_multipliers = [1.0, inf]\n"
        )
        with pytest.raises(ScenarioFileError) as excinfo:
            load_study_file(path)
        assert str(excinfo.value) == (
            f"{path}: study.rate_multipliers[1]: must be finite, got inf"
        )

    def test_single_channel_population_named_by_path(self):
        mapping = base_mapping(upgraded_fractions=[0.0, 0.5])
        mapping["organizations"] = {
            "narrow": {
                "io_width": 8,
                "channels": 1,
                "ranks_per_channel": 1,
                "devices_per_rank": 9,
                "data_devices_per_rank": 8,
            }
        }
        mapping["populations"][0]["config"] = "narrow"
        with pytest.raises(ScenarioFileError) as excinfo:
            study_from_mapping(mapping)
        assert str(excinfo.value).startswith(
            "populations[0].config: organization 'narrow' has 1 channel(s)"
        )

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"channels": 0}, "channels: must be >= 1, got 0"),
            ({"seed": -1}, "seed: must be >= 0, got -1"),
            ({"measurement_seed": -1}, "measurement_seed: must be >= 0, got -1"),
        ],
    )
    def test_run_overrides_checked_at_construction(self, override, message):
        from dataclasses import replace

        study = study_from_mapping(base_mapping())
        with pytest.raises(ValueError) as excinfo:
            replace(study, **override)
        assert str(excinfo.value) == message

    def test_fractions_checked_once_per_study(self, monkeypatch):
        """The Study checks its fractions; expanding its grid does not
        check them again."""
        import repro.experiments.sensitivity as sensitivity
        import repro.fleet.study as study_module

        calls = []
        original = sensitivity.check_sweep_fractions

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(study_module, "check_sweep_fractions", counting)
        monkeypatch.setattr(sensitivity, "check_sweep_fractions", counting)
        study = tiny_study(upgraded_fractions=[0.0, 0.5], rate_multipliers=None)
        assert len(calls) == 1
        expand_study(study)
        assert len(calls) == 1

    def test_cli_non_finite_fraction_is_one_line(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            'name = "s"\n'
            "[[populations]]\n"
            'name = "fleet"\n'
            "channels = 400\n"
            "[study]\n"
            "upgraded_fractions = [0.0, nan]\n"
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["study", str(path), "--no-cache"])
        assert str(excinfo.value.code) == (
            f"repro study: {path}: study.upgraded_fractions[1]: "
            "must be finite, got nan"
        )


class TestExpansion:
    def test_example_study_loads(self):
        study = load_study_file(resolve_study_path(EXAMPLE_STUDY_PATH))
        assert study.measured
        assert len(study.points()) == 6  # 2x2 fleet grid + 2 sweeps

    def test_grid_is_cartesian_product(self):
        study = tiny_study()
        points = study.points()
        assert len(points) == 4  # 2 scales x 2 rate multipliers
        ids = [p.point_id for p in points]
        assert len(set(ids)) == 4
        assert all("policies=arcc+sccdcd" in pid for pid in ids)

    def test_close_rate_multipliers_get_distinct_ids(self):
        """``:g`` rounds 1.0000001 to ``1``; such a rate is spelled in
        full, so two grid points never share a manifest key."""
        study = tiny_study(
            measured=False,
            instruction_scales=None,
            rate_multipliers=[1.0, 1.0000001],
        )
        assert [p.point_id for p in study.points()] == [
            "fleet/policies=arcc+sccdcd/rate=1",
            "fleet/policies=arcc+sccdcd/rate=1.0000001",
        ]

    def test_example_study_ids_are_unchanged(self):
        study = load_study_file(resolve_study_path(EXAMPLE_STUDY_PATH))
        fleet = "fleet/policies=arcc+sccdcd+lotecc"
        assert [p.point_id for p in study.points()] == [
            f"{fleet}/instr=4000/rate=1",
            f"{fleet}/instr=4000/rate=4",
            f"{fleet}/instr=8000/rate=1",
            f"{fleet}/instr=8000/rate=4",
            "sweep/org=ARCC/instr=4000",
            "sweep/org=ARCC/instr=8000",
        ]

    def test_rate_multipliers_share_measurements(self):
        """The dedup the issue demands: measurement jobs depend only on
        the instruction scale, so every rate multiplier reuses them."""
        plan = expand_study(tiny_study())
        one_rate = expand_study(tiny_study(rate_multipliers=[1.0]))
        assert len(plan.jobs) == len(one_rate.jobs)  # 2nd rate is free

    def test_sweep_zero_point_shares_measured_baseline(self):
        with_sweep = tiny_study(
            instruction_scales=[1000],
            rate_multipliers=[1.0],
            upgraded_fractions=[0.0, 0.5],
        )
        without = tiny_study(
            instruction_scales=[1000], rate_multipliers=[1.0]
        )
        grew = len(expand_study(with_sweep).jobs) - len(
            expand_study(without).jobs
        )
        sweep_alone = expand_study(
            tiny_study(
                measured=False,
                policies=["arcc"],
                instruction_scales=[1000],
                rate_multipliers=[1.0],
                upgraded_fractions=[0.0, 0.5],
            )
        )
        assert grew < len(sweep_alone.jobs)  # the 0.0 point was shared

    def test_unmeasured_grid_has_no_scale_axis(self):
        study = tiny_study(measured=False, instruction_scales=None)
        assert len(study.points()) == 2  # rate multipliers only
        assert all(
            p.instructions_per_core is None for p in study.points()
        )

    def test_quick_truncates_axes(self):
        study = tiny_study(
            rate_multipliers=[1.0, 2.0, 4.0, 8.0],
            upgraded_fractions=[0.0, 0.25, 0.5, 1.0],
        )
        quick = study.quick()
        assert len(quick.rate_multipliers) == 2
        assert quick.upgraded_fractions == (0.0, 0.25, 0.5)
        assert quick.mixes == 1
        assert all(s <= 10_000 for s in quick.effective_scales())
        assert quick.channels <= 2000


class TestRunStudy:
    def test_cold_then_warm(self, tmp_path):
        study = tiny_study()
        cache = ResultCache(tmp_path / "cache")
        cold = run_study(study, cache=cache)
        # Both stages count: the unique measurement jobs, then every
        # measured point's comparison blocks.
        assert cold.executed_jobs > cold.unique_jobs > 0
        assert cold.cached_jobs == 0
        warm = run_study(study, cache=cache)
        assert warm.executed_jobs == 0
        assert warm.cached_jobs == cold.executed_jobs
        # The reports themselves replay identically from the cache.
        assert warm.points[0].report.to_table() == (
            cold.points[0].report.to_table()
        )

    def test_partial_prefix_resumes(self, tmp_path):
        """Growing an axis only pays for the new points (resume)."""
        cache = ResultCache(tmp_path / "cache")
        run_study(tiny_study(instruction_scales=[1000]), cache=cache)
        grown = run_study(tiny_study(), cache=cache)  # adds scale 2000
        assert grown.cached_jobs > 0
        assert grown.executed_jobs > 0
        uncached = run_study(tiny_study())
        assert grown.cached_jobs + grown.executed_jobs == (
            uncached.executed_jobs
        )

    def test_jobs_counts_match_grid(self, tmp_path):
        result = run_study(tiny_study())
        assert result.total_jobs == sum(
            len(p.job_indices) for p in result.points
        )
        assert result.unique_jobs < result.total_jobs


class TestManifest:
    def test_parallel_manifest_is_bit_identical(self, tmp_path):
        study = tiny_study()
        cache = ResultCache(tmp_path / "cache")
        serial = run_study(study, jobs=1, cache=cache)
        parallel = run_study(study, jobs=4, cache=ResultCache(tmp_path / "c2"))
        a = serial.write_manifest(tmp_path / "m1.json", cache=cache)
        b = parallel.write_manifest(tmp_path / "m2.json", cache=cache)
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_contents(self, tmp_path):
        study = tiny_study(instruction_scales=[1000])
        cache = ResultCache(tmp_path / "cache")
        result = run_study(
            study, cache=cache, manifest_path=tmp_path / "m.json"
        )
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["format"] == "repro-study/1"
        assert manifest["study"]["name"] == "s"
        assert manifest["unique_jobs"] == result.unique_jobs
        assert manifest["engine_provenance"]["resolved"] in (
            "compiled",
            "reference",
        )
        point = manifest["points"][0]
        assert point["id"] == result.points[0].point.point_id
        assert len(point["cache_keys"]) == len(result.points[0].job_indices)
        # Every cache key is a real key of the batch's jobs.
        all_keys = {cache.key(job) for job in result.jobs}
        assert set(point["cache_keys"]) <= all_keys
        assert point["report"]["type"] == "fleet-compare"
        assert point["report"]["best"]["power"] in ("arcc", "sccdcd")


class TestCli:
    def test_study_command_runs_and_resumes(self, tmp_path, capsys):
        mapping = base_mapping(
            measured=True,
            mixes=1,
            instruction_scales=[1000],
            rate_multipliers=[1.0, 2.0],
            policies=["arcc", "sccdcd"],
        )
        path = write_study(tmp_path, mapping)
        argv = [
            "study",
            str(path),
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--manifest",
            str(tmp_path / "m.json"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cached" in first
        assert (tmp_path / "m.json").exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed" in second

    def test_cli_quick_flag(self, tmp_path, capsys):
        path = write_study(
            tmp_path,
            base_mapping(
                measured=True,
                instruction_scales=[50_000],
                policies=["arcc", "sccdcd"],
            ),
        )
        assert (
            main(
                [
                    "study",
                    str(path),
                    "--quick",
                    "--no-cache",
                    "--manifest",
                    str(tmp_path / "m.json"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[repro study]" in out

    def test_cli_rejects_invalid_file(self, tmp_path):
        path = write_study(tmp_path, base_mapping(mixes=99))
        with pytest.raises(SystemExit, match="repro study"):
            main(["study", str(path)])

    def test_cli_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="repro study"):
            main(["study", str(tmp_path / "nope.toml")])

    def test_registry_study_key_quick(self):
        from repro.runner.registry import build_plans

        (plan,) = build_plans(["study"], quick=True)
        assert plan.name == "study"
        assert plan.jobs
