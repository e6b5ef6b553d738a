"""Tests for the TOML/JSON scenario-file loader.

The load-bearing guarantees: ``load -> dump -> load`` round-trips
exactly; validation rejects unknown keys, wrong types and negative
rates with the offending key path in the message; the shipped example
files are valid; and ``repro fleet --scenario-file`` works end to end
on a tiny two-slice file.
"""

import copy
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG
from repro.fleet.scenario_file import (
    ScenarioFileError,
    dump_scenario_json,
    load_scenario_file,
    scenario_from_mapping,
    scenario_to_mapping,
)
from repro.fleet.scenarios import FleetScenario, RatePhase, SubPopulation

TINY_TOML = """
name = "tiny"
description = "two-slice test fleet"
seed = 7
channels = 400

[[populations]]
name = "fresh"
channels = 300
config = "arcc"
lifespan_years = 2.0

[[populations.schedule]]
duration_years = 0.5
multiplier = 4.0

[[populations]]
name = "legacy"
channels = 100
config = "baseline"
rate_multiplier = 2.0
lifespan_years = 1.0

[populations.rates]
bit = 20.0
"""


@pytest.fixture
def tiny_toml(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(TINY_TOML)
    return path


def _mapping():
    return json.loads(
        json.dumps(
            scenario_to_mapping(
                FleetScenario(
                    name="m",
                    description="d",
                    populations=(
                        SubPopulation(
                            name="a",
                            channels=64,
                            schedule=(
                                RatePhase(duration_years=0.5, multiplier=3.0),
                            ),
                        ),
                        SubPopulation(
                            name="b",
                            channels=32,
                            config=BASELINE_MEMORY_CONFIG,
                            rate_multiplier=4.0,
                            lifespan_years=3.0,
                        ),
                    ),
                ),
                seed=11,
                channels=96,
                policies=("arcc", "lotecc"),
            )
        )
    )


class TestLoading:
    def test_toml_loads(self, tiny_toml):
        spec = load_scenario_file(tiny_toml)
        assert spec.scenario.name == "tiny"
        assert spec.seed == 7
        assert spec.channels == 400
        assert spec.policies is None
        fresh, legacy = spec.scenario.populations
        assert fresh.config == ARCC_MEMORY_CONFIG
        assert fresh.schedule == (
            RatePhase(duration_years=0.5, multiplier=4.0),
        )
        assert legacy.config == BASELINE_MEMORY_CONFIG
        assert legacy.rates.bit == 20.0
        # Omitted rate fields keep the SC'12 defaults.
        assert legacy.rates.row == 8.2

    def test_json_loads(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(_mapping()))
        spec = load_scenario_file(path)
        assert spec.scenario.name == "m"
        assert spec.policies == ("arcc", "lotecc")

    def test_shipped_examples_load(self):
        toml = load_scenario_file("examples/scenarios/mixed_generations.toml")
        assert toml.scenario.total_channels == toml.channels == 20_000
        assert toml.policies == ("arcc", "sccdcd", "lotecc")
        js = load_scenario_file("examples/scenarios/burnin_study.json")
        assert len(js.scenario.populations[0].schedule) == 2
        spatial = load_scenario_file(
            "examples/scenarios/multi-row-cluster.toml"
        )
        clustered, control = spatial.scenario.populations
        assert clustered.spatial.kind == "multi-row-cluster"
        assert clustered.spatial.fraction == 0.8
        assert control.spatial is None

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text("name: tiny")
        with pytest.raises(ScenarioFileError, match="unsupported extension"):
            load_scenario_file(path)

    def test_invalid_toml_reports_file(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed")
        with pytest.raises(ScenarioFileError, match="invalid TOML"):
            load_scenario_file(path)

    def test_error_prefixed_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ScenarioFileError, match="bad.json"):
            load_scenario_file(path)


class TestRoundTrip:
    def test_mapping_round_trip_exact(self):
        first = scenario_from_mapping(_mapping())
        again = scenario_from_mapping(
            scenario_to_mapping(
                first.scenario,
                seed=first.seed,
                channels=first.channels,
                policies=first.policies,
            )
        )
        assert again == first

    def test_file_round_trip_exact(self, tiny_toml, tmp_path):
        first = load_scenario_file(tiny_toml)
        dumped = tmp_path / "dumped.json"
        dump_scenario_json(
            first.scenario, dumped, seed=first.seed, channels=first.channels
        )
        again = load_scenario_file(dumped)
        assert again == first

    def test_custom_config_dumps_as_organization_table(self):
        """A non-Table-7.1 config round-trips via ``organizations``."""
        from dataclasses import replace

        custom = replace(ARCC_MEMORY_CONFIG, name="custom", channels=4)
        scenario = FleetScenario(
            name="x",
            description="",
            populations=(
                SubPopulation(name="a", channels=1, config=custom),
            ),
        )
        mapping = scenario_to_mapping(scenario)
        assert mapping["organizations"]["custom"]["channels"] == 4
        assert mapping["populations"][0]["config"] == "custom"
        again = scenario_from_mapping(mapping)
        assert again.scenario == scenario
        assert again.organizations == (custom,)

    def test_custom_config_shadowing_builtin_name_not_dumpable(self):
        from dataclasses import replace

        # Same *name* as a built-in but a different table: ambiguous in
        # the file format, so the dump refuses.
        impostor = replace(ARCC_MEMORY_CONFIG, name="arcc", channels=4)
        scenario = FleetScenario(
            name="x",
            description="",
            populations=(
                SubPopulation(name="a", channels=1, config=impostor),
            ),
        )
        with pytest.raises(ScenarioFileError, match="shadows a built-in"):
            scenario_to_mapping(scenario)


class TestValidation:
    def test_unknown_top_level_key(self):
        raw = _mapping()
        raw["chanels"] = 5
        with pytest.raises(ScenarioFileError, match=r"chanels.*did you mean"):
            scenario_from_mapping(raw)

    def test_unknown_population_key_names_index(self):
        raw = _mapping()
        raw["populations"][1]["chanels"] = 5
        with pytest.raises(
            ScenarioFileError,
            match=r"populations\[1\]\.chanels.*did you mean 'channels'",
        ):
            scenario_from_mapping(raw)

    def test_wrong_type_names_path(self):
        raw = _mapping()
        raw["populations"][0]["channels"] = "lots"
        with pytest.raises(
            ScenarioFileError,
            match=r"populations\[0\]\.channels: expected int, got str",
        ):
            scenario_from_mapping(raw)

    def test_bool_is_not_an_int(self):
        raw = _mapping()
        raw["populations"][0]["channels"] = True
        with pytest.raises(
            ScenarioFileError, match=r"populations\[0\]\.channels"
        ):
            scenario_from_mapping(raw)

    def test_negative_rate_names_full_path(self):
        raw = _mapping()
        raw["populations"][0]["rates"]["bit"] = -1.0
        with pytest.raises(
            ScenarioFileError,
            match=r"populations\[0\]\.rates\.bit: must be >= 0",
        ):
            scenario_from_mapping(raw)

    def test_zero_channels_rejected(self):
        raw = _mapping()
        raw["populations"][0]["channels"] = 0
        with pytest.raises(
            ScenarioFileError, match=r"populations\[0\]\.channels: must be >= 1"
        ):
            scenario_from_mapping(raw)

    def test_bad_schedule_phase_names_index(self):
        raw = _mapping()
        raw["populations"][0]["schedule"][0]["duration_years"] = 0
        with pytest.raises(
            ScenarioFileError,
            match=r"populations\[0\]\.schedule\[0\]\.duration_years: must be > 0",
        ):
            scenario_from_mapping(raw)

    def test_missing_required_keys(self):
        with pytest.raises(ScenarioFileError, match="missing required key 'name'"):
            scenario_from_mapping({"populations": [{"name": "a", "channels": 1}]})
        with pytest.raises(
            ScenarioFileError, match="missing required key 'populations'"
        ):
            scenario_from_mapping({"name": "x"})
        with pytest.raises(
            ScenarioFileError, match=r"populations\[0\].*'channels'"
        ):
            scenario_from_mapping(
                {"name": "x", "populations": [{"name": "a"}]}
            )

    def test_unknown_config_name(self):
        raw = _mapping()
        raw["populations"][0]["config"] = "ddr9"
        with pytest.raises(
            ScenarioFileError,
            match=r"populations\[0\]\.config: unknown memory config 'ddr9'",
        ):
            scenario_from_mapping(raw)

    def test_duplicate_slice_names_rejected(self):
        raw = _mapping()
        raw["populations"][1]["name"] = raw["populations"][0]["name"]
        with pytest.raises(ScenarioFileError, match="unique"):
            scenario_from_mapping(raw)

    def test_empty_populations_rejected(self):
        raw = _mapping()
        raw["populations"] = []
        with pytest.raises(
            ScenarioFileError, match="at least one sub-population"
        ):
            scenario_from_mapping(raw)

    def test_policies_must_be_strings(self):
        raw = _mapping()
        raw["policies"] = ["arcc", 3]
        with pytest.raises(
            ScenarioFileError, match=r"policies\[1\]: expected str"
        ):
            scenario_from_mapping(raw)

    @pytest.mark.parametrize(
        "policies, message",
        [
            ([], r"^policies: policy set must not be empty"),
            (
                ["arcc", "arc"],
                r"^policies\[1\]: unknown policy 'arc' \(did you mean "
                r"'arcc'\?\)",
            ),
            (["arcc", "arcc"], r"^policies\[1\]: duplicate policy 'arcc'"),
        ],
        ids=["empty", "unknown", "duplicate"],
    )
    def test_policies_validated_at_load(self, policies, message):
        """A present `policies` key makes the run a comparison, so it is
        checked where it is read, not when the comparison is built."""
        raw = _mapping()
        raw["policies"] = policies
        with pytest.raises(ScenarioFileError, match=message):
            scenario_from_mapping(raw)


class TestCLI:
    def test_scenario_file_end_to_end(self, tiny_toml, capsys):
        from repro.cli import main

        assert main(["fleet", "--scenario-file", str(tiny_toml)]) == 0
        out = capsys.readouterr().out
        assert "Fleet scenario 'tiny'" in out
        assert "fresh" in out and "legacy" in out
        # The file's channels=400 default rescales the 400-channel fleet.
        assert "400 channels" in out

    def test_scenario_file_with_policies_flag(self, tiny_toml, capsys):
        from repro.cli import main

        code = main(
            [
                "fleet",
                "--scenario-file",
                str(tiny_toml),
                "--policies",
                "arcc,lotecc",
                "--channels",
                "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Policy comparison 'tiny'" in out
        assert "Fleet decision table" in out
        assert "±" in out
        assert "policies arcc,lotecc" in out

    def test_cli_flag_overrides_file_seed(self, tiny_toml, capsys):
        from repro.cli import main

        main(["fleet", "--scenario-file", str(tiny_toml), "--seed", "123"])
        first = capsys.readouterr().out
        main(["fleet", "--scenario-file", str(tiny_toml)])
        second = capsys.readouterr().out

        def table_lines(text):
            return [
                line
                for line in text.splitlines()
                if "±" in line
            ]

        assert table_lines(first) != table_lines(second)

    def test_file_defaults_do_not_leak_onto_builtins(self, tiny_toml, capsys):
        """A built-in named alongside --scenario-file keeps its own
        channel count and seed; the file's defaults only cover its own
        scenario."""
        from repro.cli import main

        main(["fleet", "steady", "--scenario-file", str(tiny_toml)])
        combined = capsys.readouterr().out
        main(["fleet", "steady"])
        alone = capsys.readouterr().out

        def steady_lines(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith(("Fleet scenario 'steady'", "arcc-1x"))
            ]

        assert steady_lines(combined) == steady_lines(alone)
        # 20000 built-in channels + the file's 400.
        assert "2 scenario(s), 20400 channels" in combined

    def test_bad_file_is_a_clean_error(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.toml"
        path.write_text('name = "x"\n')
        with pytest.raises(SystemExit, match="missing required key"):
            main(["fleet", "--scenario-file", str(path)])

    @pytest.mark.parametrize(
        "policies, message",
        [
            ("[]", r"policies: policy set must not be empty"),
            ('["arc"]', r"policies\[0\]: unknown policy 'arc'"),
            ('["arcc", "arcc"]', r"policies\[1\]: duplicate policy"),
        ],
        ids=["empty", "unknown", "duplicate"],
    )
    def test_bad_file_policies_exit_naming_file_and_path(
        self, tmp_path, policies, message
    ):
        from repro.cli import main

        path = tmp_path / "pols.toml"
        path.write_text(f"policies = {policies}\n{TINY_TOML}")
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--scenario-file", str(path)])
        text = str(excinfo.value.code)
        assert text.startswith(f"repro fleet: {path}: policies")
        assert re.search(message, text)


ORGS_TOML = """
name = "orgs"
description = "custom organization tables"

[organizations.quad-x8]
io_width = 8
channels = 4
ranks_per_channel = 2
devices_per_rank = 18
data_devices_per_rank = 16

[organizations.tri-rank-x4]
io_width = 4
channels = 2
ranks_per_channel = 3
devices_per_rank = 36
data_devices_per_rank = 32

[[populations]]
name = "quad"
channels = 64
config = "quad-x8"

[[populations]]
name = "tri"
channels = 32
config = "tri-rank-x4"
"""


def _orgs_mapping():
    import tomllib

    return tomllib.loads(ORGS_TOML)


class TestOrganizationSection:
    def test_load_builds_custom_configs(self):
        spec = scenario_from_mapping(_orgs_mapping())
        quad, tri = spec.organizations
        assert (quad.name, quad.channels, quad.io_width) == ("quad-x8", 4, 8)
        assert (tri.ranks_per_channel, tri.devices_per_rank) == (3, 36)
        by_slice = {p.name: p.config for p in spec.scenario.populations}
        assert by_slice["quad"] is quad
        assert by_slice["tri"] is tri
        # Optional geometry keeps the MemoryConfig defaults.
        assert quad.page_bytes == 4096
        assert quad.banks_per_device == 8

    def test_population_may_mix_builtin_and_custom(self):
        raw = _orgs_mapping()
        raw["populations"].append(
            {"name": "stock", "channels": 16, "config": "arcc"}
        )
        spec = scenario_from_mapping(raw)
        assert {p.config.name for p in spec.scenario.populations} == {
            "quad-x8",
            "tri-rank-x4",
            "ARCC",
        }

    def test_unknown_org_field_suggests(self):
        raw = _orgs_mapping()
        raw["organizations"]["quad-x8"]["io_widht"] = 8
        with pytest.raises(
            ScenarioFileError,
            match=r"organizations\.quad-x8\.io_widht.*did you mean 'io_width'",
        ):
            scenario_from_mapping(raw)

    def test_missing_required_org_key_names_path(self):
        raw = _orgs_mapping()
        del raw["organizations"]["quad-x8"]["devices_per_rank"]
        with pytest.raises(
            ScenarioFileError,
            match=r"organizations\.quad-x8: missing required key "
            r"'devices_per_rank'",
        ):
            scenario_from_mapping(raw)

    def test_unsupported_io_width_rejected(self):
        raw = _orgs_mapping()
        raw["organizations"]["quad-x8"]["io_width"] = 16
        with pytest.raises(
            ScenarioFileError,
            match=r"organizations\.quad-x8\.io_width.*x16.*supported: 4, 8",
        ):
            scenario_from_mapping(raw)

    @pytest.mark.parametrize("key", ["page_bytes", "cacheline_bytes"])
    def test_non_power_of_two_rejected(self, key):
        raw = _orgs_mapping()
        raw["organizations"]["quad-x8"][key] = 3000
        with pytest.raises(
            ScenarioFileError,
            match=rf"organizations\.quad-x8\.{key}.*power of two",
        ):
            scenario_from_mapping(raw)

    def test_page_not_multiple_of_line_rejected(self):
        raw = _orgs_mapping()
        raw["organizations"]["quad-x8"]["cacheline_bytes"] = 64
        raw["organizations"]["quad-x8"]["page_bytes"] = 32
        with pytest.raises(
            ScenarioFileError,
            match=r"organizations\.quad-x8\.page_bytes.*multiple of",
        ):
            scenario_from_mapping(raw)

    def test_capacity_not_multiple_of_page_rejected(self):
        raw = _orgs_mapping()
        raw["organizations"]["quad-x8"]["capacity_per_channel_bytes"] = 4097
        with pytest.raises(
            ScenarioFileError,
            match=r"capacity_per_channel_bytes.*multiple of page_bytes",
        ):
            scenario_from_mapping(raw)

    def test_all_data_devices_rejected_with_path(self):
        raw = _orgs_mapping()
        raw["organizations"]["quad-x8"]["data_devices_per_rank"] = 18
        with pytest.raises(
            ScenarioFileError,
            match=r"organizations\.quad-x8: .*redundant device",
        ):
            scenario_from_mapping(raw)

    def test_unreferenced_org_rejected(self):
        """An unused table cannot round-trip (dumps emit only referenced
        organizations), so the loader rejects it up front."""
        raw = _orgs_mapping()
        raw["organizations"]["spare"] = dict(
            raw["organizations"]["quad-x8"]
        )
        with pytest.raises(
            ScenarioFileError,
            match=r"organizations\.spare.*not referenced by any population",
        ):
            scenario_from_mapping(raw)

    def test_org_shadowing_builtin_rejected(self):
        raw = _orgs_mapping()
        raw["organizations"]["arcc"] = raw["organizations"].pop("quad-x8")
        with pytest.raises(
            ScenarioFileError, match=r"organizations\.arcc.*shadows a built-in"
        ):
            scenario_from_mapping(raw)

    def test_population_config_suggests_over_custom_names(self):
        raw = _orgs_mapping()
        raw["populations"][0]["config"] = "quad-x9"
        with pytest.raises(
            ScenarioFileError,
            match=r"populations\[0\]\.config.*did you mean 'quad-x8'",
        ):
            scenario_from_mapping(raw)

    def test_round_trip_with_custom_orgs_exact(self, tmp_path):
        path = tmp_path / "orgs.toml"
        path.write_text(ORGS_TOML)
        first = load_scenario_file(path)
        dumped = tmp_path / "orgs.json"
        dump_scenario_json(first.scenario, dumped)
        again = load_scenario_file(dumped)
        assert again.scenario == first.scenario
        assert again.organizations == first.organizations

    def test_shipped_custom_organizations_example_is_valid(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "scenarios"
            / "custom_organizations.toml"
        )
        spec = load_scenario_file(path)
        assert {c.name for c in spec.organizations} == {
            "quad-x8",
            "tri-rank-x4",
        }
        assert spec.policies == ("arcc", "sccdcd", "lotecc")
        # Round-trips through the dump format too.
        mapping = scenario_to_mapping(spec.scenario)
        assert scenario_from_mapping(mapping).scenario == spec.scenario


class TestOrganizationProperties:
    """Hypothesis sweeps over the organization-table schema."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    org_tables = st.fixed_dictionaries(
        {
            "io_width": st.sampled_from([4, 8]),
            "channels": st.integers(min_value=1, max_value=8),
            "ranks_per_channel": st.integers(min_value=1, max_value=5),
            "devices_per_rank": st.integers(min_value=2, max_value=40),
            "banks_per_device": st.integers(min_value=1, max_value=16),
            "pages_per_row": st.integers(min_value=1, max_value=4),
            "page_bytes": st.sampled_from([1024, 2048, 4096, 8192]),
            "cacheline_bytes": st.sampled_from([32, 64, 128]),
        }
    )

    @settings(max_examples=25, deadline=None)
    @given(table=org_tables, data=st.data())
    def test_valid_tables_round_trip_exactly(self, table, data):
        table = dict(table)
        table["data_devices_per_rank"] = data.draw(
            self.st.integers(
                min_value=1, max_value=table["devices_per_rank"] - 1
            )
        )
        if table["page_bytes"] % table["cacheline_bytes"]:
            table["cacheline_bytes"] = 64
        table["capacity_per_channel_bytes"] = table["page_bytes"] * data.draw(
            self.st.integers(min_value=1, max_value=1 << 20)
        )
        raw = {
            "name": "prop",
            "description": "",
            "organizations": {"custom": table},
            "populations": [
                {"name": "only", "channels": 8, "config": "custom"}
            ],
        }
        spec = scenario_from_mapping(raw)
        mapping = scenario_to_mapping(spec.scenario)
        assert scenario_from_mapping(mapping).scenario == spec.scenario
        (config,) = spec.organizations
        for key, value in table.items():
            assert getattr(config, key) == value

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_invalid_tables_rejected_with_dotted_path(self, data):
        base = {
            "io_width": 8,
            "channels": 2,
            "ranks_per_channel": 2,
            "devices_per_rank": 18,
            "data_devices_per_rank": 16,
        }
        mutation = data.draw(
            self.st.sampled_from(
                [
                    ("io_width", 16),
                    ("io_width", 0),
                    ("channels", 0),
                    ("devices_per_rank", "many"),
                    ("page_bytes", 1000),
                    ("cacheline_bytes", 48),
                    ("data_devices_per_rank", 18),
                    ("data_devices_per_rank", 19),
                ]
            )
        )
        key, value = mutation
        table = dict(base)
        table[key] = value
        raw = {
            "name": "prop",
            "organizations": {"bad": table},
            "populations": [
                {"name": "only", "channels": 8, "config": "bad"}
            ],
        }
        with pytest.raises(ScenarioFileError, match=r"organizations\.bad"):
            scenario_from_mapping(raw)

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from(
            ["quad", "quadx8", "quad_x8", "tri-rank", "trirankx4"]
        )
    )
    def test_typoed_config_reference_always_names_the_path(self, typo):
        raw = _orgs_mapping()
        raw["populations"][0]["config"] = typo
        with pytest.raises(
            ScenarioFileError, match=r"populations\[0\]\.config"
        ):
            scenario_from_mapping(raw)


#: A valid study file touching every section the loaders walk: the top
#: level, an organization table, a population with rates, a schedule
#: phase and a spatial model, and a measured ``[study]`` grid.
TOTALITY_STUDY = {
    "name": "total",
    "description": "every section",
    "seed": 3,
    "channels": 200,
    "policies": ["arcc", "sccdcd"],
    "organizations": {
        "quad-x8": {
            "io_width": 8,
            "channels": 4,
            "ranks_per_channel": 2,
            "devices_per_rank": 18,
            "data_devices_per_rank": 16,
            "page_bytes": 4096,
            "capacity_per_channel_bytes": 4096 * 1024,
        }
    },
    "populations": [
        {
            "name": "quad",
            "channels": 200,
            "config": "quad-x8",
            "rates": {"bit": 18.6, "lane": 2.4},
            "rate_multiplier": 2.0,
            "lifespan_years": 3.0,
            "schedule": [{"duration_years": 0.5, "multiplier": 4.0}],
            "spatial": {"kind": "bank-wear", "fraction": 0.5, "banks": 2},
        }
    ],
    "study": {
        "measured": True,
        "mixes": 1,
        "instruction_scales": [1000, 2000],
        "rate_multipliers": [1.0, 2.0],
        "upgraded_fractions": [0.0, 0.5],
        "policies": [["arcc", "sccdcd"], ["arcc", "lotecc"]],
        "organizations": ["quad-x8", "arcc"],
    },
}

#: Replacement values: out-of-range and non-finite numbers, a number too
#: large for a float, and every wrong type.
_BAD_VALUES = (
    0,
    -1,
    0.5,
    1.5,
    float("nan"),
    float("inf"),
    float("-inf"),
    1e308,
    10**400,
    "x",
    "",
    True,
    None,
    [],
    [1],
    {},
)

#: ``dotted.path[3]: message`` — how every loader error begins, except a
#: missing top-level key or section, which has no path to name.
_DOTTED = re.compile(r"^[\w-]+(\[\d+\])*(\.[\w-]+(\[\d+\])*)*: ")


def _sites(node, prefix=()):
    """Every key and element of a nested mapping, as a key path."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _sites(value, prefix + (key,))


def _mutated(site, value):
    """A deep copy of :data:`TOTALITY_STUDY` with ``site`` replaced by
    ``value`` (or dropped, for the ``_DROP`` marker)."""
    raw = json.loads(json.dumps(TOTALITY_STUDY))
    parent = raw
    for key in site[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[site[-1]]
    else:
        parent[site[-1]] = value
    return raw


_DROP = object()


def _assert_total(load, raw):
    """``load`` returns, or fails with a dotted-path ScenarioFileError."""
    try:
        load(raw)
    except ScenarioFileError as exc:
        message = str(exc)
        assert _DOTTED.match(message) or message.startswith("missing "), (
            message
        )


class TestLoaderTotality:
    """Hypothesis: no mutation of a valid file escapes the loaders as
    anything but a ScenarioFileError that names where it is."""

    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    SITES = tuple(_sites(TOTALITY_STUDY))

    def test_base_study_and_scenario_load(self):
        from repro.fleet.study import study_from_mapping

        study = study_from_mapping(TOTALITY_STUDY)
        assert study.upgraded_fractions == (0.0, 0.5)
        scenario_only = {
            k: v for k, v in TOTALITY_STUDY.items() if k != "study"
        }
        assert scenario_from_mapping(scenario_only).seed == 3

    @settings(max_examples=300, deadline=None)
    @given(
        site=st.sampled_from(SITES),
        value=st.sampled_from((_DROP,) + _BAD_VALUES),
    )
    @example(site=("study", "upgraded_fractions", 1), value=float("nan"))
    @example(site=("populations", 0, "lifespan_years"), value=float("inf"))
    @example(site=("populations", 0, "rate_multiplier"), value=10**400)
    def test_mutations_fail_with_a_dotted_path(self, site, value):
        from repro.fleet.study import study_from_mapping

        raw = _mutated(site, value)
        _assert_total(study_from_mapping, raw)
        if site[0] != "study" and isinstance(raw, dict):
            raw.pop("study")
            _assert_total(scenario_from_mapping, raw)


class TestNonFiniteNumbers:
    """NaN and infinity pass every ``<``/``>`` bound; the domain objects
    reject them by name, and the loaders report the dotted path."""

    @pytest.mark.parametrize(
        "key, literal, message",
        [
            (
                "rate_multiplier",
                "NaN",
                "populations[0].rate_multiplier: must be finite, got nan",
            ),
            (
                "lifespan_years",
                "Infinity",
                "populations[0].lifespan_years: must be finite, got inf",
            ),
        ],
    )
    def test_json_population_numbers(self, tmp_path, key, literal, message):
        path = tmp_path / "fleet.json"
        raw = _mapping()
        raw["populations"][0][key] = float(literal)
        path.write_text(json.dumps(raw))
        assert literal in path.read_text()
        with pytest.raises(ScenarioFileError) as excinfo:
            load_scenario_file(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                "[populations.rates]\nbit = nan",
                "populations[1].rates.bit: must be finite, got nan",
            ),
            (
                "[[populations.schedule]]\nduration_years = 1.0\n"
                "multiplier = inf",
                "populations[1].schedule[0].multiplier: must be finite, "
                "got inf",
            ),
            (
                '[populations.spatial]\nkind = "bank-wear"\nfraction = nan',
                "populations[1].spatial.fraction: must be finite, got nan",
            ),
        ],
        ids=["rates", "schedule", "spatial"],
    )
    def test_toml_nested_numbers(self, tmp_path, line, message):
        path = tmp_path / "fleet.toml"
        base = TINY_TOML.replace("[populations.rates]\nbit = 20.0\n", "")
        path.write_text(f"{base}\n{line}\n")
        with pytest.raises(ScenarioFileError) as excinfo:
            load_scenario_file(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_cli_reports_non_finite_without_traceback(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "fleet.json"
        raw = _mapping()
        raw["populations"][0]["rate_multiplier"] = float("nan")
        path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--scenario-file", str(path)])
        assert str(excinfo.value.code) == (
            f"repro fleet: {path}: populations[0].rate_multiplier: "
            "must be finite, got nan"
        )


class TestDomainRules:
    """The value rules hold for objects built in Python too, named by
    field, in the loader's wording."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: RatePhase(duration_years=float("nan"), multiplier=1.0),
                "duration_years: must be finite, got nan",
            ),
            (
                lambda: SubPopulation(name="a", channels=0),
                "channels: must be >= 1, got 0",
            ),
            (
                lambda: SubPopulation(name="a", channels=1, lifespan_years=0.0),
                "lifespan_years: must be > 0, got 0",
            ),
            (
                lambda: replace(ARCC_MEMORY_CONFIG, io_width=16),
                "io_width: no datasheet parameters for x16 devices; "
                "supported: 4, 8",
            ),
            (
                lambda: replace(ARCC_MEMORY_CONFIG, page_bytes=3000),
                "page_bytes: must be a power of two, got 3000",
            ),
            (
                lambda: replace(ARCC_MEMORY_CONFIG, banks_per_device=0),
                "banks_per_device: must be >= 1, got 0",
            ),
        ],
        ids=["phase", "channels", "lifespan", "io-width", "pow2", "banks"],
    )
    def test_constructors_name_the_field(self, build, message):
        from repro.util.fields import FieldError

        with pytest.raises(FieldError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_rates_reject_negative_and_non_finite(self):
        from repro.faults.types import DEFAULT_FIT_RATES
        from repro.util.fields import FieldError

        with pytest.raises(FieldError, match="^lane: must be >= 0, got -1$"):
            replace(DEFAULT_FIT_RATES, lane=-1.0)
        with pytest.raises(FieldError, match="^row: must be finite, got inf$"):
            replace(DEFAULT_FIT_RATES, row=float("inf"))

    def test_one_organization_name_collision_message(self):
        from repro.fleet.measured import plan_measured_profiles

        impostor = replace(ARCC_MEMORY_CONFIG, channels=4)
        message = "two different memory organizations share the name 'ARCC'"
        with pytest.raises(ValueError, match=re.escape(message)):
            FleetScenario(
                name="x",
                description="",
                populations=(
                    SubPopulation(name="a", channels=1),
                    SubPopulation(name="b", channels=1, config=impostor),
                ),
            )
        with pytest.raises(ValueError, match=re.escape(message)):
            plan_measured_profiles(
                organizations=(ARCC_MEMORY_CONFIG, impostor)
            )


class TestSizeBounds:
    """Fleet sizes and trace scales have upper bounds, so a typo fails
    at load with its path instead of planning one fleet job per
    4096-channel block for ever."""

    HUGE = 10**20

    @pytest.mark.parametrize(
        "old, new, flags, where",
        [
            ("channels = 300", f"channels = {HUGE}", [], "populations[0].channels"),
            ("channels = 400", f"channels = {HUGE}", [], "channels"),
            ("", "", ["--channels", str(HUGE)], None),
            (
                "channels = 300",
                "channels = 6000000",
                [],
                "populations",
            ),
        ],
        ids=["population", "file-scaling", "flag-scaling", "fleet-total"],
    )
    def test_cli_fails_fast_at_the_path(self, tmp_path, old, new, flags, where):
        import time

        from repro.cli import main

        path = tmp_path / "fleet.toml"
        text = TINY_TOML.replace(old, new, 1)
        if where == "populations":
            text = text.replace("channels = 100", "channels = 5000000", 1)
        path.write_text(text)
        started = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--scenario-file", str(path), *flags])
        assert time.perf_counter() - started < 1.0
        message = str(excinfo.value.code)
        if where == "populations":
            assert message == (
                f"repro fleet: {path}: populations: total channels must be "
                "<= 10000000, got 11000000"
            )
        elif where is None:
            assert message == (
                f"repro fleet: channels: must be <= 10000000, got {self.HUGE}"
            )
        else:
            assert message == (
                f"repro fleet: {path}: {where}: must be <= 10000000, "
                f"got {self.HUGE}"
            )

    def test_constructors_reject_past_the_bound(self):
        from repro.fleet.scenarios import MAX_FLEET_CHANNELS
        from repro.util.fields import FieldError

        over = MAX_FLEET_CHANNELS + 1
        message = f"^channels: must be <= {MAX_FLEET_CHANNELS}, got {over}$"
        with pytest.raises(FieldError, match=message):
            SubPopulation(name="a", channels=over)
        fleet = FleetScenario(
            name="x",
            description="",
            populations=(SubPopulation(name="a", channels=MAX_FLEET_CHANNELS),),
        )
        with pytest.raises(FieldError, match=message):
            fleet.scaled_to(over)

    def test_shipped_defaults_sit_inside_the_bounds(self):
        from pathlib import Path

        from repro.config import MEASUREMENT_CONFIG
        from repro.fleet.scenarios import DEFAULT_SCENARIOS, MAX_FLEET_CHANNELS
        from repro.fleet.study import MAX_INSTRUCTION_SCALE, load_study_file
        from repro.runner.registry import FIGURES

        for spec in FIGURES.values():
            for kwargs in (spec.defaults, spec.quick):
                for key, value in kwargs.items():
                    if "channels" in key:
                        assert value <= MAX_FLEET_CHANNELS, (spec.key, key)
                    if key == "instructions_per_core":
                        assert value <= MAX_INSTRUCTION_SCALE, (spec.key, key)
        assert MEASUREMENT_CONFIG.instructions_per_core <= MAX_INSTRUCTION_SCALE
        for scenario in DEFAULT_SCENARIOS.values():
            assert scenario.total_channels <= MAX_FLEET_CHANNELS
        examples = sorted(Path("examples/scenarios").glob("*.*"))
        assert examples
        for path in examples:
            try:
                study = load_study_file(path)
            except ScenarioFileError:
                spec = load_scenario_file(path)
                assert (spec.channels or 0) <= MAX_FLEET_CHANNELS
                continue
            assert max(study.effective_scales()) <= MAX_INSTRUCTION_SCALE
            assert study.base_scenario().total_channels <= MAX_FLEET_CHANNELS


#: The shipped example files, plain scenarios and studies alike.
EXAMPLE_FILES = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "scenarios").glob(
        "*.*"
    )
)

#: Junk for any value: every wrong type, out-of-range and non-finite
#: numbers, integers too large for an int64 or a float, nested arrays
#: and an unknown table.
_JUNK = (
    None,
    [],
    {},
    "",
    -1,
    2**70,
    10**400,
    float("nan"),
    float("inf"),
    True,
    [[1, [2.5]], []],
    {"zzz": {"a": 1}},
)


class TestJunkValues:
    """Hypothesis: one or two values of a shipped example replaced with
    junk either load or fail as a ScenarioFileError, never as any other
    exception."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_junk_loads_or_fails_as_a_scenario_file_error(self, path, data):
        from repro.fleet.scenario_file import STUDY_SECTION_KEYS, load_raw_mapping
        from repro.fleet.study import study_from_mapping

        raw = load_raw_mapping(path)
        is_study = any(key in raw for key in STUDY_SECTION_KEYS)
        load = study_from_mapping if is_study else scenario_from_mapping
        raw = copy.deepcopy(raw)
        for _ in range(data.draw(self.st.integers(min_value=1, max_value=2))):
            site = data.draw(self.st.sampled_from(list(_sites(raw))))
            parent = raw
            for key in site[:-1]:
                parent = parent[key]
            junk = data.draw(self.st.sampled_from(_JUNK))
            parent[site[-1]] = copy.deepcopy(junk)
        try:
            load(raw)
        except ScenarioFileError:
            pass


def _finite(low, high):
    from hypothesis import strategies as st

    return st.floats(
        min_value=low, max_value=high, allow_nan=False, allow_infinity=False
    )


def _scenario_files():
    """Whole valid scenario files: custom organizations, rate overrides,
    schedules, spatial models, optional seed, channels and policies."""
    from hypothesis import strategies as st

    from repro.config import MemoryConfig
    from repro.faults.types import FaultRates
    from repro.fleet.measured import POLICY_KEYS
    from repro.fleet.scenario_file import ScenarioFile
    from repro.fleet.scenarios import SPATIAL_KINDS, SpatialFaultModel

    @st.composite
    def organization(draw, name):
        devices = draw(st.integers(min_value=2, max_value=40))
        page = draw(st.sampled_from([1024, 2048, 4096, 8192]))
        return MemoryConfig(
            name=name,
            technology=draw(st.sampled_from(["DDR2-667", "DDR3-1600"])),
            io_width=draw(st.sampled_from([4, 8])),
            channels=draw(st.integers(min_value=1, max_value=8)),
            ranks_per_channel=draw(st.integers(min_value=1, max_value=5)),
            devices_per_rank=devices,
            data_devices_per_rank=draw(
                st.integers(min_value=1, max_value=devices - 1)
            ),
            cacheline_bytes=draw(st.sampled_from([32, 64, 128])),
            page_bytes=page,
            capacity_per_channel_bytes=page
            * draw(st.integers(min_value=1, max_value=1 << 20)),
            banks_per_device=draw(st.integers(min_value=1, max_value=16)),
            pages_per_row=draw(st.integers(min_value=1, max_value=4)),
            rows_per_bank=draw(st.integers(min_value=1, max_value=1 << 16)),
            columns_per_row=draw(st.integers(min_value=1, max_value=1 << 12)),
        )

    spatial = st.builds(
        SpatialFaultModel,
        kind=st.sampled_from(SPATIAL_KINDS),
        fraction=_finite(0.01, 1.0),
        banks=st.integers(min_value=1, max_value=8),
        rows=st.integers(min_value=1, max_value=128),
        columns=st.integers(min_value=1, max_value=128),
    )

    @st.composite
    def scenario_file(draw):
        names = draw(
            st.lists(
                st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True),
                max_size=3,
                unique=True,
            )
        )
        custom = [draw(organization(f"org-{name}")) for name in names]
        configs = [ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG, *custom]
        populations = tuple(
            SubPopulation(
                name=f"slice-{i}",
                channels=draw(st.integers(min_value=1, max_value=10**5)),
                config=draw(st.sampled_from(configs)),
                rates=FaultRates(
                    **{
                        key: draw(_finite(0.0, 100.0))
                        for key in ("bit", "row", "column", "bank", "device", "lane")
                    }
                ),
                rate_multiplier=draw(_finite(0.01, 8.0)),
                lifespan_years=draw(_finite(0.1, 10.0)),
                schedule=tuple(
                    RatePhase(
                        duration_years=draw(_finite(0.01, 5.0)),
                        multiplier=draw(_finite(0.0, 8.0)),
                    )
                    for _ in range(draw(st.integers(min_value=0, max_value=2)))
                ),
                spatial=draw(st.none() | spatial),
            )
            for i in range(draw(st.integers(min_value=1, max_value=3)))
        )
        used = {pop.config for pop in populations}
        return ScenarioFile(
            scenario=FleetScenario(
                name=draw(st.text(min_size=1, max_size=12)),
                description=draw(st.text(max_size=20)),
                populations=populations,
            ),
            seed=draw(st.none() | st.integers(min_value=0, max_value=2**63)),
            channels=draw(
                st.none() | st.integers(min_value=1, max_value=10**7)
            ),
            policies=draw(
                st.none()
                | st.lists(
                    st.sampled_from(POLICY_KEYS), min_size=1, unique=True
                ).map(tuple)
            ),
            organizations=tuple(config for config in custom if config in used),
        )

    return scenario_file()


class TestWholeFileRoundTrip:
    """Hypothesis: a whole drawn file, every schema class in it, goes
    through ``to_mapping``, JSON and ``from_mapping`` unchanged."""

    from hypothesis import given, settings

    @settings(max_examples=60, deadline=None)
    @given(spec=_scenario_files())
    def test_to_mapping_json_from_mapping_is_exact(self, spec):
        from repro.fleet.scenario_file import ScenarioFile, from_mapping, to_mapping

        raw = json.loads(json.dumps(to_mapping(spec)))
        assert from_mapping(ScenarioFile, raw) == spec
        assert scenario_from_mapping(raw) == spec
