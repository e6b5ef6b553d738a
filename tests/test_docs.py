"""Documentation integrity: links, doctests, CLI help coverage.

Three rot vectors, all cheap to pin:

* intra-repo Markdown links (``docs/``, ``README.md``, ...) must point
  at files that exist — a rename breaks the docs silently otherwise;
* the doctest examples on the public fleet/runner API must keep
  running — they are the copy-pasteable entry points the user guide
  links to;
* ``repro --help`` and the :mod:`repro.cli` module docstring must
  mention every registered subcommand, and the docstring every
  ``repro run`` figure key, so new commands cannot ship undocumented.

The CI docs job runs exactly this module.
"""

import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links must resolve (repo-relative globs).
MARKDOWN_GLOBS = ("*.md", "docs/*.md", "examples/**/*.md")

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Modules whose docstring examples the user guide leans on.
DOCTEST_MODULES = (
    "repro.fleet.scenarios",
    "repro.fleet.events",
    "repro.fleet.measured",
    "repro.fleet.report",
    "repro.fleet.policies",
    "repro.fleet.scenario_file",
    "repro.perf.trace",
    "repro.perf.engine",
    "repro.experiments.fig7_2_7_3",
    "repro.experiments.sensitivity",
    "repro.experiments.fig7_4_7_5",
    "repro.reliability.montecarlo",
    "repro.runner.job",
    "repro.fuzz.sampler",
    "repro.fuzz.oracles",
    "repro.fuzz.campaign",
    "repro.fuzz.shrink",
    "repro.util.fields",
)


def _markdown_files():
    seen = []
    for pattern in MARKDOWN_GLOBS:
        seen.extend(sorted(REPO_ROOT.glob(pattern)))
    return seen


def _intra_repo_links(path: Path):
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        # GitHub-relative URLs (the CI badge) resolve outside the repo.
        if REPO_ROOT not in resolved.parents and resolved != REPO_ROOT:
            continue
        yield target, resolved


class TestMarkdownLinks:
    def test_docs_tree_exists(self):
        for page in (
            "user-guide.md",
            "scenario-files.md",
            "architecture.md",
            "fuzzing.md",
        ):
            assert (REPO_ROOT / "docs" / page).is_file(), page

    def test_readme_links_into_docs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in (
            "user-guide.md",
            "scenario-files.md",
            "architecture.md",
            "fuzzing.md",
        ):
            assert f"docs/{page}" in readme, page

    @pytest.mark.parametrize(
        "path", _markdown_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
    )
    def test_intra_repo_links_resolve(self, path):
        broken = [
            target
            for target, resolved in _intra_repo_links(path)
            if not resolved.exists()
        ]
        assert not broken, f"broken links in {path.name}: {broken}"


class TestDoctests:
    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_module_doctests_pass(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, f"{module_name}: {result.failed} failed"

    def test_examples_actually_exist(self):
        """At least the documented entry points carry runnable examples."""
        import repro.fleet.report as report
        import repro.fleet.scenarios as scenarios
        import repro.runner.job as job

        import repro.perf.engine as perf_engine
        import repro.perf.trace as perf_trace

        finder = doctest.DocTestFinder()
        for module, names in (
            (scenarios, ("SubPopulation", "FleetScenario")),
            (report, ("plan_fleet",)),
            (job, ("Job", "ExperimentPlan")),
            (perf_trace, ("TraceBatch", "materialize_mix")),
            (perf_engine, ("arcc_capable", "replay")),
        ):
            found = {
                test.name.split(".")[-1]
                for test in finder.find(module)
                if test.examples
            }
            for name in names:
                assert name in found, f"{module.__name__}.{name} lost its example"


class TestOracleMapDocs:
    """The docs' oracle map must track the live fuzz registry."""

    def test_architecture_oracle_map_covers_registry(self):
        from repro.fuzz import ORACLE_PAIRS

        text = (REPO_ROOT / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        for key, pair in ORACLE_PAIRS.items():
            assert f"`{key}`" in text, f"oracle map misses {key!r}"
            assert pair.hook in text, f"oracle map misses hook for {key!r}"
            assert pair.guarantee in text

    def test_fuzzing_page_covers_cli_and_oracles(self):
        from repro.fuzz import ORACLE_PAIRS

        text = (REPO_ROOT / "docs" / "fuzzing.md").read_text(encoding="utf-8")
        assert "repro fuzz" in text
        for key in ORACLE_PAIRS:
            assert key in text, f"fuzzing page misses oracle {key!r}"


class TestCliDocumentation:
    def _subcommands(self):
        from repro.cli import build_parser

        parser = build_parser()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                return list(action.choices)
        raise AssertionError("no subparsers found")

    def test_help_mentions_every_subcommand(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in self._subcommands():
            assert name in out, f"--help does not mention {name!r}"

    def test_module_docstring_covers_every_subcommand(self):
        import repro.cli as cli

        for name in self._subcommands():
            assert name in cli.__doc__, (
                f"cli module docstring does not document {name!r}"
            )

    def test_module_docstring_covers_new_fleet_flags(self):
        import repro.cli as cli

        for flag in ("--scenario-file", "--policies", "--no-cache", "--quick"):
            assert flag in cli.__doc__, flag

    def test_module_docstring_usage_matches_help(self):
        """Each usage line lists exactly the flags its subcommand's
        ``--help`` offers — no stale flag survives a removal."""
        import repro.cli as cli
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action.choices
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        usage = cli.__doc__.split("::", 1)[1].split("\n\n")[1]
        documented = {}
        for line in usage.splitlines():
            match = re.match(r"\s*python -m repro (\S+)", line)
            if match:
                command = match.group(1)
                documented[command] = set()
            documented[command].update(re.findall(r"--[a-z][a-z-]*", line))
        assert set(documented) == set(subparsers)
        for command, flags in documented.items():
            offered = {
                option
                for action in subparsers[command]._actions
                for option in action.option_strings
                if option.startswith("--") and option != "--help"
            }
            assert flags == offered, command

    def test_run_registry_keys_documented(self):
        """``repro run KEY`` is the only way to run a figure, so the
        module docstring names every registry key."""
        import repro.cli as cli
        from repro.runner.registry import FIGURES

        for key in FIGURES:
            assert f"``{key}``" in cli.__doc__, key


class TestScenarioFileDocs:
    """Each key table of ``docs/scenario-files.md`` lists exactly the
    keys its schema accepts, so a new field cannot ship undocumented."""

    @pytest.mark.parametrize(
        "heading, table",
        [
            ("## Top level", "ScenarioFile"),
            ("## `[[populations]]`", "SubPopulation"),
            ("### `[populations.spatial]`", "SpatialFaultModel"),
            ("### `[populations.rates]`", "FaultRates"),
            ("## `[organizations.<name>]`", "MemoryConfig"),
            ("### `[[populations.schedule]]`", "RatePhase"),
            ("## Study files", "Study"),
        ],
    )
    def test_key_table_matches_schema(self, heading, table):
        from repro.fleet.scenario_file import SCHEMAS
        from repro.fleet.study import STUDY_SCHEMA

        schemas = {schema.cls.__name__: schema for schema in SCHEMAS.values()}
        schema = STUDY_SCHEMA if table == "Study" else schemas[table]
        text = (REPO_ROOT / "docs" / "scenario-files.md").read_text(
            encoding="utf-8"
        )
        section = text.split(f"\n{heading}", 1)[1].split("\n#", 1)[0]
        documented = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
        assert sorted(documented) == sorted(schema.keys)
