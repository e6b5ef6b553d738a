"""Declarative TOML/JSON fleet-scenario files.

Studies shouldn't require Python: a scenario file names its
sub-populations, rate phases, policies and seed, and ``repro fleet
--scenario-file PATH`` (optionally with ``--policies``) runs the sweep.
The full schema — every key, type, default and unit — is documented in
``docs/scenario-files.md``, with worked examples under
``examples/scenarios/``.

Validation is strict and errors are precise: every message carries the
dotted path of the offending key (``populations[1].rate_multiplier``),
unknown keys are rejected with a closest-match suggestion, and types are
checked before values. :func:`scenario_to_mapping` is the exact inverse
of :func:`scenario_from_mapping`, so ``load -> dump -> load`` round-trips
(the round-trip test in ``tests/test_scenario_file.py`` pins this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import (
    ARCC_MEMORY_CONFIG,
    BASELINE_MEMORY_CONFIG,
    MemoryConfig,
)
from repro.faults.types import DEFAULT_FIT_RATES, FaultRates
from repro.fleet.scenarios import (
    SPATIAL_KINDS,
    FleetScenario,
    RatePhase,
    SpatialFaultModel,
    SubPopulation,
)
from repro.util.bitops import is_power_of_two
from repro.util.suggest import did_you_mean

#: Named memory organizations a scenario file may reference.
CONFIG_NAMES: Dict[str, MemoryConfig] = {
    "arcc": ARCC_MEMORY_CONFIG,
    "baseline": BASELINE_MEMORY_CONFIG,
}

_RATE_FIELDS = tuple(f.name for f in fields(FaultRates))

_TOP_LEVEL_KEYS = (
    "name",
    "description",
    "seed",
    "channels",
    "policies",
    "organizations",
    "populations",
)
_ORGANIZATION_KEYS = (
    "technology",
    "io_width",
    "channels",
    "ranks_per_channel",
    "devices_per_rank",
    "data_devices_per_rank",
    "cacheline_bytes",
    "page_bytes",
    "capacity_per_channel_bytes",
    "banks_per_device",
    "pages_per_row",
    "rows_per_bank",
    "columns_per_row",
)
_ORGANIZATION_REQUIRED = (
    "io_width",
    "channels",
    "ranks_per_channel",
    "devices_per_rank",
    "data_devices_per_rank",
)
#: Organization fields that must be powers of two: line and page sizes
#: feed power-of-two address arithmetic (set indexing, page striping);
#: the I/O width additionally needs a datasheet row (x4 or x8).
_ORGANIZATION_POW2 = ("cacheline_bytes", "page_bytes")
_SUPPORTED_IO_WIDTHS = (4, 8)
_POPULATION_KEYS = (
    "name",
    "channels",
    "config",
    "rates",
    "rate_multiplier",
    "lifespan_years",
    "schedule",
    "spatial",
)
_PHASE_KEYS = ("duration_years", "multiplier")
_SPATIAL_KEYS = ("kind", "fraction", "banks", "rows", "columns")


#: Section names that mark a file as a *study* (a campaign over a grid
#: of scenario variants) rather than a plain scenario. Parsed by
#: :mod:`repro.fleet.study`; the plain loader rejects them with a
#: pointer so ``repro fleet`` never silently ignores a declared sweep.
STUDY_SECTION_KEYS = ("study", "sweep")


class ScenarioFileError(ValueError):
    """A scenario file failed validation.

    The message always names the offending key path (and the file, when
    loaded from disk) so a typo in slice three of a forty-line file is a
    one-glance fix.
    """


@dataclass(frozen=True)
class ScenarioFile:
    """A parsed scenario file: the scenario plus its run defaults.

    ``seed``/``channels``/``policies`` are optional file-level defaults
    for the corresponding ``repro fleet`` flags; explicit command-line
    flags win over them. ``seed`` and ``channels`` apply only to this
    file's scenario (built-in scenarios named alongside it keep their
    own defaults); ``policies`` selects the run's mode, so it applies
    to the whole invocation. ``organizations`` holds the file's custom
    ``[organizations.<name>]`` tables (the populations embed the same
    configs, so this is introspection, not extra state).
    """

    scenario: FleetScenario
    seed: Optional[int] = None
    channels: Optional[int] = None
    policies: Optional[Tuple[str, ...]] = None
    organizations: Tuple[MemoryConfig, ...] = ()


def _fail(path: str, message: str) -> "ScenarioFileError":
    prefix = f"{path}: " if path else ""
    return ScenarioFileError(f"{prefix}{message}")


def _check_keys(
    mapping: Mapping[str, Any], allowed: Sequence[str], path: str
) -> None:
    if not isinstance(mapping, Mapping):
        raise _fail(path, f"expected a table/object, got {_type_name(mapping)}")
    for key in mapping:
        if key not in allowed:
            raise _fail(
                f"{path}.{key}" if path else str(key),
                f"unknown key{did_you_mean(str(key), allowed)}; "
                f"allowed: {', '.join(allowed)}",
            )


def _type_name(value: Any) -> str:
    return type(value).__name__


def _get_str(mapping: Mapping[str, Any], key: str, path: str) -> str:
    if key not in mapping:
        raise _fail(path, f"missing required key {key!r}")
    value = mapping[key]
    if not isinstance(value, str):
        raise _fail(f"{path}.{key}", f"expected str, got {_type_name(value)}")
    if not value:
        raise _fail(f"{path}.{key}", "must not be empty")
    return value


def _check_int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    # bool is an int subclass; a scenario never wants `channels = true`.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected int, got {_type_name(value)}")
    if minimum is not None and value < minimum:
        raise _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _check_float(
    value: Any,
    path: str,
    minimum: Optional[float] = None,
    exclusive: bool = False,
    maximum: Optional[float] = None,
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected number, got {_type_name(value)}")
    value = float(value)
    if minimum is not None:
        if exclusive and value <= minimum:
            raise _fail(path, f"must be > {minimum:g}, got {value:g}")
        if not exclusive and value < minimum:
            raise _fail(path, f"must be >= {minimum:g}, got {value:g}")
    if maximum is not None and value > maximum:
        raise _fail(path, f"must be <= {maximum:g}, got {value:g}")
    return value


def _get_int(
    mapping: Mapping[str, Any],
    key: str,
    path: str,
    minimum: Optional[int] = None,
) -> int:
    return _check_int(mapping[key], f"{path}.{key}", minimum)


def _get_float(
    mapping: Mapping[str, Any],
    key: str,
    path: str,
    minimum: Optional[float] = None,
    exclusive: bool = False,
) -> float:
    return _check_float(mapping[key], f"{path}.{key}", minimum, exclusive)


def _get_bool(mapping: Mapping[str, Any], key: str, path: str) -> bool:
    value = mapping[key]
    if not isinstance(value, bool):
        raise _fail(f"{path}.{key}", f"expected bool, got {_type_name(value)}")
    return value


def _get_array(mapping: Mapping[str, Any], key: str, path: str) -> List[Any]:
    value = mapping[key]
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise _fail(
            f"{path}.{key}", f"expected an array, got {_type_name(value)}"
        )
    if not value:
        raise _fail(f"{path}.{key}", "must not be empty")
    return list(value)


def _parse_rates(raw: Any, path: str) -> FaultRates:
    _check_keys(raw, _RATE_FIELDS, path)
    values = {}
    for name in _RATE_FIELDS:
        if name in raw:
            values[name] = _get_float(raw, name, path, minimum=0.0)
        else:
            values[name] = getattr(DEFAULT_FIT_RATES, name)
    return FaultRates(**values)


def _parse_organization(name: str, raw: Any, path: str) -> MemoryConfig:
    """One ``[organizations.<name>]`` table -> :class:`MemoryConfig`.

    The table key is the organization's name (what populations reference
    via ``config`` and what reports print); it must not shadow a
    built-in name.
    """
    if not name:
        raise _fail("organizations", "organization names must not be empty")
    if name in CONFIG_NAMES:
        raise _fail(
            path,
            f"organization name {name!r} shadows a built-in config; "
            f"built-ins: {', '.join(CONFIG_NAMES)}",
        )
    _check_keys(raw, _ORGANIZATION_KEYS, path)
    for key in _ORGANIZATION_REQUIRED:
        if key not in raw:
            raise _fail(path, f"missing required key {key!r}")

    technology = "DDR2-667"
    if "technology" in raw:
        technology = _get_str(raw, "technology", path)
    values: Dict[str, int] = {}
    for key in _ORGANIZATION_KEYS:
        if key == "technology" or key not in raw:
            continue
        values[key] = _get_int(raw, key, path, minimum=1)
    for key in _ORGANIZATION_POW2:
        if key in values and not is_power_of_two(values[key]):
            raise _fail(
                f"{path}.{key}",
                f"must be a power of two, got {values[key]}",
            )
    io_width = values["io_width"]
    if io_width not in _SUPPORTED_IO_WIDTHS:
        raise _fail(
            f"{path}.io_width",
            f"no datasheet parameters for x{io_width} devices; "
            f"supported: {', '.join(str(w) for w in _SUPPORTED_IO_WIDTHS)}",
        )
    page_bytes = values.get("page_bytes", 4096)
    cacheline_bytes = values.get("cacheline_bytes", 64)
    if page_bytes % cacheline_bytes:
        raise _fail(
            f"{path}.page_bytes",
            f"must be a multiple of cacheline_bytes ({cacheline_bytes}), "
            f"got {page_bytes}",
        )
    capacity = values.get("capacity_per_channel_bytes")
    if capacity is not None and capacity % page_bytes:
        raise _fail(
            f"{path}.capacity_per_channel_bytes",
            f"must be a multiple of page_bytes ({page_bytes}), "
            f"got {capacity}",
        )
    try:
        return MemoryConfig(name=name, technology=technology, **values)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def organization_from_mapping(
    name: str, table: Mapping[str, Any], path: str = "organizations"
) -> MemoryConfig:
    """One organization table -> :class:`MemoryConfig` (public hook).

    The same validation the scenario-file loader applies to an
    ``[organizations.<name>]`` table — required keys, supported I/O
    widths, power-of-two line/page sizes, divisibility. The fuzz
    sampler (:mod:`repro.fuzz.sampler`) builds its random organizations
    through this function so a sampled case can never be schema-invalid.

    Examples
    --------
    >>> config = organization_from_mapping("tiny-x8", {
    ...     "io_width": 8, "channels": 3, "ranks_per_channel": 1,
    ...     "devices_per_rank": 9, "data_devices_per_rank": 8,
    ... })
    >>> (config.channels, config.check_devices_per_rank)
    (3, 1)
    """
    return _parse_organization(name, table, f"{path}.{name}")


def _parse_organizations(raw: Any, path: str) -> Dict[str, MemoryConfig]:
    if not isinstance(raw, Mapping):
        raise _fail(
            path,
            f"expected a table of organization tables, got {_type_name(raw)}",
        )
    return {
        str(name): _parse_organization(
            str(name), table, f"{path}.{name}" if name else path
        )
        for name, table in raw.items()
    }


def _parse_phase(raw: Any, path: str) -> RatePhase:
    _check_keys(raw, _PHASE_KEYS, path)
    for key in _PHASE_KEYS:
        if key not in raw:
            raise _fail(path, f"missing required key {key!r}")
    return RatePhase(
        duration_years=_get_float(
            raw, "duration_years", path, minimum=0.0, exclusive=True
        ),
        multiplier=_get_float(raw, "multiplier", path, minimum=0.0),
    )


def _parse_spatial(raw: Any, path: str) -> SpatialFaultModel:
    """One ``[populations.spatial]`` table -> :class:`SpatialFaultModel`."""
    _check_keys(raw, _SPATIAL_KEYS, path)
    kind = _get_str(raw, "kind", path)
    if kind not in SPATIAL_KINDS:
        raise _fail(
            f"{path}.kind",
            f"unknown spatial kind {kind!r}"
            f"{did_you_mean(kind, SPATIAL_KINDS)}; "
            f"known: {', '.join(SPATIAL_KINDS)}",
        )
    fraction = 0.5
    if "fraction" in raw:
        fraction = _get_float(raw, "fraction", path, minimum=0.0, exclusive=True)
        if fraction > 1.0:
            raise _fail(f"{path}.fraction", f"must be <= 1, got {fraction:g}")
    extents = {}
    for key in ("banks", "rows", "columns"):
        if key in raw:
            extents[key] = _get_int(raw, key, path, minimum=1)
    try:
        return SpatialFaultModel(kind=kind, fraction=fraction, **extents)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_population(
    raw: Any,
    path: str,
    organizations: Optional[Mapping[str, MemoryConfig]] = None,
) -> SubPopulation:
    _check_keys(raw, _POPULATION_KEYS, path)
    name = _get_str(raw, "name", path)
    if "channels" not in raw:
        raise _fail(path, "missing required key 'channels'")
    channels = _get_int(raw, "channels", path, minimum=1)

    known_configs: Dict[str, MemoryConfig] = dict(CONFIG_NAMES)
    known_configs.update(organizations or {})
    config = ARCC_MEMORY_CONFIG
    if "config" in raw:
        config_name = _get_str(raw, "config", path)
        if config_name not in known_configs:
            raise _fail(
                f"{path}.config",
                f"unknown memory config {config_name!r}"
                f"{did_you_mean(config_name, known_configs)}; "
                f"known: {', '.join(known_configs)}",
            )
        config = known_configs[config_name]

    rates = DEFAULT_FIT_RATES
    if "rates" in raw:
        rates = _parse_rates(raw["rates"], f"{path}.rates")

    rate_multiplier = 1.0
    if "rate_multiplier" in raw:
        rate_multiplier = _get_float(
            raw, "rate_multiplier", path, minimum=0.0, exclusive=True
        )
    lifespan_years = 7.0
    if "lifespan_years" in raw:
        lifespan_years = _get_float(
            raw, "lifespan_years", path, minimum=0.0, exclusive=True
        )

    schedule: Tuple[RatePhase, ...] = ()
    if "schedule" in raw:
        phases = raw["schedule"]
        if not isinstance(phases, Sequence) or isinstance(phases, (str, bytes)):
            raise _fail(
                f"{path}.schedule",
                f"expected an array of tables, got {_type_name(phases)}",
            )
        schedule = tuple(
            _parse_phase(phase, f"{path}.schedule[{i}]")
            for i, phase in enumerate(phases)
        )

    spatial: Optional[SpatialFaultModel] = None
    if "spatial" in raw:
        spatial = _parse_spatial(raw["spatial"], f"{path}.spatial")

    return SubPopulation(
        name=name,
        channels=channels,
        config=config,
        rates=rates,
        rate_multiplier=rate_multiplier,
        lifespan_years=lifespan_years,
        schedule=schedule,
        spatial=spatial,
    )


def scenario_from_mapping(
    raw: Mapping[str, Any], source: str = ""
) -> ScenarioFile:
    """Validate a parsed TOML/JSON mapping into a :class:`ScenarioFile`.

    ``source`` (usually the file path) prefixes every error message.
    Raises :class:`ScenarioFileError` with the dotted path of the first
    offending key.
    """
    try:
        if isinstance(raw, Mapping):
            for key in STUDY_SECTION_KEYS:
                if key in raw:
                    raise _fail(
                        key,
                        "this file declares a study campaign; run it with "
                        "`repro study` (repro.fleet.study.load_study_file), "
                        "not as a plain scenario",
                    )
        _check_keys(raw, _TOP_LEVEL_KEYS, "")
        name = _get_str(raw, "name", "")
        description = ""
        if "description" in raw:
            value = raw["description"]
            if not isinstance(value, str):
                raise _fail(
                    "description", f"expected str, got {_type_name(value)}"
                )
            description = value

        seed = None
        if "seed" in raw:
            seed = _get_int(raw, "seed", "", minimum=0)
        channels = None
        if "channels" in raw:
            channels = _get_int(raw, "channels", "", minimum=1)

        policies: Optional[Tuple[str, ...]] = None
        if "policies" in raw:
            value = raw["policies"]
            if not isinstance(value, Sequence) or isinstance(
                value, (str, bytes)
            ):
                raise _fail(
                    "policies",
                    f"expected an array of strings, got {_type_name(value)}",
                )
            for i, item in enumerate(value):
                if not isinstance(item, str):
                    raise _fail(
                        f"policies[{i}]",
                        f"expected str, got {_type_name(item)}",
                    )
            policies = tuple(value)

        organizations: Dict[str, MemoryConfig] = {}
        if "organizations" in raw:
            organizations = _parse_organizations(
                raw["organizations"], "organizations"
            )

        if "populations" not in raw:
            raise _fail("", "missing required key 'populations'")
        raw_pops = raw["populations"]
        if not isinstance(raw_pops, Sequence) or isinstance(
            raw_pops, (str, bytes)
        ):
            raise _fail(
                "populations",
                f"expected an array of tables, got {_type_name(raw_pops)}",
            )
        if not raw_pops:
            raise _fail("populations", "needs at least one sub-population")
        populations = tuple(
            _parse_population(pop, f"populations[{i}]", organizations)
            for i, pop in enumerate(raw_pops)
        )
        # Strict like everything else — and what keeps load -> dump ->
        # load exact: a dump can only emit organizations its populations
        # reference, so an unreferenced table (usually a typo in some
        # population's `config`) is rejected rather than silently lost.
        referenced = {pop.config.name for pop in populations}
        unused = [name for name in organizations if name not in referenced]
        if unused:
            raise _fail(
                f"organizations.{unused[0]}",
                "organization is not referenced by any population "
                "(reference it via `config = " + repr(unused[0]) + "` "
                "or remove the table)",
            )

        try:
            scenario = FleetScenario(
                name=name, description=description, populations=populations
            )
        except ValueError as exc:
            raise _fail("populations", str(exc)) from exc
    except ScenarioFileError as exc:
        if source:
            raise ScenarioFileError(f"{source}: {exc}") from None
        raise
    return ScenarioFile(
        scenario=scenario,
        seed=seed,
        channels=channels,
        policies=policies,
        organizations=tuple(organizations.values()),
    )


def load_raw_mapping(path: "str | Path") -> Mapping[str, Any]:
    """Parse a ``.toml``/``.json`` file into its raw top-level mapping.

    The shared front half of :func:`load_scenario_file` and the study
    loader (:func:`repro.fleet.study.load_study_file`): extension
    dispatch, parse-error wrapping and the top-level-table check, with
    no schema interpretation.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        import tomllib

        try:
            with path.open("rb") as handle:
                raw = tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioFileError(f"{path}: invalid TOML: {exc}") from exc
    elif suffix == ".json":
        try:
            with path.open("r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ScenarioFileError(f"{path}: invalid JSON: {exc}") from exc
    else:
        raise ScenarioFileError(
            f"{path}: unsupported extension {suffix!r} (use .toml or .json)"
        )
    if not isinstance(raw, Mapping):
        raise ScenarioFileError(
            f"{path}: top level must be a table/object, "
            f"got {_type_name(raw)}"
        )
    return raw


def load_scenario_file(path: "str | Path") -> ScenarioFile:
    """Load and validate a ``.toml`` or ``.json`` scenario file.

    The format is chosen by file extension. Raises
    :class:`ScenarioFileError` on validation failures (message prefixed
    with the file path and the offending key path) and ``OSError`` when
    the file cannot be read. Files carrying a ``[study]``/``[sweep]``
    section are rejected with a pointer to ``repro study``.
    """
    path = Path(path)
    return scenario_from_mapping(load_raw_mapping(path), source=str(path))


def _config_name(config: MemoryConfig) -> str:
    for name, known in CONFIG_NAMES.items():
        if known == config:
            return name
    if config.name in CONFIG_NAMES:
        raise ScenarioFileError(
            f"custom memory config is named {config.name!r}, which shadows "
            f"a built-in; built-ins: {', '.join(CONFIG_NAMES)}"
        )
    return config.name


def _organization_table(config: MemoryConfig) -> Dict[str, Any]:
    """Full ``[organizations.<name>]`` table of one custom config."""
    return {
        "technology": config.technology,
        "io_width": config.io_width,
        "channels": config.channels,
        "ranks_per_channel": config.ranks_per_channel,
        "devices_per_rank": config.devices_per_rank,
        "data_devices_per_rank": config.data_devices_per_rank,
        "cacheline_bytes": config.cacheline_bytes,
        "page_bytes": config.page_bytes,
        "capacity_per_channel_bytes": config.capacity_per_channel_bytes,
        "banks_per_device": config.banks_per_device,
        "pages_per_row": config.pages_per_row,
        "rows_per_bank": config.rows_per_bank,
        "columns_per_row": config.columns_per_row,
    }


def scenario_to_mapping(
    scenario: FleetScenario,
    seed: Optional[int] = None,
    channels: Optional[int] = None,
    policies: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The plain-dict form of a scenario — the inverse of
    :func:`scenario_from_mapping`.

    Every population is written out in full (no defaults elided), and
    every non-built-in organization becomes an ``organizations`` table
    keyed by its name, so a dump is self-documenting and round-trips
    exactly.
    """
    organizations: Dict[str, Dict[str, Any]] = {}
    for config in scenario.organizations():
        if any(config == known for known in CONFIG_NAMES.values()):
            continue
        organizations[_config_name(config)] = _organization_table(config)
    populations: List[Dict[str, Any]] = []
    for pop in scenario.populations:
        entry: Dict[str, Any] = {
            "name": pop.name,
            "channels": pop.channels,
            "config": _config_name(pop.config),
            "rates": {
                name: getattr(pop.rates, name) for name in _RATE_FIELDS
            },
            "rate_multiplier": pop.rate_multiplier,
            "lifespan_years": pop.lifespan_years,
        }
        if pop.schedule:
            entry["schedule"] = [
                {
                    "duration_years": phase.duration_years,
                    "multiplier": phase.multiplier,
                }
                for phase in pop.schedule
            ]
        if pop.spatial:
            entry["spatial"] = pop.spatial.to_config()
        populations.append(entry)
    out: Dict[str, Any] = {
        "name": scenario.name,
        "description": scenario.description,
        "populations": populations,
    }
    if organizations:
        out["organizations"] = organizations
    if seed is not None:
        out["seed"] = seed
    if channels is not None:
        out["channels"] = channels
    if policies is not None:
        out["policies"] = list(policies)
    return out


def dump_scenario_json(
    scenario: FleetScenario,
    path: "str | Path",
    seed: Optional[int] = None,
    channels: Optional[int] = None,
    policies: Optional[Sequence[str]] = None,
) -> None:
    """Write a scenario as a ``.json`` file :func:`load_scenario_file`
    accepts (the stdlib has no TOML writer, so dumps are JSON-only)."""
    mapping = scenario_to_mapping(
        scenario, seed=seed, channels=channels, policies=policies
    )
    Path(path).write_text(
        json.dumps(mapping, indent=2) + "\n", encoding="utf-8"
    )
