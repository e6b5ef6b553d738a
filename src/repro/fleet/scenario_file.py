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
checked before values. The loader checks only shape — tables, arrays,
types, keys and name references; every value rule belongs to the domain
object it constrains (:class:`~repro.config.MemoryConfig`,
:class:`~repro.faults.types.FaultRates`,
:class:`~repro.fleet.scenarios.SubPopulation`, ...), whose
:class:`~repro.util.fields.FieldError` the loader re-raises at the
field's dotted path. :func:`scenario_to_mapping` is the exact inverse
of :func:`scenario_from_mapping`, so ``load -> dump -> load`` round-trips
(the round-trip test in ``tests/test_scenario_file.py`` pins this).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.config import ARCC_MEMORY_CONFIG, BASELINE_MEMORY_CONFIG, MemoryConfig
from repro.faults.types import DEFAULT_FIT_RATES, FaultRates
from repro.fleet.policies import check_policy_set
from repro.fleet.scenarios import (
    MAX_FLEET_CHANNELS,
    FleetScenario,
    RatePhase,
    SpatialFaultModel,
    SubPopulation,
)
from repro.util.fields import FieldError, check_range
from repro.util.suggest import did_you_mean

#: Named memory organizations a scenario file may reference.
CONFIG_NAMES: Dict[str, MemoryConfig] = {
    "arcc": ARCC_MEMORY_CONFIG,
    "baseline": BASELINE_MEMORY_CONFIG,
}


def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(item.name for item in fields(cls))


#: File keys are the dataclass fields, in declaration order (an
#: organization's name is its table key, so it has no key of its own).
_RATE_FIELDS = _field_names(FaultRates)
_ORGANIZATION_KEYS = _field_names(MemoryConfig)[1:]
_POPULATION_KEYS = _field_names(SubPopulation)
_PHASE_KEYS = _field_names(RatePhase)
_SPATIAL_KEYS = _field_names(SpatialFaultModel)
_TOP_LEVEL_KEYS = (
    "name",
    "description",
    "seed",
    "channels",
    "policies",
    "organizations",
    "populations",
)
_ORGANIZATION_REQUIRED = (
    "io_width",
    "channels",
    "ranks_per_channel",
    "devices_per_rank",
    "data_devices_per_rank",
)


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

    def __post_init__(self) -> None:
        if self.seed is not None:
            check_range("seed", self.seed, at_least=0)
        if self.channels is not None:
            check_range(
                "channels", self.channels, at_least=1, at_most=MAX_FLEET_CHANNELS
            )
        if self.policies is not None:
            check_policy_set(self.policies)


def _fail(path: str, message: str) -> "ScenarioFileError":
    prefix = f"{path}: " if path else ""
    return ScenarioFileError(f"{prefix}{message}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@contextmanager
def _values_at(
    path: str, locate: Optional[Callable[[str], str]] = None
) -> Iterator[None]:
    """Re-path the value errors of the domain object built inside.

    A :class:`~repro.util.fields.FieldError` lands at ``path.<field>``
    (or at ``locate(field)`` where the file spells the field otherwise),
    any other ``ValueError`` at ``path`` itself.
    """
    try:
        yield
    except FieldError as exc:
        where = locate(exc.field) if locate else _join(path, exc.field)
        raise _fail(where, exc.message) from exc
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _check_keys(
    mapping: Mapping[str, Any], allowed: Sequence[str], path: str
) -> None:
    if not isinstance(mapping, Mapping):
        raise _fail(path, f"expected a table/object, got {_type_name(mapping)}")
    for key in mapping:
        if key not in allowed:
            raise _fail(
                _join(path, str(key)),
                f"unknown key{did_you_mean(str(key), allowed)}; "
                f"allowed: {', '.join(allowed)}",
            )


def _require_keys(
    mapping: Mapping[str, Any], required: Sequence[str], path: str
) -> None:
    for key in required:
        if key not in mapping:
            raise _fail(path, f"missing required key {key!r}")


def _type_name(value: Any) -> str:
    return type(value).__name__


def _is_array(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _get_str(
    mapping: Mapping[str, Any], key: str, path: str, empty: bool = False
) -> str:
    _require_keys(mapping, (key,), path)
    value = mapping[key]
    if not isinstance(value, str):
        raise _fail(_join(path, key), f"expected str, got {_type_name(value)}")
    if not value and not empty:
        raise _fail(_join(path, key), "must not be empty")
    return value


def _check_int(value: Any, path: str) -> int:
    # bool is an int subclass; a scenario never wants `channels = true`.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected int, got {_type_name(value)}")
    return value


def _check_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected number, got {_type_name(value)}")
    try:
        return float(value)
    except OverflowError:
        raise _fail(
            path, "must be finite, got an integer too large for a float"
        ) from None


def _get_int(mapping: Mapping[str, Any], key: str, path: str) -> int:
    return _check_int(mapping[key], _join(path, key))


def _get_float(mapping: Mapping[str, Any], key: str, path: str) -> float:
    return _check_float(mapping[key], _join(path, key))


def _get_bool(mapping: Mapping[str, Any], key: str, path: str) -> bool:
    value = mapping[key]
    if not isinstance(value, bool):
        raise _fail(_join(path, key), f"expected bool, got {_type_name(value)}")
    return value


def _get_array(mapping: Mapping[str, Any], key: str, path: str) -> List[Any]:
    value = mapping[key]
    if not _is_array(value):
        raise _fail(
            _join(path, key), f"expected an array, got {_type_name(value)}"
        )
    if not value:
        raise _fail(_join(path, key), "must not be empty")
    return list(value)


def _check_strs(value: Any, path: str) -> Tuple[str, ...]:
    """An array of strings (a policy set), element types checked."""
    if not _is_array(value):
        raise _fail(
            path, f"expected an array of strings, got {_type_name(value)}"
        )
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise _fail(f"{path}[{i}]", f"expected str, got {_type_name(item)}")
    return tuple(value)


def _parse_rates(raw: Any, path: str) -> FaultRates:
    _check_keys(raw, _RATE_FIELDS, path)
    values = {
        name: _get_float(raw, name, path)
        if name in raw
        else getattr(DEFAULT_FIT_RATES, name)
        for name in _RATE_FIELDS
    }
    with _values_at(path):
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
    _require_keys(raw, _ORGANIZATION_REQUIRED, path)
    values: Dict[str, Any] = {"technology": "DDR2-667"}
    if "technology" in raw:
        values["technology"] = _get_str(raw, "technology", path)
    for key in _ORGANIZATION_KEYS[1:]:
        if key in raw:
            values[key] = _get_int(raw, key, path)
    with _values_at(path):
        return MemoryConfig(name=name, **values)


def organization_from_mapping(
    name: str, table: Mapping[str, Any], path: str = "organizations"
) -> MemoryConfig:
    """One organization table -> :class:`MemoryConfig` (public hook).

    The scenario-file loader's handling of an ``[organizations.<name>]``
    table — required keys and types here, every value rule (supported
    I/O widths, power-of-two line/page sizes, divisibility) in
    :class:`MemoryConfig`. The fuzz sampler
    (:mod:`repro.fuzz.sampler`) builds its random organizations through
    this function so a sampled case can never be schema-invalid.

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
    _require_keys(raw, _PHASE_KEYS, path)
    values = {key: _get_float(raw, key, path) for key in _PHASE_KEYS}
    with _values_at(path):
        return RatePhase(**values)


def _parse_spatial(raw: Any, path: str) -> SpatialFaultModel:
    """One ``[populations.spatial]`` table -> :class:`SpatialFaultModel`."""
    _check_keys(raw, _SPATIAL_KEYS, path)
    values: Dict[str, Any] = {"kind": _get_str(raw, "kind", path)}
    if "fraction" in raw:
        values["fraction"] = _get_float(raw, "fraction", path)
    for key in ("banks", "rows", "columns"):
        if key in raw:
            values[key] = _get_int(raw, key, path)
    with _values_at(path):
        return SpatialFaultModel(**values)


def _parse_population(
    raw: Any,
    path: str,
    organizations: Optional[Mapping[str, MemoryConfig]] = None,
) -> SubPopulation:
    _check_keys(raw, _POPULATION_KEYS, path)
    values: Dict[str, Any] = {"name": _get_str(raw, "name", path)}
    _require_keys(raw, ("channels",), path)
    values["channels"] = _get_int(raw, "channels", path)

    if "config" in raw:
        known_configs: Dict[str, MemoryConfig] = dict(CONFIG_NAMES)
        known_configs.update(organizations or {})
        config_name = _get_str(raw, "config", path)
        if config_name not in known_configs:
            raise _fail(
                f"{path}.config",
                f"unknown memory config {config_name!r}"
                f"{did_you_mean(config_name, known_configs)}; "
                f"known: {', '.join(known_configs)}",
            )
        values["config"] = known_configs[config_name]
    if "rates" in raw:
        values["rates"] = _parse_rates(raw["rates"], f"{path}.rates")
    for key in ("rate_multiplier", "lifespan_years"):
        if key in raw:
            values[key] = _get_float(raw, key, path)
    if "schedule" in raw:
        phases = raw["schedule"]
        if not _is_array(phases):
            raise _fail(
                f"{path}.schedule",
                f"expected an array of tables, got {_type_name(phases)}",
            )
        values["schedule"] = tuple(
            _parse_phase(phase, f"{path}.schedule[{i}]")
            for i, phase in enumerate(phases)
        )
    if "spatial" in raw:
        values["spatial"] = _parse_spatial(raw["spatial"], f"{path}.spatial")
    with _values_at(path):
        return SubPopulation(**values)


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
            description = _get_str(raw, "description", "", empty=True)

        defaults: Dict[str, Any] = {}
        for key in ("seed", "channels"):
            if key in raw:
                defaults[key] = _get_int(raw, key, "")
        if "policies" in raw:
            defaults["policies"] = _check_strs(raw["policies"], "policies")

        organizations: Dict[str, MemoryConfig] = {}
        if "organizations" in raw:
            organizations = _parse_organizations(
                raw["organizations"], "organizations"
            )

        _require_keys(raw, ("populations",), "")
        raw_pops = raw["populations"]
        if not _is_array(raw_pops):
            raise _fail(
                "populations",
                f"expected an array of tables, got {_type_name(raw_pops)}",
            )
        populations = tuple(
            _parse_population(pop, f"populations[{i}]", organizations)
            for i, pop in enumerate(raw_pops)
        )
        with _values_at(""):
            scenario = FleetScenario(
                name=name, description=description, populations=populations
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
        with _values_at(""):
            return ScenarioFile(
                scenario=scenario,
                organizations=tuple(organizations.values()),
                **defaults,
            )
    except ScenarioFileError as exc:
        if source:
            raise ScenarioFileError(f"{source}: {exc}") from None
        raise


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
        organizations[_config_name(config)] = {
            key: getattr(config, key) for key in _ORGANIZATION_KEYS
        }
    populations: List[Dict[str, Any]] = []
    for pop in scenario.populations:
        entry: Dict[str, Any] = {
            "name": pop.name,
            "channels": pop.channels,
            "config": _config_name(pop.config),
            "rates": asdict(pop.rates),
            "rate_multiplier": pop.rate_multiplier,
            "lifespan_years": pop.lifespan_years,
        }
        if pop.schedule:
            entry["schedule"] = [asdict(phase) for phase in pop.schedule]
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
