"""Declarative TOML/JSON fleet-scenario files.

Studies shouldn't require Python: a scenario file names its
sub-populations, rate phases, policies and seed, and ``repro fleet
--scenario-file PATH`` (optionally with ``--policies``) runs the sweep.
The full schema — every key, type, default and unit — is documented in
``docs/scenario-files.md``, with worked examples under
``examples/scenarios/``.

The format is derived from the domain dataclasses. A table's keys are
its class's fields, and each value is read as the field's annotation
says. :data:`SCHEMAS` holds one :class:`Schema` per class, which also
records where the file spells a field otherwise: an organization's name
is its table key, ``config`` names an organization, and an omitted FIT
rate keeps its SC'12 default. :func:`from_mapping` builds an object from
its table and :func:`to_mapping` writes it back, so ``load -> dump ->
load`` round-trips exactly (``tests/test_scenario_file.py`` pins this
for a whole drawn file).

Validation is strict and errors are precise: every message carries the
dotted path of the offending key (``populations[1].rate_multiplier``),
unknown keys are rejected with a closest-match suggestion, and types are
checked before values. The schemas check only shape — tables, arrays,
types, keys and name references; every value rule belongs to the domain
object it constrains (:class:`~repro.config.MemoryConfig`,
:class:`~repro.faults.types.FaultRates`,
:class:`~repro.fleet.scenarios.SubPopulation`, ...), whose
:class:`~repro.util.fields.FieldError` the loader re-raises at the
field's dotted path. Two rules belong to the file itself and live here:
a custom organization must not shadow a built-in name, and an
organization table nothing references is rejected.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

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
from repro.util.suggest import did_you_mean, unknown_key_message

#: Named memory organizations a scenario file may reference.
CONFIG_NAMES: Dict[str, MemoryConfig] = {
    "arcc": ARCC_MEMORY_CONFIG,
    "baseline": BASELINE_MEMORY_CONFIG,
}


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


#: The organizations an organization reference may name, by name.
Refs = Mapping[str, MemoryConfig]

#: Reads one value at a dotted path: checks its type and builds it.
Reader = Callable[[Any, str, Refs], Any]


def _fail(path: str, message: str) -> "ScenarioFileError":
    prefix = f"{path}: " if path else ""
    return ScenarioFileError(f"{prefix}{message}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


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


def _type_name(value: Any) -> str:
    return type(value).__name__


def _read_scalar(kind: type) -> Reader:
    """An int, a number (any int converts to float), a bool or a str."""
    accepts = (int, float) if kind is float else kind
    label = "number" if kind is float else kind.__name__

    def read_scalar(value: Any, path: str, refs: Refs) -> Any:
        # bool is an int subclass; a scenario never wants `channels = true`.
        if not isinstance(value, accepts) or (
            isinstance(value, bool) and kind is not bool
        ):
            raise _fail(path, f"expected {label}, got {_type_name(value)}")
        if kind is not float:
            return value
        try:
            return float(value)
        except OverflowError:
            raise _fail(
                path, "must be finite, got an integer too large for a float"
            ) from None

    return read_scalar


_read_str = _read_scalar(str)


def _read_organization(value: Any, path: str, refs: Refs) -> MemoryConfig:
    """An organization reference: a built-in or a table of the file."""
    name = _read_str(value, path, refs)
    if name not in refs:
        raise _fail(path, unknown_key_message("memory config", name, refs))
    return refs[name]


def _reader(annotation: Any) -> Reader:
    """How a value of one resolved field type is read from a file.

    ``Optional[X]`` reads as ``X``: an absent key, never a null, leaves
    the field at its default. A :class:`MemoryConfig` is spelled by
    name, a nested dataclass as a table.
    """
    args = get_args(annotation)
    if get_origin(annotation) is Union:
        (annotation,) = [arg for arg in args if arg is not type(None)]
        return _reader(annotation)
    if get_origin(annotation) is tuple:
        item = _reader(args[0])
        array = {str: "an array of strings", MemoryConfig: "an array"}.get(
            args[0], "an array of tables" if is_dataclass(args[0]) else "an array"
        )

        def read_array(value: Any, path: str, refs: Refs) -> Tuple[Any, ...]:
            if not isinstance(value, (list, tuple)):
                raise _fail(path, f"expected {array}, got {_type_name(value)}")
            return tuple(
                item(entry, f"{path}[{i}]", refs) for i, entry in enumerate(value)
            )

        return read_array
    if annotation is MemoryConfig:
        return _read_organization
    if is_dataclass(annotation):
        return lambda value, path, refs: SCHEMAS[annotation].read(
            value, path, refs
        )
    return _read_scalar(annotation)


def _write(value: Any) -> Any:
    """A field value in file form: the inverse of its :func:`_reader`."""
    if isinstance(value, MemoryConfig):
        for name, known in CONFIG_NAMES.items():
            if known == value:
                return name
        if value.name in CONFIG_NAMES:
            raise ScenarioFileError(
                f"custom memory config is named {value.name!r}, which "
                f"shadows a built-in; built-ins: {', '.join(CONFIG_NAMES)}"
            )
        return value.name
    if is_dataclass(value):
        return to_mapping(value)
    if isinstance(value, tuple):
        return [_write(item) for item in value]
    return value


class Schema:
    """One dataclass as a file table.

    The table's keys are the class's fields, in declaration order, and
    each value is read as its field's annotation says. The types are
    resolved once, when the schema is built, never per load. Where the
    file spells a field otherwise: ``omit`` names fields it has no key
    for, ``keys`` renames, ``defaults`` gives an absent key a value
    other than the field's default, and ``readers`` wraps a field's
    type reader in a rule of the file's own.

    The schema checks shape only (tables, arrays, types, keys, names);
    the class's constructor checks every value, and its
    :class:`~repro.util.fields.FieldError` is re-raised at the field's
    dotted path.
    """

    def __init__(
        self,
        cls: type,
        omit: Sequence[str] = (),
        keys: Optional[Mapping[str, str]] = None,
        defaults: Optional[Mapping[str, Any]] = None,
        readers: Optional[Mapping[str, Callable[[Reader], Reader]]] = None,
    ) -> None:
        keys, defaults, readers = keys or {}, defaults or {}, readers or {}
        hints = get_type_hints(cls)
        self.cls = cls
        #: ``(field, key, reader, default)``; a ``MISSING`` default
        #: makes the key required.
        self.fields: Tuple[Tuple[str, str, Reader, Any], ...] = tuple(
            (
                item.name,
                keys.get(item.name, item.name),
                readers.get(item.name, lambda read: read)(
                    _reader(hints[item.name])
                ),
                defaults.get(item.name, item.default),
            )
            for item in fields(cls)
            if item.name not in omit
        )
        #: Every key the table accepts, in order.
        self.keys: Tuple[str, ...] = tuple(key for _, key, _, _ in self.fields)

    def read(
        self,
        raw: Any,
        path: str = "",
        refs: Refs = CONFIG_NAMES,
        defaults: Mapping[str, Any] = MappingProxyType({}),
        locate: Optional[Callable[[str], str]] = None,
    ) -> Any:
        """Build the class from one parsed table at dotted ``path``.

        ``defaults`` supplies fields the file leaves out (and values
        for absent keys); ``locate`` maps a field error to where the
        file spells that field.
        """
        _check_keys(raw, self.keys, path)
        return self._build(raw, path, refs, defaults, locate)

    def _build(
        self,
        raw: Mapping[str, Any],
        path: str,
        refs: Refs,
        defaults: Mapping[str, Any],
        locate: Optional[Callable[[str], str]] = None,
    ) -> Any:
        values = dict(defaults)
        for name, key, read, default in self.fields:
            if key in raw:
                values[name] = read(raw[key], _join(path, key), refs)
            elif name in values:
                continue
            elif default is MISSING:
                raise _fail(path, f"missing required key {key!r}")
            else:
                values[name] = default
        try:
            return self.cls(**values)
        except FieldError as exc:
            # Where the file spells the field; `locate` knows otherwise.
            where = locate(exc.field) if locate else _join(path, exc.field)
            raise _fail(where, exc.message) from exc
        except ValueError as exc:
            raise _fail(path, str(exc)) from exc

    def write(self, obj: Any) -> Dict[str, Any]:
        """The table of ``obj``: every field, ``None`` and empty arrays
        left out (they read back as the field's default)."""
        out: Dict[str, Any] = {}
        for name, key, _, _ in self.fields:
            value = getattr(obj, name)
            if value is not None and value != ():
                out[key] = _write(value)
        return out


def organization_refs(organizations: Iterable[MemoryConfig]) -> Dict[str, MemoryConfig]:
    """What an organization reference may name: the built-ins, then the
    file's own ``[organizations.<name>]`` tables."""
    return {**CONFIG_NAMES, **{config.name: config for config in organizations}}


def organization_from_mapping(
    name: str, table: Mapping[str, Any], path: str = "organizations"
) -> MemoryConfig:
    """One ``[organizations.<name>]`` table -> :class:`MemoryConfig`.

    The table key is the organization's name (what populations reference
    via ``config`` and what reports print); it must not be empty or
    shadow a built-in name. Keys and types are checked here, every value
    rule (supported I/O widths, power-of-two line/page sizes,
    divisibility) in :class:`MemoryConfig`. The fuzz sampler
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
    if not name:
        raise _fail(path, "organization names must not be empty")
    where = f"{path}.{name}"
    if name in CONFIG_NAMES:
        raise _fail(
            where,
            f"organization name {name!r} shadows a built-in config; "
            f"built-ins: {', '.join(CONFIG_NAMES)}",
        )
    return SCHEMAS[MemoryConfig].read(table, where, defaults={"name": name})


class _FileSchema(Schema):
    """The top table of a file: a :class:`ScenarioFile`.

    Its scenario's keys sit beside its own, and its organization tables,
    keyed by name, are read first, because populations name them.
    """

    def __init__(self, scenario: Schema) -> None:
        super().__init__(ScenarioFile, omit=("scenario", "organizations"))
        self.scenario = scenario
        self.keys = scenario.keys + self.keys + ("organizations",)

    def _build(
        self,
        raw: Mapping[str, Any],
        path: str,
        refs: Refs,
        defaults: Mapping[str, Any],
        locate: Optional[Callable[[str], str]] = None,
    ) -> ScenarioFile:
        where = _join(path, "organizations")
        tables = raw.get("organizations", {})
        if not isinstance(tables, Mapping):
            raise _fail(
                where,
                "expected a table of organization tables, "
                f"got {_type_name(tables)}",
            )
        organizations = tuple(
            organization_from_mapping(str(name), table, where)
            for name, table in tables.items()
        )
        scenario = self.scenario._build(
            raw, path, organization_refs(organizations), {}
        )
        given = {"scenario": scenario, "organizations": organizations}
        return super()._build(raw, path, refs, {**given, **defaults}, locate)

    def write(self, spec: ScenarioFile) -> Dict[str, Any]:
        out = self.scenario.write(spec.scenario)
        if spec.organizations:
            out["organizations"] = {
                config.name: to_mapping(config) for config in spec.organizations
            }
        out.update(super().write(spec))
        return out


_SCENARIO_SCHEMA = Schema(FleetScenario, defaults={"description": ""})

#: Every class a scenario file spells, as its table. A file's top table
#: is a :class:`ScenarioFile`.
SCHEMAS: Dict[type, Schema] = {
    schema.cls: schema
    for schema in (
        Schema(FaultRates, defaults=asdict(DEFAULT_FIT_RATES)),
        Schema(
            MemoryConfig, omit=("name",), defaults={"technology": "DDR2-667"}
        ),
        Schema(RatePhase),
        Schema(SpatialFaultModel),
        Schema(SubPopulation),
        _SCENARIO_SCHEMA,
        _FileSchema(_SCENARIO_SCHEMA),
    )
}


def from_mapping(cls: type, raw: Any, path: str = "") -> Any:
    """Build a schema class from its parsed TOML/JSON table.

    Raises :class:`ScenarioFileError` at the dotted path (below
    ``path``) of the first offending key. An organization's table lacks
    its name, its key in ``[organizations]``: read it with
    :func:`organization_from_mapping`.
    """
    return SCHEMAS[cls].read(raw, path)


def to_mapping(obj: Any) -> Dict[str, Any]:
    """The plain-dict form of a schema object, the inverse of
    :func:`from_mapping`: ``from_mapping(type(obj), to_mapping(obj))``
    equals ``obj`` (for a :class:`ScenarioFile`, a whole file)."""
    return SCHEMAS[type(obj)].write(obj)


def check_referenced(
    spec: ScenarioFile, axis: Sequence[MemoryConfig] = (), section: str = ""
) -> None:
    """Reject an organization table that nothing references.

    Strict like everything else, and what keeps load -> dump -> load
    exact: a dump can only emit organizations its populations use, so
    an unreferenced table (usually a typo in some population's
    ``config``) is rejected rather than silently lost. A study file's
    ``[section].organizations`` axis may reference tables too.
    """
    used = {pop.config for pop in spec.scenario.populations}
    used.update(axis)
    for config in spec.organizations:
        if config not in used:
            hint = (
                f" or the [{section}].organizations axis (reference it"
                if section
                else f" (reference it via `config = {config.name!r}`"
            )
            raise _fail(
                f"organizations.{config.name}",
                "organization is not referenced by any population"
                f"{hint} or remove the table)",
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
        spec = from_mapping(ScenarioFile, raw)
        check_referenced(spec)
        return spec
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
    custom = tuple(
        config
        for config in scenario.organizations()
        if config not in CONFIG_NAMES.values()
    )
    return to_mapping(
        ScenarioFile(
            scenario=scenario,
            seed=seed,
            channels=channels,
            policies=None if policies is None else tuple(policies),
            organizations=custom,
        )
    )


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
