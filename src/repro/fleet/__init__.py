"""Vectorized fleet-lifetime engine with scenario modeling.

The lifetime Monte Carlo behind Figures 3.1 and 7.4-7.6, rebuilt for
datacenter-fleet scale:

* :mod:`repro.fleet.events` — :class:`FaultEventBatch`, a struct-of-
  arrays replacement for ``List[List[FaultEvent]]`` with exact
  converters to and from the legacy dataclass;
* :mod:`repro.fleet.engine` — batched Poisson/uniform sampling of whole
  channel blocks and vectorized year-by-year reductions (faulty-page
  fractions, overhead accumulation), deterministic per-block streams;
* :mod:`repro.fleet.scenarios` — declarative heterogeneous fleets:
  mixed DIMM generations, harsh-environment slices, burn-in schedules;
* :mod:`repro.fleet.report` — population statistics with confidence
  intervals, as declarative :mod:`repro.runner` jobs;
* :mod:`repro.fleet.policies` — ARCC vs SCCDCD vs LOT-ECC protection
  policies scored over the same sampled faults: lifetime overheads,
  closed-form SDC/DUE rates and a fleet-level decision table;
* :mod:`repro.fleet.scenario_file` — validated TOML/JSON scenario
  files, so sweeps are drivable without writing Python.

``repro fleet`` on the command line sweeps scenarios through the
parallel runner; 10^5-channel populations take seconds on one core.
``repro fleet --scenario-file study.toml --policies arcc,sccdcd``
turns the same machinery into a decision tool.
"""

from repro.fleet.engine import (
    FLEET_BLOCK_CHANNELS,
    channel_arrival_rates,
    faulty_fractions_at,
    faulty_fractions_by_year,
    fleet_blocks,
    overhead_series_by_year,
    sample_block,
    sample_fleet,
)
from repro.fleet.events import FAULT_TYPE_ORDER, FaultEventBatch, empty_batch
from repro.fleet.measured import (
    MeasuredOverheadProfile,
    clear_measured_memo,
    plan_measured_profiles,
)
from repro.fleet.policies import (
    DEFAULT_POLICY_KEYS,
    POLICY_KEYS,
    PolicyComparisonReport,
    PolicyFleetSummary,
    PolicySliceReport,
    ProtectionPolicy,
    measured_policy,
    plan_fleet_compare,
    plan_fleet_compare_measured,
    resolve_policies,
)
from repro.fleet.report import (
    DEFAULT_FLEET_SEED,
    FleetReport,
    SubPopulationReport,
    plan_fleet,
)
from repro.fleet.scenario_file import (
    ScenarioFile,
    ScenarioFileError,
    dump_scenario_json,
    load_raw_mapping,
    load_scenario_file,
    scenario_from_mapping,
    scenario_to_mapping,
)
from repro.fleet.scenarios import (
    DEFAULT_SCENARIOS,
    SPATIAL_KINDS,
    FleetScenario,
    RatePhase,
    SpatialFaultModel,
    SubPopulation,
    resolve_scenario,
)
from repro.fleet.study import (
    Study,
    StudyPoint,
    StudyPointResult,
    StudyResult,
    expand_study,
    load_study_file,
    plan_study,
    run_study,
    study_from_mapping,
)

__all__ = [
    "DEFAULT_FLEET_SEED",
    "DEFAULT_POLICY_KEYS",
    "DEFAULT_SCENARIOS",
    "FAULT_TYPE_ORDER",
    "FLEET_BLOCK_CHANNELS",
    "FaultEventBatch",
    "FleetReport",
    "FleetScenario",
    "MeasuredOverheadProfile",
    "POLICY_KEYS",
    "PolicyComparisonReport",
    "PolicyFleetSummary",
    "PolicySliceReport",
    "ProtectionPolicy",
    "RatePhase",
    "SPATIAL_KINDS",
    "ScenarioFile",
    "ScenarioFileError",
    "SpatialFaultModel",
    "Study",
    "StudyPoint",
    "StudyPointResult",
    "StudyResult",
    "SubPopulation",
    "SubPopulationReport",
    "channel_arrival_rates",
    "clear_measured_memo",
    "dump_scenario_json",
    "empty_batch",
    "expand_study",
    "faulty_fractions_at",
    "faulty_fractions_by_year",
    "fleet_blocks",
    "load_raw_mapping",
    "load_scenario_file",
    "load_study_file",
    "measured_policy",
    "overhead_series_by_year",
    "plan_fleet",
    "plan_fleet_compare",
    "plan_fleet_compare_measured",
    "plan_measured_profiles",
    "plan_study",
    "resolve_policies",
    "resolve_scenario",
    "run_study",
    "sample_block",
    "sample_fleet",
    "scenario_from_mapping",
    "scenario_to_mapping",
    "study_from_mapping",
]
