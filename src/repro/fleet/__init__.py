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
turns the same machinery into a decision tool. Import each name from
the module that defines it.
"""

import sys

# Resolved on first use (PEP 562) only because ``perfbench/`` imports
# these names from the package, and ``perfbench/`` changes only together
# with the benchmark. ROADMAP item 7's rewrite of ``perfbench/tracer.py``
# moves those imports to the defining modules and deletes both this table
# and the one in ``repro/runner/__init__.py``.
_LAZY_EXPORTS = {
    "clear_measured_memo": ("repro.fleet.measured", "clear_measured_memo"),
    "expand_study": ("repro.fleet.study", "expand_study"),
    "load_study_file": ("repro.fleet.study", "load_study_file"),
    "plan_measured_profiles": ("repro.fleet.measured", "plan_measured_profiles"),
}

# The parent package is always imported before its subpackages.
__getattr__ = sys.modules["repro"].lazy_exports(__name__, _LAZY_EXPORTS)
