"""Reliability models for chipkill memory (Chapter 6, reference [12]).

Two independent implementations of the same question — *how often does a
second (or third) device-level fault land in an already-faulty codeword
before the first fault is detected?*:

* :mod:`repro.reliability.analytical` — closed-form Poisson race models
  with a codeword-overlap geometry table, following the structure of the
  authors' technical report [12].
* :mod:`repro.reliability.montecarlo` — event-driven simulation with
  exact footprint intersection on the fleet's fault-event format, used
  to validate the closed forms (the paper does the same cross-check);
  :func:`~repro.reliability.montecarlo.plan_montecarlo` runs a
  population as one runner plan.
* :mod:`repro.reliability.due` — DUE-rate comparisons, including the
  double-chip-sparing exposure-window argument behind the 17x claim of
  Section 5.2.
"""

from repro.reliability.analytical import (
    ReliabilityParams,
    expected_sdc_arcc,
    expected_sdc_sccdcd,
    sdc_events_per_1000_machine_years,
    sdc_rate_arcc_ded,
)
from repro.reliability.due import (
    due_rate_sccdcd,
    due_rate_sparing,
    due_reduction_factor,
)
from repro.reliability.montecarlo import ReliabilityOutcome, plan_montecarlo

__all__ = [
    "ReliabilityOutcome",
    "ReliabilityParams",
    "due_rate_sccdcd",
    "due_rate_sparing",
    "due_reduction_factor",
    "expected_sdc_arcc",
    "expected_sdc_sccdcd",
    "plan_montecarlo",
    "sdc_events_per_1000_machine_years",
    "sdc_rate_arcc_ded",
]
