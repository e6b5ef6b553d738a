"""DRAM fault taxonomy, rates, injection, and lifetime Monte Carlo.

The paper's fault inputs come from the Sridharan-Liberty SC'12 field study
of >160,000 DIMMs [2]: per-device rates for single-bit, row, column, bank
(subbank), whole-device and lane faults. Chapter 3 turns those into the
fraction of 4 KB pages affected over a server lifespan (Figure 3.1);
Table 7.4 turns each fault type into the fraction of pages ARCC upgrades.
"""

from repro.faults.injector import FaultInjector
from repro.faults.lifetime import (
    FaultEvent,
    LifetimeSimulator,
    faulty_page_fraction_timeseries,
)
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import (
    DEFAULT_FIT_RATES,
    FaultRates,
    FaultType,
)

__all__ = [
    "DEFAULT_FIT_RATES",
    "FaultEvent",
    "FaultInjector",
    "FaultRates",
    "FaultType",
    "LifetimeSimulator",
    "faulty_page_fraction_timeseries",
    "upgraded_page_fraction",
]
