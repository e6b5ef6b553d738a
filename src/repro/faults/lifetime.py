"""Monte-Carlo lifetime fault simulation (Section 7.1, steps 2-4; Fig 3.1).

Fault arrivals per channel are a superposition of Poisson processes, one
per fault type, with per-device FIT rates scaled by the number of devices
exposed to that type. Each simulated channel yields a time-ordered list of
:class:`FaultEvent`; downstream consumers turn those into

* the fraction of faulty 4 KB pages over time (Figure 3.1), and
* per-year power/performance overheads (Figures 7.4-7.6) by attaching the
  per-fault-type overheads measured by the trace simulator.

The sampling is vectorized: :meth:`LifetimeSimulator.sample_batch` draws
whole blocks of channels in batched NumPy calls and returns a
struct-of-arrays :class:`~repro.fleet.events.FaultEventBatch`;
:meth:`LifetimeSimulator.simulate_population` delegates to it and
converts back to per-channel event lists, event for event.
:func:`_fraction_after_events` is the per-channel scalar reduction the
vectorized year-by-year series is checked against exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import ARCC_MEMORY_CONFIG, MemoryConfig
from repro.faults.models import upgraded_page_fraction
from repro.faults.types import DEFAULT_FIT_RATES, FaultRates, FaultType
from repro.util.units import HOURS_PER_YEAR


@dataclass(frozen=True)
class FaultEvent:
    """One fault arrival in one simulated channel.

    ``bank``/``row``/``column`` refine the fault footprint below the
    device. They default to zero so histories recorded before the
    coordinate extension round-trip unchanged through
    :class:`~repro.fleet.events.FaultEventBatch` — zero coordinates
    reproduce the rank-level behaviour exactly.
    """

    time_hours: float
    fault_type: FaultType
    channel: int = 0
    rank: int = 0
    device: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0

    @property
    def time_years(self) -> float:
        """Arrival time in years."""
        return self.time_hours / HOURS_PER_YEAR


class LifetimeSimulator:
    """Samples fault-arrival histories for a population of channels."""

    def __init__(
        self,
        config: MemoryConfig = ARCC_MEMORY_CONFIG,
        rates: FaultRates = DEFAULT_FIT_RATES,
        rate_multiplier: float = 1.0,
        seed: int = 0xFA117,
    ):
        self.config = config
        self.rates = rates.scaled(rate_multiplier)
        self.seed = seed

    def sample_batch(self, channels: int, years: float):
        """Vectorized population sample as a ``FaultEventBatch``.

        The bulk representation downstream reductions should consume;
        block streams derive from ``seed`` (prefix-stable, worker-count
        independent).
        """
        from repro.fleet.engine import sample_fleet

        return sample_fleet(
            channels,
            years,
            config=self.config,
            rates=self.rates,
            seed=self.seed,
        )

    def simulate_population(
        self, channels: int, years: float
    ) -> List[List[FaultEvent]]:
        """Independent fault histories for ``channels`` channels.

        Delegates to the vectorized fleet engine and converts to
        per-channel event lists; prefer :meth:`sample_batch` for large
        populations.
        """
        return self.sample_batch(channels, years).to_histories()


def _fraction_after_events(
    events: Sequence[FaultEvent],
    config: MemoryConfig,
) -> float:
    """Upgraded-page fraction after a set of faults.

    Faults land on independently-placed circuitry, so the union of their
    page footprints composes as ``1 - prod(1 - f_i)`` — exact for the
    lane/device cases that dominate the footprint, and a documented
    approximation for overlapping small faults (whose footprints are tiny
    either way).
    """
    survival = 1.0
    for event in events:
        survival *= 1.0 - upgraded_page_fraction(event.fault_type, config)
    return 1.0 - survival


def faulty_page_fraction_timeseries(
    years: int = 7,
    channels: int = 2000,
    rate_multiplier: float = 1.0,
    config: MemoryConfig = ARCC_MEMORY_CONFIG,
    rates: FaultRates = DEFAULT_FIT_RATES,
    seed: int = 0xFA117,
) -> List[float]:
    """Average fraction of faulty 4 KB pages at the end of each year.

    This regenerates one series of Figure 3.1; sweep ``rate_multiplier``
    over 1/2/4 for the full figure. Vectorized: samples the population
    through :mod:`repro.fleet.engine` with the same block partition the
    ``fig3.1`` runner jobs use, so this function and
    :func:`~repro.experiments.fig3_1.plan_fig3_1` produce bit-identical
    series for equal parameters.
    """
    from repro.fleet.engine import faulty_fractions_by_year, sample_fleet

    batch = sample_fleet(
        channels,
        float(years),
        rate_multiplier=rate_multiplier,
        config=config,
        rates=rates,
        seed=seed,
    )
    fractions = faulty_fractions_by_year(batch, years, config)
    return [float(row.mean()) for row in fractions]
