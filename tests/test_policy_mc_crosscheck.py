"""Cross-check: the uncorrectable-pair screen vs exact MC footprints.

Fleet batches carry exact spatial coordinates (bank/row/column), so
:func:`repro.fleet.engine.uncorrectable_candidate_channels` decides
"shares a codeword" with the same footprint-intersection rule the
MC engine uses (:func:`repro.reliability.footprint
.footprint_pairs_intersect`). The MC sampler draws straight into a
fleet :class:`~repro.fleet.events.FaultEventBatch`, so these tests pin
the exactness claim against the scalar rule
(:func:`repro.reliability.footprint.footprint_intersects`) on the very
batch the screen reads:

* **exact on every mix** — field-study type mixes, row/column-heavy
  mixes and device/lane-only mixes all agree channel for channel with
  the per-fault footprint walk, for every window/seed/rate swept here;
* **coordinate-less batches stay a true upper bound** — a batch whose
  bank/row/column are all zero (the rank-level representation)
  degrades to the historic rank-level screen: it still flags every
  exactly-uncorrectable channel, and carrying the coordinates is
  precisely what removes the over-count.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults.types import FaultRates
from repro.fleet.engine import uncorrectable_candidate_channels
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.footprint import footprint_intersects
from repro.reliability.montecarlo import _sample_batch
from repro.util.units import HOURS_PER_YEAR

YEARS = 7.0

#: Fault-rate mixes the exactness claim is swept over: the SC'12 field
#: mix, a small-footprint-heavy mix and a rank-covering-only mix.
RATE_MIXES = {
    "field": None,
    "row-column-heavy": FaultRates(
        bit=0.0, row=16.0, column=14.0, bank=1.0, device=0.2, lane=0.2
    ),
    "device-lane-only": FaultRates(
        bit=0.0, row=0.0, column=0.0, bank=0.0, device=1.4, lane=2.4
    ),
}


def _params(multiplier: float, mix: str) -> ReliabilityParams:
    rates = RATE_MIXES[mix]
    if rates is None:
        return ReliabilityParams(rate_multiplier=multiplier)
    return ReliabilityParams(rate_multiplier=multiplier, rates=rates)


def _sample(params, seed, channels):
    rng = np.random.Generator(np.random.PCG64(seed))
    return _sample_batch(params, rng, channels, YEARS)


def _without_coordinates(batch):
    """The rank-level representation: bank/row/column all zero, which
    the screen must still treat conservatively."""
    zeros = np.zeros(batch.num_events, dtype=np.int64)
    return replace(batch, bank=zeros, row=zeros, column=zeros)


def _exact_uncorrectable(batch, window_hours: float) -> np.ndarray:
    """Ground truth: any pair with intersecting exact footprints whose
    second member arrives within the window of the first."""
    out = np.zeros(batch.num_channels, dtype=bool)
    for member in np.flatnonzero(batch.per_channel >= 2):
        faults = batch.events_of(int(member))
        for i, earlier in enumerate(faults):
            for later in faults[i + 1 :]:
                if (
                    later.time_hours - earlier.time_hours <= window_hours
                    and footprint_intersects(earlier, later)
                ):
                    out[member] = True
                    break
            if out[member]:
                break
    return out


class TestScreenIsExactEverywhere:
    @pytest.mark.parametrize("mix", sorted(RATE_MIXES))
    @pytest.mark.parametrize("seed", [0xC05C, 17])
    @pytest.mark.parametrize("multiplier", [8.0, 20.0])
    @pytest.mark.parametrize(
        "window_hours", [720.0, HOURS_PER_YEAR * YEARS]
    )
    def test_screen_agrees_channel_for_channel(
        self, mix, seed, multiplier, window_hours
    ):
        batch = _sample(_params(multiplier, mix), seed, channels=2048)
        screen = uncorrectable_candidate_channels(batch, window_hours)
        exact = _exact_uncorrectable(batch, window_hours)
        diverged = np.flatnonzero(screen != exact)
        assert diverged.size == 0, (
            f"{mix}: screen and exact footprints disagree on channels "
            f"{diverged[:5]}"
        )

    def test_exact_channels_are_nontrivial(self):
        """The sweep exercises real mass, not vacuous agreement."""
        batch = _sample(_params(20.0, "field"), 0xC05C, channels=4096)
        window_hours = HOURS_PER_YEAR * YEARS
        assert int(_exact_uncorrectable(batch, window_hours).sum()) >= 50


class TestCoordinateLessBatchesStayConservative:
    def test_zero_default_coordinates_are_a_true_upper_bound(self):
        """A rank-level batch (bank/row/column all zero) degrades to
        the historic rank-level screen: every exactly-uncorrectable
        channel is still flagged, and the over-count the coordinates
        remove is visible in the comparison."""
        batch = _sample(_params(20.0, "field"), 0xC05C, channels=2048)
        window_hours = HOURS_PER_YEAR * YEARS
        blind = uncorrectable_candidate_channels(
            _without_coordinates(batch), window_hours
        )
        exact = _exact_uncorrectable(batch, window_hours)
        missed = np.flatnonzero(exact & ~blind)
        assert missed.size == 0, (
            f"coordinate-less screen missed channels {missed[:5]}"
        )
        # The blind view over-counts; the coordinate-aware view does not.
        aware = uncorrectable_candidate_channels(batch, window_hours)
        assert int(blind.sum()) > int(exact.sum())
        assert np.array_equal(aware, exact)
