"""Seeded random sampling of *valid* scenario inputs.

Every oracle pair (:mod:`repro.fuzz.oracles`) needs a stream of diverse
but schema-valid cases: memory organizations within the
``[organizations]`` constraints (I/O width 4 or 8, power-of-two line and
page sizes, odd channel/rank/bank counts allowed), workload-mix subsets,
piecewise rate schedules with burn-in phases, policy sets, upgraded
fractions. The samplers here draw those within the rules the domain
objects check at construction — organizations round-trip through
:func:`repro.fleet.scenario_file.organization_from_mapping` into
:class:`repro.config.MemoryConfig`, schedules through
:class:`repro.fleet.scenarios.SubPopulation` — so a sampled case can
never be rejected as malformed, only diverge.

Reproducibility is the riescue idiom: a campaign seed derives one
integer seed per case index (:func:`repro.util.rng.derive_seed`, a pure
function of the campaign seed and the index), and each case is a pure
function of its own seed. The
``quick`` flag shrinks every size range for smoke campaigns without
changing the shapes drawn.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from repro.fleet.measured import POLICIES
from repro.workloads.spec import ALL_MIXES

#: (devices_per_rank, data_devices_per_rank) pairs satisfying the
#: at-least-one-check-device constraint, spanning x4-style wide ranks
#: and x8-style narrow ones.
_DEVICE_SHAPES = ((9, 8), (10, 8), (12, 10), (18, 16), (36, 32))

#: Built-in organization names a case may reference instead of carrying
#: a custom table (the :data:`repro.fleet.scenario_file.CONFIG_NAMES`
#: keys — both rows of Table 7.1 are ARCC-capable two-channel systems).
BUILTIN_ORGANIZATIONS = ("arcc", "baseline")


def round_to(value: float, decimals: int) -> float:
    """``float(np.round(value, decimals))`` without a NumPy scalar call.

    NumPy rounds a float to ``decimals > 0`` places as ``rint(value *
    10**decimals) / 10**decimals``. Python's :func:`round` of a float
    rounds half to even as ``rint`` does, so the same three operations
    give the same float, bit for bit; the sign of a zero result comes
    back from ``value`` (``rint`` keeps it, ``round`` returns an int).
    Where the scaled value is not finite (``value`` is NaN or infinite,
    or so large that scaling overflows) the result is that value over
    the scale, as NumPy's is, instead of :func:`round`'s error.

    >>> round_to(2.675, 2) == float(np.round(2.675, 2))
    True
    >>> round_to(0.125, 2), round_to(-0.0001, 3)
    (0.12, -0.0)
    >>> round_to(float("inf"), 3), round_to(1e307, 4)
    (inf, inf)
    """
    scale = 10.0**decimals
    scaled = value * scale
    if not math.isfinite(scaled):
        return scaled / scale
    return math.copysign(round(scaled) / scale, value)


def _choice(rng: np.random.Generator, options) -> Any:
    """Pick one element (returns the element, not a 0-d array)."""
    return options[int(rng.integers(len(options)))]


def sample_organization(
    rng: np.random.Generator, require_arcc: bool = False
) -> Dict[str, Any]:
    """Draw one valid ``[organizations.<name>]`` table.

    Honors every rule :class:`~repro.config.MemoryConfig` checks at
    construction: ``io_width`` in {4, 8}, power-of-two line/page sizes
    with ``page % line == 0``, capacity a multiple of the page size, at
    least one check device per rank — while deliberately wandering off
    Table 7.1 (odd channel/rank/bank counts).
    ``require_arcc`` keeps ``channels >= 2`` so upgraded pages have a
    pairing partner.

    Examples
    --------
    >>> from repro.util.rng import make_rng
    >>> org = sample_organization(make_rng(0))
    >>> org["io_width"] in (4, 8)
    True
    >>> org["page_bytes"] % org["cacheline_bytes"]
    0
    """
    devices, data = _choice(rng, _DEVICE_SHAPES)
    cacheline = int(_choice(rng, (32, 64, 128)))
    page = int(_choice(rng, (2048, 4096, 8192)))
    channels = int(rng.integers(2 if require_arcc else 1, 5))
    capacity = page * int(2 ** rng.integers(15, 20))
    return {
        "io_width": int(_choice(rng, (4, 8))),
        "channels": channels,
        "ranks_per_channel": int(rng.integers(1, 4)),
        "devices_per_rank": int(devices),
        "data_devices_per_rank": int(data),
        "cacheline_bytes": cacheline,
        "page_bytes": page,
        "capacity_per_channel_bytes": capacity,
        "banks_per_device": int(_choice(rng, (2, 4, 5, 8))),
    }


def sample_organization_ref(
    rng: np.random.Generator, require_arcc: bool = False
) -> Any:
    """A case's organization: a built-in name or a custom table."""
    if rng.random() < 0.4:
        return _choice(rng, BUILTIN_ORGANIZATIONS)
    return sample_organization(rng, require_arcc=require_arcc)


def sample_rates(
    rng: np.random.Generator, device_lane_only: bool = False
) -> Dict[str, float]:
    """Per-device FIT rates around the field-study magnitudes.

    ``device_lane_only`` zeroes the small-footprint classes — the
    populations on which the rank-level uncorrectable screen is provably
    exact, not merely an upper bound.
    """
    draw = {
        name: round_to(rng.uniform(2.0, 40.0), 3)
        for name in ("bit", "row", "column", "bank", "device", "lane")
    }
    if device_lane_only:
        for name in ("bit", "row", "column", "bank"):
            draw[name] = 0.0
    return draw


def sample_schedule(
    rng: np.random.Generator, lifespan_years: float
) -> List[List[float]]:
    """Burn-in phases as ``[duration_years, multiplier]`` pairs.

    Zero to two leading phases; anything beyond the last phase runs at
    steady state (multiplier 1.0), matching
    :meth:`repro.fleet.scenarios.SubPopulation.phases`.
    """
    phases: List[List[float]] = []
    remaining = lifespan_years
    for _ in range(int(rng.integers(0, 3))):
        if remaining <= 0.25:
            break
        duration = round_to(rng.uniform(0.1, remaining / 2), 3)
        multiplier = round_to(rng.uniform(0.5, 6.0), 3)
        phases.append([duration, multiplier])
        remaining -= duration
    return phases


def sample_mix_names(
    rng: np.random.Generator, low: int = 1, high: int = 2
) -> List[str]:
    """A subset of the Table 7.3 mixes, in table order."""
    count = int(rng.integers(low, high + 1))
    picks = rng.choice(len(ALL_MIXES), size=count, replace=False)
    return [ALL_MIXES[i].name for i in sorted(int(p) for p in picks)]


def sample_upgraded_fraction(rng: np.random.Generator) -> float:
    """An upgraded-page fraction: exact endpoints half the time."""
    if rng.random() < 0.5:
        return float(_choice(rng, (0.0, 0.0625, 0.125, 0.5, 1.0)))
    return round_to(rng.uniform(0.0, 1.0), 4)


# -- per-oracle case samplers -------------------------------------------------


def sample_montecarlo_case(
    rng: np.random.Generator, quick: bool = False
) -> Dict[str, Any]:
    """A case for the vectorized-vs-event-loop Monte-Carlo pair."""
    return {
        "seed": int(rng.integers(0, 2**31)),
        "channels": int(rng.integers(64, 257 if quick else 1025)),
        "years": round_to(rng.uniform(1.0, 7.0), 2),
        "rate_multiplier": round_to(rng.uniform(4.0, 24.0), 2),
        "rates": sample_rates(rng),
        "devices_per_rank": int(_choice(rng, (18, 36))),
        "ranks": int(rng.integers(1, 4)),
        "banks": int(_choice(rng, (4, 5, 8))),
        "rows": int(2 ** rng.integers(6, 11)),
        "columns": int(2 ** rng.integers(6, 11)),
        "scrub_interval_hours": float(_choice(rng, (2.0, 4.0, 8.0))),
    }


def sample_fleet_case(
    rng: np.random.Generator, quick: bool = False
) -> Dict[str, Any]:
    """A case for the fleet-engine-vs-legacy-reduction pair."""
    years = int(rng.integers(1, 5 if quick else 8))
    per_fault = {
        name: round_to(rng.uniform(0.0, 0.4), 4)
        for name in ("row", "column", "bank", "device", "lane")
    }
    return {
        "seed": int(rng.integers(0, 2**31)),
        "channels": int(rng.integers(16, 65 if quick else 161)),
        "years": years,
        "rate_multiplier": round_to(rng.uniform(2.0, 16.0), 2),
        "organization": sample_organization_ref(rng),
        "rates": sample_rates(rng),
        "phases": sample_schedule(rng, float(years)),
        "per_fault": per_fault,
        "cap": round_to(rng.uniform(0.3, 1.2), 3),
    }


def sample_trace_case(
    rng: np.random.Generator, quick: bool = False
) -> Dict[str, Any]:
    """A case for the replay-vs-oracle trace-replay pair."""
    return {
        "seed": int(rng.integers(0, 2**31)),
        "mix": sample_mix_names(rng, 1, 1)[0],
        "instructions_per_core": int(
            rng.integers(400, 1201 if quick else 2801)
        ),
        "upgraded_fraction": sample_upgraded_fraction(rng),
        "organization": sample_organization_ref(rng, require_arcc=True),
    }


def sample_screen_case(
    rng: np.random.Generator, quick: bool = False
) -> Dict[str, Any]:
    """A case for the uncorrectable-screen-vs-exact-footprints pair."""
    device_lane_only = bool(rng.random() < 0.3)
    return {
        "seed": int(rng.integers(0, 2**31)),
        "channels": int(rng.integers(128, 513 if quick else 1025)),
        "years": round_to(rng.uniform(2.0, 7.0), 2),
        "rate_multiplier": round_to(rng.uniform(8.0, 24.0), 2),
        "rates": sample_rates(rng, device_lane_only=device_lane_only),
        "device_lane_only": device_lane_only,
        "window_hours": float(
            _choice(rng, (720.0, 8766.0, 61362.0))
        ),
        "devices_per_rank": int(_choice(rng, (18, 36))),
        "ranks": int(rng.integers(1, 4)),
        "banks": int(_choice(rng, (4, 5, 8))),
        "rows": int(2 ** rng.integers(6, 11)),
        "columns": int(2 ** rng.integers(6, 11)),
    }


def sample_measured_case(
    rng: np.random.Generator, quick: bool = False
) -> Dict[str, Any]:
    """A case for the measured-profiles-vs-worst-case-bounds pair."""
    policies = sorted(POLICIES)
    count = int(rng.integers(1, 3))
    picks = sorted(
        int(p) for p in rng.choice(len(policies), size=count, replace=False)
    )
    return {
        "seed": int(rng.integers(0, 2**31)),
        "policies": [policies[i] for i in picks],
        "organization": sample_organization_ref(rng, require_arcc=True),
        "mixes": sample_mix_names(rng, 1, 2),
        "instructions_per_core": int(
            rng.integers(500, 1001 if quick else 2001)
        ),
    }
