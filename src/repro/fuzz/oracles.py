"""The differential-oracle registry: every fast engine and its oracle.

Each batched/vectorized engine in the repo ships with a slower exact
reference it must agree with. This module puts every such pair behind
one interface — an :class:`OraclePair` knows how to *sample* a valid
random case, *execute* it through both engines and compare, and
enumerate *shrink* candidates for minimization — so the campaign runner
(:mod:`repro.fuzz.campaign`) and the shrinker (:mod:`repro.fuzz.shrink`)
never special-case an engine.

Registered pairs and their guarantees (the docs oracle map in
``docs/architecture.md`` renders this table):

========================  =============================================
``montecarlo``            vectorized block decisions vs the exact
                          per-channel event loops on identical sampled
                          faults — bit-identical outcome counts
``fleet-lifetime``        vectorized year-by-year reductions vs the
                          legacy per-event Python rules on identical
                          histories — capped overhead and the
                          batch<->history round trip exact, faulty
                          fractions to 1e-9 relative
``trace-replay``          ``perf.engine.replay`` on the resolved tier
                          vs ``TraceSimulator.run`` — bit-identical
``trace-kernel``          compiled C replay kernel vs
                          ``TraceSimulator.run``, LOT-ECC checksum
                          accounting off and on — bit-identical
                          (agreement-by-default on compiler-less
                          hosts)
``pair-screen``           coordinate-aware uncorrectable-pair screen vs
                          exact MC codeword footprints — exact, channel
                          for channel on every population
``measured-bounds``       measured overhead profiles vs the worst-case
                          arithmetic — ``validate_bounds`` upper bound
========================  =============================================

Execution returns ``None`` on agreement or a one-line divergence
description; every case is a plain JSON-able dict, so cases travel
through runner jobs, the result cache, and repro files unchanged. A new
engine plugs in by appending an :class:`OraclePair` to
:data:`ORACLE_PAIRS` (see ``docs/fuzzing.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.fig7_4_7_5 import _overhead_series
from repro.faults.lifetime import _fraction_after_events
from repro.faults.types import FaultRates, FaultType
from repro.fleet.engine import (
    faulty_fractions_at,
    overhead_series_by_year,
    sample_fleet,
    uncorrectable_candidate_channels,
)
from repro.fleet.events import FaultEventBatch
from repro.fleet.measured import plan_measured_profiles
from repro.fleet.scenario_file import CONFIG_NAMES, organization_from_mapping
from repro.fleet.scenarios import RatePhase, SubPopulation
from repro.fuzz import sampler
from repro.perf._kernel.loader import kernel_available
from repro.perf.engine import SweepPoint, replay
from repro.perf.simulator import TraceSimulator
from repro.reliability.analytical import ReliabilityParams
from repro.reliability.footprint import footprint_intersects
from repro.reliability.montecarlo import _sample_batch, plan_montecarlo
from repro.runner.executor import execute_plan
from repro.util.rng import make_rng
from repro.util.stats import sequential_sum
from repro.util.suggest import unknown_key_message
from repro.util.units import HOURS_PER_YEAR
from repro.workloads.spec import mix_by_name

def organization_config(ref: Any):
    """Resolve a case's organization: built-in name or custom table."""
    if isinstance(ref, str):
        if ref not in CONFIG_NAMES:
            raise KeyError(
                unknown_key_message("organization", ref, CONFIG_NAMES)
            )
        return CONFIG_NAMES[ref]
    return organization_from_mapping("fuzzed", dict(ref))


def _per_fault_weights(mapping: Dict[str, float]) -> Dict[FaultType, float]:
    return {FaultType[name.upper()]: value for name, value in mapping.items()}


def _halved_int(value: int, floor: int) -> Optional[int]:
    nxt = max(floor, value // 2)
    return nxt if nxt < value else None


def _halved_float(value: float, floor: float) -> Optional[float]:
    nxt = max(floor, value / 2.0)
    return nxt if nxt < value else None


def _with(case: Dict[str, Any], **changes: Any) -> Dict[str, Any]:
    out = dict(case)
    out.update(changes)
    return out


def _numeric_shrinks(
    case: Dict[str, Any],
    int_floors: Sequence[Tuple[str, int]] = (),
    float_floors: Sequence[Tuple[str, float]] = (),
) -> List[Dict[str, Any]]:
    """Single-field halving candidates, in declaration order."""
    out: List[Dict[str, Any]] = []
    for key, floor in int_floors:
        nxt = _halved_int(int(case[key]), floor)
        if nxt is not None:
            out.append(_with(case, **{key: nxt}))
    for key, floor in float_floors:
        nxt = _halved_float(float(case[key]), floor)
        if nxt is not None:
            out.append(_with(case, **{key: nxt}))
    return out


def _org_shrinks(case: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Collapse a custom organization toward the built-in ARCC row."""
    if isinstance(case.get("organization"), str):
        return []
    return [_with(case, organization="arcc")]


# -- montecarlo: vectorized block decisions vs exact event loops --------------


def _reliability_params(case: Dict[str, Any]):
    return ReliabilityParams(
        devices_per_rank=case["devices_per_rank"],
        ranks=case["ranks"],
        banks=case["banks"],
        rows=case["rows"],
        columns=case["columns"],
        scrub_interval_hours=case["scrub_interval_hours"],
        rate_multiplier=case["rate_multiplier"],
        rates=FaultRates(**case["rates"]),
    )


def _execute_montecarlo(case: Dict[str, Any]) -> Optional[str]:
    """The population plan with and without ``exact_pairs``: same sampled
    faults, the segmented verdict pass against the per-channel event
    loops."""
    fast, exact = (
        execute_plan(
            plan_montecarlo(
                _reliability_params(case),
                case["channels"],
                case["years"],
                seed=case["seed"],
                exact_pairs=exact_pairs,
            )
        )
        for exact_pairs in (False, True)
    )
    for field in (
        "sdc_machines_arcc",
        "sdc_machines_sccdcd",
        "due_machines_sccdcd",
        "due_machines_sparing",
    ):
        if getattr(fast, field) != getattr(exact, field):
            return (
                f"{field}: vectorized {getattr(fast, field)} != "
                f"event-loop {getattr(exact, field)}"
            )
    return None


def _shrink_montecarlo(case: Dict[str, Any]) -> List[Dict[str, Any]]:
    return _numeric_shrinks(
        case,
        int_floors=(("channels", 16), ("rows", 16), ("columns", 16)),
        float_floors=(("years", 1.0), ("rate_multiplier", 1.0)),
    )


# -- fleet-lifetime: vectorized reductions vs legacy per-event rules ----------


def _fleet_inputs(case: Dict[str, Any]):
    config = organization_config(case["organization"])
    pop = SubPopulation(
        name="fuzz",
        channels=case["channels"],
        config=config,
        rates=FaultRates(**case["rates"]),
        rate_multiplier=case["rate_multiplier"],
        lifespan_years=float(case["years"]),
        schedule=tuple(
            RatePhase(duration_years=d, multiplier=m)
            for d, m in case["phases"]
        ),
    )
    return config, pop


def _execute_fleet(case: Dict[str, Any]) -> Optional[str]:
    """Batched sampling + vectorized reductions vs the legacy rules.

    Three sub-checks on one sampled batch: the batch<->history
    converters are exact inverses; the faulty-fraction reduction matches
    the legacy union rule to 1e-9 relative (its ``log1p`` segment sum
    rounds differently from the legacy product), at the year horizons
    and at Figure 7.6's mid-step times; the capped-overhead reduction
    equals the legacy accumulation loop exactly, its channels summed in
    the legacy order.
    """
    config, pop = _fleet_inputs(case)
    years = int(case["years"])
    batch = sample_fleet(
        pop.channels,
        float(years),
        rate_multiplier=pop.rate_multiplier,
        config=config,
        rates=pop.rates,
        seed=case["seed"],
        phases=tuple(pop.phases()),
    )
    histories = batch.to_histories()
    if FaultEventBatch.from_histories(histories) != batch:
        return "batch -> histories -> batch round trip is not exact"

    # The year ends, then one of Figure 7.6's 12-per-year mid-step times
    # in each year.
    mid_steps = (np.arange(6, years * 12, 12) + 0.5) / 12 * HOURS_PER_YEAR
    horizons = [
        (f"year {year}", year * HOURS_PER_YEAR) for year in range(1, years + 1)
    ] + [(f"mid-year {year}", t) for year, t in enumerate(mid_steps, 1)]
    fast_frac = faulty_fractions_at(
        batch, [horizon for _, horizon in horizons], config
    ).mean(axis=1)
    for fast, (label, horizon) in zip(fast_frac, horizons):
        legacy = float(
            np.mean(
                [
                    _fraction_after_events(
                        [e for e in events if e.time_hours <= horizon], config
                    )
                    for events in histories
                ]
            )
        )
        if not np.isclose(fast, legacy, rtol=1e-9, atol=1e-12):
            return (
                f"faulty fraction, {label}: vectorized "
                f"{fast!r} != legacy {legacy!r}"
            )

    per_fault = _per_fault_weights(case["per_fault"])
    cap = case["cap"]
    (fast_over,) = overhead_series_by_year(batch, years, [(per_fault, cap)])
    legacy_over = _overhead_series(histories, years, per_fault, cap=cap)
    for year in range(1, years + 1):
        fast_mean = sequential_sum(fast_over[year - 1]) / pop.channels
        if fast_mean != legacy_over[year - 1]:
            return (
                f"capped overhead, year {year}: vectorized {fast_mean!r} "
                f"!= legacy {legacy_over[year - 1]!r}"
            )
    return None


def _shrink_fleet(case: Dict[str, Any]) -> List[Dict[str, Any]]:
    out = _numeric_shrinks(
        case,
        int_floors=(("channels", 8), ("years", 1)),
        float_floors=(("rate_multiplier", 1.0),),
    )
    if case["phases"]:
        out.append(_with(case, phases=case["phases"][:-1]))
    out.extend(_org_shrinks(case))
    return out


# -- trace-replay: perf.engine.replay vs the per-access oracle ----------------


def _mix_result_divergence(
    fast, oracle, fast_name: str, oracle_name: str
) -> Optional[str]:
    """Field-for-field MixResult comparison; ``None`` when bit-identical."""
    for i, (a, b) in enumerate(zip(fast.cores, oracle.cores)):
        if (a.benchmark, a.instructions, a.cycles) != (
            b.benchmark,
            b.instructions,
            b.cycles,
        ):
            return (
                f"core {i}: {fast_name} ({a.benchmark}, {a.instructions}, "
                f"{a.cycles!r}) != {oracle_name} ({b.benchmark}, "
                f"{b.instructions}, {b.cycles!r})"
            )
    for field in ("total_w", "background_w", "dynamic_w", "per_rank_w"):
        if getattr(fast.power, field) != getattr(oracle.power, field):
            return (
                f"power.{field}: {fast_name} "
                f"{getattr(fast.power, field)!r} != {oracle_name} "
                f"{getattr(oracle.power, field)!r}"
            )
    for field in ("llc_miss_rate", "average_memory_latency_ns"):
        if getattr(fast, field) != getattr(oracle, field):
            return (
                f"{field}: {fast_name} {getattr(fast, field)!r} != "
                f"{oracle_name} {getattr(oracle, field)!r}"
            )
    return None


def _trace_args(
    case: Dict[str, Any], lotecc_checksum: bool = False
) -> Tuple[Any, ...]:
    """``replay``'s positional arguments for one trace case."""
    point = SweepPoint(
        config=organization_config(case["organization"]),
        upgraded_fraction=case["upgraded_fraction"],
        lotecc_checksum=lotecc_checksum,
    )
    return (
        mix_by_name(case["mix"]),
        point,
        case["instructions_per_core"],
        case["seed"],
    )


def _execute_trace(case: Dict[str, Any]) -> Optional[str]:
    """``replay`` on the resolved tier vs ``TraceSimulator.run``,
    field-for-field bit-identical on one (mix, organization, fraction)."""
    mix, point, n, seed = args = _trace_args(case)
    fast = replay(*args)
    oracle = TraceSimulator(
        config=point.config,
        upgraded_fraction=point.upgraded_fraction,
        seed=seed,
    ).run(mix, instructions_per_core=n)
    return _mix_result_divergence(fast, oracle, "replay", "oracle")


def _shrink_trace(case: Dict[str, Any]) -> List[Dict[str, Any]]:
    out = _numeric_shrinks(
        case, int_floors=(("instructions_per_core", 200),)
    )
    if case["upgraded_fraction"] not in (0.0, 1.0):
        out.append(_with(case, upgraded_fraction=0.0))
        out.append(_with(case, upgraded_fraction=1.0))
    out.extend(_org_shrinks(case))
    return out


# -- trace-kernel: compiled C replay vs the scalar oracle, checksum on/off ----


def _execute_trace_kernel(case: Dict[str, Any]) -> Optional[str]:
    """Compiled kernel replay vs ``TraceSimulator.run`` on one (mix,
    organization, fraction) — bit-identical field for field, with
    LOT-ECC checksum accounting off and then on (the mode is swept
    here, not drawn, so case lists are unchanged).

    On hosts without a C compiler (or with ``REPRO_KERNEL_DISABLE``
    set) the pair has nothing to differentiate; it reports agreement
    and the campaign table still lists the case, so the absence is
    visible in the count, not silently skipped. The standing hook
    (``tests/test_kernel_equivalence.py``) skips with the loader's
    reason string in the same situation.
    """
    if not kernel_available():
        return None

    for checksum in (False, True):
        args = _trace_args(case, lotecc_checksum=checksum)
        compiled, reference = (
            replay(*args, engine=engine)
            for engine in ("compiled", "reference")
        )
        divergence = _mix_result_divergence(
            compiled, reference, "compiled", "reference"
        )
        if divergence is not None:
            return f"lotecc_checksum={checksum}: {divergence}"
    return None


# -- pair-screen: rank-level screen vs exact codeword footprints --------------


def _exact_uncorrectable(batch, window_hours: float) -> np.ndarray:
    """Ground truth: a pair with intersecting exact footprints whose
    second member arrives within the window of the first."""
    out = np.zeros(batch.num_channels, dtype=bool)
    for member in np.flatnonzero(batch.per_channel >= 2):
        faults = batch.events_of(int(member))
        for i, earlier in enumerate(faults):
            if out[member]:
                break
            for later in faults[i + 1 :]:
                if (
                    later.time_hours - earlier.time_hours <= window_hours
                    and footprint_intersects(earlier, later)
                ):
                    out[member] = True
                    break
    return out


def _execute_screen(case: Dict[str, Any]) -> Optional[str]:
    """The coordinate-aware screen must agree channel for channel with
    the exact per-fault footprint walk — no misses and no over-flags,
    on every sampled population (``device_lane_only`` only shapes the
    rate mix, not the strength of the check)."""
    params = _reliability_params(_with(case, scrub_interval_hours=4.0))
    batch = _sample_batch(
        params, make_rng(case["seed"]), case["channels"], case["years"]
    )
    window = case["window_hours"]
    screen = uncorrectable_candidate_channels(batch, window)
    exact = _exact_uncorrectable(batch, window)
    missed = np.flatnonzero(exact & ~screen)
    if missed.size:
        return (
            f"screen missed {missed.size} exactly-uncorrectable "
            f"channel(s), first {[int(c) for c in missed[:3]]}"
        )
    extra = np.flatnonzero(screen & ~exact)
    if extra.size:
        return (
            f"screen over-flagged {extra.size} channel(s), "
            f"first {[int(c) for c in extra[:3]]}"
        )
    return None


def _shrink_screen(case: Dict[str, Any]) -> List[Dict[str, Any]]:
    return _numeric_shrinks(
        case,
        int_floors=(("channels", 32),),
        float_floors=(
            ("years", 1.0),
            ("rate_multiplier", 2.0),
            ("window_hours", 24.0),
        ),
    )


# -- measured-bounds: measured profiles vs the worst-case arithmetic ----------


def _execute_measured(case: Dict[str, Any]) -> Optional[str]:
    """Measured per-fault weights must stay within their worst-case
    oracle bounds (``MeasuredOverheadProfile.validate_bounds``)."""
    config = organization_config(case["organization"])
    profiles = execute_plan(
        plan_measured_profiles(
            policies=tuple(case["policies"]),
            organizations=(config,),
            mixes=[mix_by_name(name) for name in case["mixes"]],
            instructions_per_core=case["instructions_per_core"],
            seed=case["seed"],
        )
    )
    for profile in profiles.values():
        try:
            profile.validate_bounds()
        except ValueError as exc:
            return str(exc)
    return None


def _shrink_measured(case: Dict[str, Any]) -> List[Dict[str, Any]]:
    out = _numeric_shrinks(
        case, int_floors=(("instructions_per_core", 500),)
    )
    if len(case["mixes"]) > 1:
        out.append(_with(case, mixes=case["mixes"][:1]))
    if len(case["policies"]) > 1:
        for policy in case["policies"]:
            out.append(_with(case, policies=[policy]))
    out.extend(_org_shrinks(case))
    return out


# -- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class OraclePair:
    """One fast engine and its exact oracle behind the fuzz interface.

    ``sample(rng, quick)`` draws a valid random case (a JSON-able dict);
    ``execute(case)`` runs both engines and returns ``None`` on
    agreement or a one-line divergence description; ``shrinks(case)``
    lists strictly-smaller candidate cases in deterministic order.
    ``guarantee`` is the documented equivalence class (``bit-identical``,
    ``exact`` or ``upper-bound``); ``hook`` names the standing test that
    enforces
    the pair outside fuzz campaigns (the docs oracle map cites both).
    """

    key: str
    title: str
    guarantee: str
    hook: str
    sample: Callable[[np.random.Generator, bool], Dict[str, Any]]
    execute: Callable[[Dict[str, Any]], Optional[str]]
    shrinks: Callable[[Dict[str, Any]], List[Dict[str, Any]]]


#: Every registered fast-engine/oracle pair, in campaign round-robin
#: order. New engines append here; ``docs/fuzzing.md`` documents the
#: contract.
ORACLE_PAIRS: Dict[str, OraclePair] = {
    pair.key: pair
    for pair in (
        OraclePair(
            key="montecarlo",
            title="vectorized MC decisions vs exact event loops",
            guarantee="bit-identical",
            hook="tests/test_montecarlo_vectorized.py",
            sample=sampler.sample_montecarlo_case,
            execute=_execute_montecarlo,
            shrinks=_shrink_montecarlo,
        ),
        OraclePair(
            key="fleet-lifetime",
            title="fleet engine reductions vs legacy per-event rules",
            guarantee="bit-identical",
            hook="tests/test_fleet.py",
            sample=sampler.sample_fleet_case,
            execute=_execute_fleet,
            shrinks=_shrink_fleet,
        ),
        OraclePair(
            key="trace-replay",
            title="perf.engine.replay vs TraceSimulator.run",
            guarantee="bit-identical",
            hook="tests/test_perf_engine.py",
            sample=sampler.sample_trace_case,
            execute=_execute_trace,
            shrinks=_shrink_trace,
        ),
        OraclePair(
            key="trace-kernel",
            title="compiled kernel vs TraceSimulator.run, checksum off and on",
            guarantee="bit-identical",
            hook="tests/test_kernel_equivalence.py",
            sample=sampler.sample_trace_case,
            execute=_execute_trace_kernel,
            shrinks=_shrink_trace,
        ),
        OraclePair(
            key="pair-screen",
            title="coordinate-aware uncorrectable screen vs exact footprints",
            guarantee="exact",
            hook="tests/test_policy_mc_crosscheck.py",
            sample=sampler.sample_screen_case,
            execute=_execute_screen,
            shrinks=_shrink_screen,
        ),
        OraclePair(
            key="measured-bounds",
            title="measured overhead profiles vs worst-case bounds",
            guarantee="upper-bound",
            hook="tests/test_measured.py",
            sample=sampler.sample_measured_case,
            execute=_execute_measured,
            shrinks=_shrink_measured,
        ),
    )
}

def resolve_oracles(
    keys: Optional[Sequence[str]] = None,
) -> Tuple[OraclePair, ...]:
    """Oracle pairs for the requested keys (all of them by default).

    Unknown keys raise ``KeyError`` with the shared did-you-mean
    suggestion message (:func:`repro.util.suggest.unknown_key_message`).

    Examples
    --------
    >>> [pair.key for pair in resolve_oracles(["trace-replay"])]
    ['trace-replay']
    >>> len(resolve_oracles()) == len(ORACLE_PAIRS)
    True
    """
    if not keys:
        return tuple(ORACLE_PAIRS.values())
    out = []
    for key in dict.fromkeys(keys):
        if key not in ORACLE_PAIRS:
            raise KeyError(
                unknown_key_message(
                    "oracle", key, ORACLE_PAIRS, known_label="known oracles"
                )
            )
        out.append(ORACLE_PAIRS[key])
    return tuple(out)
