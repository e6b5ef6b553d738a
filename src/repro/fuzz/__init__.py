"""Seeded differential fuzzing of every fast engine against its oracle.

``repro fuzz --seed N --count K`` samples K valid random scenarios
(:mod:`repro.fuzz.sampler`), runs each through one registered
fast-engine/exact-oracle pair (:mod:`repro.fuzz.oracles`) as ordinary
runner jobs (:mod:`repro.fuzz.campaign`), and greedily minimizes any
divergence into a replayable repro file (:mod:`repro.fuzz.shrink`).
See ``docs/fuzzing.md``.
"""

from repro.fuzz.campaign import (
    CampaignReport,
    CaseResult,
    plan_campaign,
    run_campaign,
)
from repro.fuzz.oracles import (
    ORACLE_PAIRS,
    OraclePair,
    resolve_oracles,
)
from repro.fuzz.shrink import (
    SHRINK_PASS_BUDGET,
    ShrinkResult,
    load_repro_file,
    replay_repro_file,
    shrink_case,
    write_repro_file,
)

__all__ = [
    "CampaignReport",
    "CaseResult",
    "ORACLE_PAIRS",
    "OraclePair",
    "SHRINK_PASS_BUDGET",
    "ShrinkResult",
    "load_repro_file",
    "plan_campaign",
    "replay_repro_file",
    "resolve_oracles",
    "run_campaign",
    "shrink_case",
    "write_repro_file",
]
