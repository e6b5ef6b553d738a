"""The benchmark's workloads, with every input pinned.

Each workload's scale is written out here instead of being read from the
registry's defaults, so a later change to those defaults cannot silently
change what the benchmark measures. The workload seed goes to the
``seed=`` of every plan builder and to the example study's fleet seed,
except the fuzz campaign's: which oracles and cases a campaign samples,
and so its cost, depends on its seed, so it stays at 0.

* ``run-cold`` — all 13 registry figures at the full scale of the
  registry defaults when the benchmark was written, through
  ``execute_plans`` into an empty private ``ResultCache``: the headline
  ``repro run``. Every compute layer does real work; the cache only
  writes.
* ``run-warm`` — the same plans against a cache an untimed ``run-cold``
  pass filled, so every job is a hit: the resume path of CI and
  ``repro study``. Compute layers are skipped; plan build, cache keying
  and assembly remain.
* ``measured-trace`` — the measured overhead profiles of ARCC, SCCDCD
  and LOT-ECC on the ARCC organization, all 12 mixes at 400k
  instructions per core, cache off. Trace materialization and replay run
  at ten times the registry's measurement scale while the runner, fleet
  and Monte-Carlo layers do almost nothing. Not in ``BENCHMARK.json``:
  its runs are as long as ``run-cold``'s, and a third workload would
  shorten every measured window (``run-cold`` replays traces too).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro.config import ARCC_MEMORY_CONFIG
from repro.fleet import expand_study, load_study_file, plan_measured_profiles
from repro.fleet.measured import profiles_to_table
from repro.runner import ExperimentPlan
from repro.runner.registry import FIGURES
from repro.workloads.spec import ALL_MIXES

#: A copy of ``examples/scenarios/scale_study.toml``, so edits to the
#: example cannot change the workload.
STUDY_PATH = Path(__file__).with_name("scale_study.toml")

TRACE_SCALE = {"mixes": ALL_MIXES, "instructions_per_core": 2_000_000}

#: Keyword arguments of each registry figure's plan builder; ``seed``
#: is the workload seed unless given here. ``study`` is built from
#: :data:`STUDY_PATH` instead.
FIGURE_INPUTS: Dict[str, Dict[str, Any]] = {
    "tables": {},
    "fig3.1": {"channels": 2000},
    "fig6.1": {"monte_carlo_channels": 20_000},
    "fig7.1": TRACE_SCALE,
    "fig7.2": TRACE_SCALE,
    "sensitivity": TRACE_SCALE,
    "fig7.4": {"channels": 2000},
    "fig7.6": {"channels": 2000},
    "fleet": {"scenario": "mixed-generations", "channels": 100_000},
    "fleet-compare": {"scenario": "mixed-generations", "channels": 100_000},
    "fleet-compare-measured": {
        "scenario": "mixed-generations",
        "channels": 20_000,
        "instructions_per_core": 40_000,
    },
    "study": {},
    "fuzz": {"seed": 0, "count": 40},
}

PlanBuilder = Callable[[], ExperimentPlan]


def _figure_builder(key: str, seed: int) -> PlanBuilder:
    if key == "tables":
        return FIGURES[key].builder
    if key == "study":
        return lambda: expand_study(
            replace(load_study_file(STUDY_PATH), seed=seed)
        )
    builder = FIGURES[key].builder
    return lambda: builder(**{"seed": seed, **FIGURE_INPUTS[key]})


def figure_builders(seed: int) -> List[PlanBuilder]:
    """One plan builder per registry figure, in registry order."""
    return [_figure_builder(key, seed) for key in FIGURE_INPUTS]


def measured_builders(seed: int) -> List[PlanBuilder]:
    """The measured-trace workload's single plan builder."""
    return [
        lambda: plan_measured_profiles(
            policies=("arcc", "sccdcd", "lotecc"),
            organizations=(ARCC_MEMORY_CONFIG,),
            mixes=ALL_MIXES,
            instructions_per_core=400_000,
            seed=seed,
        )
    ]


def render_figure(result: Any) -> str:
    """A figure result as ``repro run`` prints it."""
    return result.to_table() if hasattr(result, "to_table") else str(result)


@dataclass(frozen=True)
class Workload:
    """How to build, run and render one workload."""

    name: str
    builders: Callable[[int], List[PlanBuilder]]
    render: Callable[[Any], str]
    cached: bool  # run through a private ResultCache


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("run-cold", figure_builders, render_figure, True),
        Workload("run-warm", figure_builders, render_figure, True),
        Workload("measured-trace", measured_builders, profiles_to_table, False),
    )
}


def digest(texts: List[str]) -> str:
    """Digest of a run's rendered outputs, in plan order."""
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode())
        hasher.update(b"\0")
    return hasher.hexdigest()[:16]
