"""Differential fuzz campaigns as ordinary runner plans.

A campaign is ``count`` cases assigned round-robin across the requested
oracle pairs. Case ``i`` is sampled from the seed
``derive_seed(campaign_seed, i)`` — a pure function of (campaign seed,
index), independent of which other cases run — so any case can be
regenerated, replayed, or shrunk in isolation, and the same campaign is
bit-identical between ``--jobs 1`` and ``--jobs N``. A case's job
carries only its pair, the campaign seed, its index and the ``quick``
flag: the job samples its own case and returns it with its verdict, so
planning a campaign draws nothing and a cached case is never sampled.

Cases fan out as :class:`repro.runner.job.Job` s through the standard
executor, so they share the process pool, in-batch dedup, and
:class:`repro.runner.cache.ResultCache` with every other experiment.
Divergences are shrunk in the parent (:mod:`repro.fuzz.shrink`) and
written as replayable repro files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.fuzz.oracles import OraclePair, resolve_oracles
from repro.fuzz.shrink import ShrinkResult, shrink_case, write_repro_file
from repro.runner.cache import ResultCache
from repro.runner.executor import execute_plan
from repro.runner.job import ExperimentPlan, Job
from repro.util.rng import derive_seed, make_rng


def campaign_case(
    pair: OraclePair, seed: int, index: int, quick: bool
) -> Tuple[int, Dict[str, Any]]:
    """Case ``index`` of the campaign of ``seed``, drawn for ``pair``:
    ``(case_seed, case)``."""
    case_seed = derive_seed(seed, index)
    return case_seed, pair.sample(make_rng(case_seed), quick)


def fuzz_case_job(oracle: str, seed: int, index: int, quick: bool) -> Dict[str, Any]:
    """Worker-side shim: sample case ``index`` of the campaign of
    ``seed`` and run it through its pair; a JSON-able verdict that
    carries the case and its seed."""
    (pair,) = resolve_oracles([oracle])
    case_seed, case = campaign_case(pair, seed, index, quick)
    detail = pair.execute(case)
    return {
        "diverged": detail is not None,
        "detail": detail,
        "case_seed": case_seed,
        "case": case,
    }


@dataclass(frozen=True)
class CaseResult:
    """One executed case: where it came from and what it found."""

    index: int
    oracle: str
    case_seed: int
    case: Dict[str, Any]
    diverged: bool
    detail: Optional[str] = None


@dataclass
class CampaignReport:
    """Everything one campaign run produced."""

    seed: int
    count: int
    quick: bool
    oracles: Tuple[str, ...]
    results: List[CaseResult] = field(default_factory=list)
    shrunk: List[ShrinkResult] = field(default_factory=list)
    repro_paths: List[Path] = field(default_factory=list)

    @property
    def divergences(self) -> List[CaseResult]:
        return [r for r in self.results if r.diverged]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_table(self) -> str:
        """Per-oracle case/divergence counts, then any divergence lines."""
        lines = [
            f"fuzz campaign: seed={self.seed} count={self.count}"
            + (" quick" if self.quick else ""),
            f"{'oracle':<16} {'guarantee':<13} {'cases':>5} {'diverged':>8}",
        ]
        pairs = {p.key: p for p in resolve_oracles(self.oracles)}
        for key in self.oracles:
            mine = [r for r in self.results if r.oracle == key]
            bad = sum(r.diverged for r in mine)
            lines.append(
                f"{key:<16} {pairs[key].guarantee:<13} "
                f"{len(mine):>5} {bad:>8}"
            )
        for result in self.divergences:
            lines.append(
                f"DIVERGED case {result.index} [{result.oracle}] "
                f"seed={result.case_seed}: {result.detail}"
            )
        for path in self.repro_paths:
            lines.append(f"repro written: {path}")
        if self.ok:
            lines.append("all cases agree")
        return "\n".join(lines)


def sample_campaign_cases(
    seed: int,
    count: int,
    oracles: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> List[Tuple[int, OraclePair, int, Dict[str, Any]]]:
    """The campaign's (index, pair, case_seed, case) list, in order."""
    pairs = resolve_oracles(oracles)
    out = []
    for index in range(count):
        pair = pairs[index % len(pairs)]
        out.append((index, pair, *campaign_case(pair, seed, index, quick)))
    return out


def plan_campaign(
    seed: int = 0,
    count: int = 40,
    oracles: Optional[Sequence[str]] = None,
    quick: bool = False,
) -> ExperimentPlan:
    """A campaign as a standard runner plan (``repro run fuzz``).

    The jobs sample their own cases (:func:`fuzz_case_job`). The
    assemble step returns the :class:`CampaignReport` (without
    shrinking or repro files — those are :func:`run_campaign`'s job,
    since they need filesystem access in the parent).
    """
    keys = [pair.key for pair in resolve_oracles(oracles)]
    assigned = [keys[index % len(keys)] for index in range(count)]
    jobs = [
        Job.create(
            f"fuzz[{key}][{index}]",
            fuzz_case_job,
            seed=seed,
            oracle=key,
            index=index,
            quick=quick,
        )
        for index, key in enumerate(assigned)
    ]

    def assemble(values: List[Dict[str, Any]]) -> CampaignReport:
        report = CampaignReport(
            seed=seed, count=count, quick=quick, oracles=tuple(keys)
        )
        for index, (key, verdict) in enumerate(zip(assigned, values)):
            report.results.append(
                CaseResult(
                    index=index,
                    oracle=key,
                    case_seed=verdict["case_seed"],
                    case=verdict["case"],
                    diverged=verdict["diverged"],
                    detail=verdict["detail"],
                )
            )
        return report

    return ExperimentPlan(name="fuzz", jobs=jobs, assemble=assemble)


def run_campaign(
    seed: int = 0,
    count: int = 40,
    oracles: Optional[Sequence[str]] = None,
    quick: bool = False,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    shrink: bool = True,
    report_dir: Optional[Union[str, Path]] = None,
) -> CampaignReport:
    """Run a full campaign: execute, then shrink and write repros.

    Divergent cases are minimized in the parent process (the shrinker
    re-executes candidates inline, so any test monkeypatching applies)
    and, when ``report_dir`` is given, written as
    ``repro-<oracle>-<index>.json`` files for ``repro fuzz --replay``.
    """
    plan = plan_campaign(seed, count, oracles, quick)
    report: CampaignReport = execute_plan(
        plan, max_workers=jobs, cache=cache
    )
    if shrink:
        for result in report.divergences:
            shrunk = shrink_case(result.oracle, result.case)
            report.shrunk.append(shrunk)
            if report_dir is not None:
                path = write_repro_file(
                    Path(report_dir)
                    / f"repro-{result.oracle}-{result.index}.json",
                    shrunk,
                    campaign_seed=seed,
                    case_index=result.index,
                )
                report.repro_paths.append(path)
    return report
