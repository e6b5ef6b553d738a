"""Job execution: inline, or fanned out over a process pool.

``run_jobs`` is the single entry point. Results are returned in job
order no matter how execution interleaves, every job's randomness comes
from its own seed (a block or fuzz job derives it from the experiment
seed and its index with :func:`repro.util.rng.derive_seed`), a
:class:`ResultCache` short-circuits work that has already been done by
a previous run, and
jobs whose computation is identical (same callable, config and seed —
names aside) are looked up and run once per batch and share the value —
together these make ``--jobs 1`` and ``--jobs N`` produce identical
outputs while never simulating the same point twice.

Jobs that share a ``group`` (the trace jobs of one trace, see
:func:`repro.perf.engine.point_jobs`) run, and are submitted to the pool,
one group after another in order of first appearance; jobs without one
keep their place. A process then needs only its last trace in memory:
inline, each trace is drawn once per batch, and a pool worker that has
moved on to a later group never receives an earlier one.

A plan whose assembly returns a follow-up plan runs in stages
(:func:`run_stages`): each stage is one ``run_jobs`` batch, so second
stages are cached, deduplicated and parallel like first ones, and a warm
rerun of a measured comparison executes no job at all.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runner.cache import ResultCache
from repro.runner.job import (
    ExperimentPlan,
    Fragments,
    Job,
    JobResult,
    gather,
    job_identity,
)


def _call_job(job: Job) -> Tuple[Any, float]:
    """Worker-side shim: run one job and time it."""
    started = time.perf_counter()
    value = job.execute()
    return value, time.perf_counter() - started


def _grouped(jobs: Sequence[Job], pending: List[int]) -> List[int]:
    """``pending`` with each group's jobs moved up to its first member.

    Stable: jobs of one group keep their relative order, and jobs
    without a group keep their place.
    """
    first: Dict[Any, int] = {}
    order = []
    for index in pending:
        group = jobs[index].group
        position = index if group is None else first.setdefault(group, index)
        order.append((position, index))
    return [index for _, index in sorted(order)]


def run_jobs(
    jobs: Sequence[Job],
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[JobResult]:
    """Execute jobs, returning results in input order.

    ``max_workers <= 1`` runs everything inline (no pool, no pickling),
    which is also the reference behaviour parallel runs must reproduce
    bit-for-bit: each job's randomness comes only from its own seed, so
    scheduling cannot leak into results. Every job is keyed once, in one
    pass before anything runs, sharing one fragment memo per batch
    (:func:`~repro.runner.job.job_identity`).
    """
    jobs = list(jobs)
    results: List[Optional[JobResult]] = [None] * len(jobs)

    pending: List[int] = []  # unique computations to run, first index wins
    duplicates: Dict[int, int] = {}  # duplicate index -> representative
    first_by_identity: Dict[str, int] = {}
    fragments: Fragments = {}
    for index, job in enumerate(jobs):
        identity = job_identity(job, fragments)
        representative = first_by_identity.setdefault(identity, index)
        if representative != index:
            duplicates[index] = representative
            continue
        # One cache lookup per unique computation: duplicates share the
        # representative's value, hit or computed.
        if cache is not None:
            hit, value = cache.get(job)
            if hit:
                results[index] = JobResult(job.name, value, cached=True)
                continue
        pending.append(index)
    pending = _grouped(jobs, pending)

    def complete(index: int, value: Any, seconds: float) -> None:
        # Persist each result the moment it exists, not after the whole
        # batch succeeds: if a later job raises (or the process is
        # killed), everything already computed survives in the cache and
        # the rerun resumes from the last finished point.
        results[index] = JobResult(jobs[index].name, value, seconds)
        if cache is not None:
            cache.put(jobs[index], value)

    if max_workers <= 1 or len(pending) <= 1:
        for index in pending:
            value, seconds = _call_job(jobs[index])
            complete(index, value, seconds)
    else:
        workers = min(max_workers, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_call_job, jobs[index]): index
                for index in pending
            }
            for future in as_completed(futures):
                value, seconds = future.result()
                complete(futures[future], value, seconds)

    for index, representative in duplicates.items():
        shared = results[representative]
        assert shared is not None
        results[index] = JobResult(
            jobs[index].name, shared.value, cached=True
        )
    return [result for result in results if result is not None]


def run_stages(
    plan: ExperimentPlan,
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> Tuple[Any, List[JobResult]]:
    """Run ``plan`` and each follow-up it assembles into, to the end.

    Every stage is one :func:`run_jobs` batch with the same cache and
    worker count, so a follow-up's jobs are keyed, deduplicated, cached
    and fanned out like any other's. Returns the final result and every
    stage's job results, in stage order (``cached`` flags included).
    """
    outcome: Any = plan
    results: List[JobResult] = []
    while isinstance(outcome, ExperimentPlan):
        stage = run_jobs(outcome.jobs, max_workers=max_workers, cache=cache)
        results.extend(stage)
        outcome = outcome.assemble([r.value for r in stage])
    return outcome, results


def execute_plans(
    plans: Sequence[ExperimentPlan],
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[Any]:
    """Run several plans through one shared pool; one result per plan.

    All plans' jobs are flattened into a single batch so, e.g., the 12
    trace-simulation mixes of Figure 7.1 and the Monte-Carlo blocks of
    Figure 6.1 fill the same workers instead of serializing per figure.
    Their follow-up plans likewise run together as the next batch.
    """
    return run_stages(gather(plans), max_workers=max_workers, cache=cache)[0]


def execute_plan(
    plan: ExperimentPlan,
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> Any:
    """Run one experiment plan and assemble its figure result."""
    return execute_plans([plan], max_workers=max_workers, cache=cache)[0]
