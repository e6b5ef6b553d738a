"""Parallel experiment runner.

Every figure/table reproduction and every Monte-Carlo sweep point is
expressed as a declarative :class:`Job` (callable + config + seed).
:func:`run_jobs` fans jobs out across a ``ProcessPoolExecutor`` with
deterministic per-job seeding, and :class:`ResultCache` makes reruns
incremental by keying completed results on a config/code-version hash.

The figure registry lives in :mod:`repro.runner.registry` (imported
lazily by the CLI — it pulls in every experiment module, which in turn
import this package).
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache, code_version
from repro.runner.executor import (
    execute_plan,
    execute_plans,
    job_identity,
    run_jobs,
    run_stages,
)
from repro.runner.job import (
    ExperimentPlan,
    Job,
    JobResult,
    describe_value,
    gather,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ExperimentPlan",
    "Job",
    "JobResult",
    "ResultCache",
    "code_version",
    "describe_value",
    "execute_plan",
    "execute_plans",
    "gather",
    "job_identity",
    "run_jobs",
    "run_stages",
]
