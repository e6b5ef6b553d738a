"""Parallel experiment runner.

Every figure/table reproduction and every Monte-Carlo sweep point is
expressed as a declarative :class:`~repro.runner.job.Job` (callable +
config + seed). :func:`~repro.runner.executor.run_jobs` fans jobs out
across a ``ProcessPoolExecutor`` with deterministic per-job seeding, and
:class:`~repro.runner.cache.ResultCache` makes reruns incremental by
keying completed results on a config/code-version hash. The figure
registry lives in :mod:`repro.runner.registry`. Import each name from
the module that defines it.
"""

import sys

# Resolved on first use (PEP 562) only because ``perfbench/`` imports
# these names from the package, and ``perfbench/`` changes only together
# with the benchmark. ROADMAP item 7's rewrite of ``perfbench/tracer.py``
# moves those imports to the defining modules and deletes both this table
# and the one in ``repro/fleet/__init__.py``.
_LAZY_EXPORTS = {
    "ExperimentPlan": ("repro.runner.job", "ExperimentPlan"),
    "ResultCache": ("repro.runner.cache", "ResultCache"),
    "execute_plans": ("repro.runner.executor", "execute_plans"),
    "job_identity": ("repro.runner.job", "job_identity"),
}

# The parent package is always imported before its subpackages.
__getattr__ = sys.modules["repro"].lazy_exports(__name__, _LAZY_EXPORTS)
