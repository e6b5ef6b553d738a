"""One plan builder per paper table and figure.

Every module exposes a ``plan_*`` builder that expresses its
reproduction as declarative :class:`repro.runner.job.Job` lists, plus a
small result object with a ``to_table()`` method that prints the same
rows/series the paper reports. ``repro run`` fans every registered
plan's jobs out across one process pool at the registry's scales
(:mod:`repro.runner.registry`); library callers run one plan at any
scale with ``execute_plan(plan_fig7_1(...), max_workers=..., cache=...)``,
the way the harness under ``benchmarks/`` and the examples do.
"""
