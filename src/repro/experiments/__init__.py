"""One plan builder per paper table and figure.

Every module exposes a ``plan_*`` builder that expresses its
reproduction as declarative :class:`repro.runner.Job` lists, plus a
small result object with a ``to_table()`` method that prints the same
rows/series the paper reports. ``repro run`` fans every registered
plan's jobs out across one process pool at the registry's scales
(:mod:`repro.runner.registry`); library callers run one plan at any
scale with ``execute_plan(plan_fig7_1(...), max_workers=..., cache=...)``,
the way the harness under ``benchmarks/`` and the examples do.
"""

from repro.experiments.fig3_1 import Fig31Result, plan_fig3_1
from repro.experiments.fig6_1 import Fig61Result, plan_fig6_1
from repro.experiments.fig7_1 import Fig71Result, plan_fig7_1
from repro.experiments.fig7_2_7_3 import FaultOverheadResult, plan_fig7_2_7_3
from repro.experiments.fig7_4_7_5 import (
    LifetimeOverheadResult,
    plan_fig7_4_7_5,
    plan_fig7_4_7_5_measured,
)
from repro.experiments.fig7_6 import Fig76Result, plan_fig7_6
from repro.experiments.sensitivity import (
    MeasuredFractionSweep,
    plan_sweep_upgraded_fraction_measured,
)
from repro.experiments.tables import (
    render_table_7_1,
    render_table_7_2,
    render_table_7_3,
    render_table_7_4,
)

__all__ = [
    "FaultOverheadResult",
    "Fig31Result",
    "Fig61Result",
    "Fig71Result",
    "Fig76Result",
    "LifetimeOverheadResult",
    "MeasuredFractionSweep",
    "plan_fig3_1",
    "plan_fig6_1",
    "plan_fig7_1",
    "plan_fig7_2_7_3",
    "plan_fig7_4_7_5",
    "plan_fig7_4_7_5_measured",
    "plan_fig7_6",
    "plan_sweep_upgraded_fraction_measured",
    "render_table_7_1",
    "render_table_7_2",
    "render_table_7_3",
    "render_table_7_4",
]
