"""Follow-up plans: a plan whose assembly returns a second stage.

The measured comparisons (``plan_fleet_compare_measured``, measured
Figures 7.4/7.5 and measured study points) weight their fleet blocks by
what trace replay measured, so their blocks can only be planned once
the measurement is in. Their assembly returns those blocks as a
follow-up plan, and the executor runs it through the same cache and pool
as the first stage: a warm rerun executes no job, ``--jobs 1`` and
``--jobs 2`` agree, and blocks shared between plans of one batch run
once.
"""

import json

import pytest

from repro.experiments.fig7_4_7_5 import plan_fig7_4_7_5_measured
from repro.fleet.policies import plan_fleet_compare_measured
from repro.fleet.study import expand_study, run_study, study_from_mapping
from repro.runner.cache import ResultCache
from repro.runner.executor import execute_plan, execute_plans, run_stages
from repro.runner.job import ExperimentPlan, Job, gather
from repro.workloads.spec import ALL_MIXES


def add(x, y):
    return x + y


def _stage(name, values, assemble):
    return ExperimentPlan(
        name,
        [Job.create(f"{name}[{i}]", add, x=v, y=0) for i, v in enumerate(values)],
        assemble=assemble,
    )


def _two_stage(first):
    """Stage one sums ``first``; stage two adds 100 to that sum."""
    return _stage(
        "first",
        first,
        lambda values: _stage("second", [sum(values) + 100], lambda v: v[0]),
    )


@pytest.fixture
def executions(monkeypatch):
    """Counts ``Job.execute`` calls made in this process."""
    calls = []
    original = Job.execute

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(Job, "execute", counted)
    return calls


class TestGather:
    def test_final_outcomes_finish_at_once(self):
        assert gather([1, 2], finish=sum) == 3
        assert gather([]) == []

    def test_plans_become_one_plan(self):
        batch = gather([_stage("a", [1, 2], sum), "kept", _stage("b", [5], sum)])
        assert isinstance(batch, ExperimentPlan)
        assert [job.name for job in batch.jobs] == ["a[0]", "a[1]", "b[0]"]
        assert batch.assemble([1, 2, 5]) == [3, "kept", 5]

    def test_follow_ups_run_stage_by_stage(self):
        value, results = run_stages(gather([_two_stage([1, 2]), "kept"]))
        assert value == [103, "kept"]
        assert [r.name for r in results] == ["first[0]", "first[1]", "second[0]"]

    def test_execute_plan_resolves_follow_ups(self):
        assert execute_plan(_two_stage([4])) == 104
        assert execute_plans([_two_stage([4]), _stage("c", [1], sum)]) == [
            104,
            1,
        ]

    def test_follow_ups_of_one_batch_share_a_stage(self, executions):
        """Two plans with the same follow-up job compute it once."""
        execute_plans([_two_stage([1, 2]), _two_stage([3])])
        assert executions.count("second[0]") == 1

    def test_follow_up_jobs_are_cached(self, tmp_path, executions):
        cache = ResultCache(tmp_path / "cache")
        assert execute_plan(_two_stage([1, 2]), cache=cache) == 103
        assert len(ResultCache(tmp_path / "cache").keys()) == 3
        executions.clear()
        assert execute_plan(_two_stage([1, 2]), cache=cache) == 103
        assert executions == []


# -- the measured plans --------------------------------------------------------

MIXES = ALL_MIXES[:1]
INSTRUCTIONS = 2_000


def _tiny_study():
    return study_from_mapping(
        {
            "name": "s",
            "channels": 400,
            "populations": [
                {
                    "name": "fleet",
                    "channels": 400,
                    "config": "arcc",
                    "lifespan_years": 2.0,
                }
            ],
            "study": {
                "measured": True,
                "mixes": 1,
                "instruction_scales": [1000, 2000],
                "rate_multipliers": [1.0, 2.0],
                "policies": ["arcc", "sccdcd"],
                "upgraded_fractions": [0.0, 0.5],
            },
        }
    )


MEASURED_PLANS = {
    "fleet-compare-measured": lambda: plan_fleet_compare_measured(
        "steady",
        policies=("arcc", "lotecc"),
        channels=300,
        seed=5,
        mixes=MIXES,
        instructions_per_core=INSTRUCTIONS,
    ),
    "fig7.4-measured": lambda: plan_fig7_4_7_5_measured(
        years=2, channels=60, mixes=MIXES, instructions_per_core=INSTRUCTIONS
    ),
    "study": lambda: expand_study(_tiny_study()),
}


def _rendered(result):
    """A result as ``repro run`` prints it, a study's point reports and
    Figure 7.4's series included."""
    points = [_rendered(p.report) for p in getattr(result, "points", ())]
    return result.to_table(), points, getattr(result, "power_overhead", None)


@pytest.mark.parametrize("key", sorted(MEASURED_PLANS))
class TestMeasuredPlans:
    def test_assembly_returns_a_follow_up(self, key):
        plan = MEASURED_PLANS[key]()
        values = [job.execute() for job in plan.jobs]
        follow_up = plan.assemble(values)
        assert isinstance(follow_up, ExperimentPlan)
        assert follow_up.jobs

    def test_warm_rerun_executes_no_job(self, key, tmp_path, executions):
        cache = ResultCache(tmp_path / "cache")
        (cold,) = execute_plans([MEASURED_PLANS[key]()], cache=cache)
        plan = MEASURED_PLANS[key]()
        # Both stages ran: more jobs than the plan itself has.
        assert len(executions) > len(plan.jobs)
        executions.clear()
        (warm,) = execute_plans([plan], cache=cache)
        assert executions == []
        assert _rendered(warm) == _rendered(cold)

    def test_jobs_1_and_2_agree(self, key):
        serial, parallel = (
            execute_plan(MEASURED_PLANS[key](), max_workers=workers)
            for workers in (1, 2)
        )
        assert _rendered(serial) == _rendered(parallel)


def test_same_measured_plan_twice_runs_its_blocks_once(executions):
    build = MEASURED_PLANS["fleet-compare-measured"]
    single = execute_plan(build())
    once = len(executions)
    executions.clear()
    first, second = execute_plans([build(), build()])
    assert len(executions) == once
    assert first.to_table() == second.to_table() == single.to_table()


class TestStudyCounts:
    def test_resumed_study_counts_blocks_as_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_study(_tiny_study(), cache=cache)
        follow_up_jobs = cold.executed_jobs - cold.unique_jobs
        # Four measured fleet points, one comparison block each.
        assert follow_up_jobs == 4
        warm = run_study(_tiny_study(), cache=cache)
        assert warm.executed_jobs == 0
        assert warm.cached_jobs == cold.executed_jobs
        assert "0 executed" in warm.to_table()

    def test_table_and_manifest_count_planned_jobs(self, tmp_path):
        """The ``Jobs`` column, the ``unique job(s)`` line and the
        manifest's cache keys cover the planned jobs only, so follow-up
        blocks leave them as they were."""
        plan = expand_study(_tiny_study())
        result = execute_plan(plan)
        assert result.unique_jobs == len(plan.jobs)
        assert f"{len(plan.jobs)} unique job(s)" in result.to_table()
        cache = ResultCache(tmp_path / "cache")
        manifest = json.loads(
            result.write_manifest(tmp_path / "m.json", cache=cache).read_text()
        )
        planned = {cache.key(job) for job in plan.jobs}
        keys = {k for point in manifest["points"] for k in point["cache_keys"]}
        assert keys == planned
        assert manifest["unique_jobs"] == len(plan.jobs)
        ran = run_study(_tiny_study(), cache=cache)
        assert ran.write_manifest(
            tmp_path / "m2.json", cache=cache
        ).read_bytes() == (tmp_path / "m.json").read_bytes()
