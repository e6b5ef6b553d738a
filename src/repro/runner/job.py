"""Declarative units of experiment work.

A :class:`Job` is one self-contained computation: a picklable callable, a
frozen keyword configuration, and an explicit RNG seed. Figures and
Monte-Carlo sweeps describe themselves as lists of jobs; the executor
decides whether they run inline or fan out across worker processes, and
the cache decides whether they run at all. Keeping the description inert
(no closures, no live generators) is what makes all three possible.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


#: Types whose exact instances describe themselves.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


@cache
def _sorted_field_names(cls: type) -> Tuple[str, ...]:
    """Field names of a dataclass type, sorted (computed once per type)."""
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def describe_value(value: Any) -> Any:
    """Canonical, hashable-by-JSON description of a config value.

    Used to build cache keys, so it must be stable across processes and
    interpreter runs and must never let two different values collide:
    enums collapse to their names, every dataclass — nested ones too —
    to its type name plus a sorted field mapping (read field by field,
    one walk, no copy), callables to ``module:qualname``, and JSON
    scalars, lists, tuples and mappings describe themselves. Any other
    type raises ``TypeError`` rather than falling back to ``repr``, which
    for an ndarray elides elements with ``...``.
    """
    if type(value) in _JSON_SCALARS:  # exact types: an IntEnum is no int here
        return value
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": cls.__name__,
            **{
                name: describe_value(getattr(value, name))
                for name in _sorted_field_names(cls)
            },
        }
    if isinstance(value, Mapping):
        return {str(describe_value(k)): describe_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [describe_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if callable(value):
        return f"{getattr(value, '__module__', '?')}:{getattr(value, '__qualname__', repr(value))}"
    raise TypeError(
        f"cannot describe a {type(value).__module__}.{type(value).__qualname__} "
        "exactly for a job identity; pass a JSON scalar, list, tuple, "
        "mapping, enum, dataclass or callable"
    )


@dataclass(frozen=True)
class Job:
    """One schedulable experiment computation.

    ``fn`` must be an importable module-level callable (pickled by
    reference when shipped to a worker process); ``config`` holds its
    keyword arguments as a sorted tuple so equality is order-insensitive
    (values may themselves be unhashable, e.g. dicts — compare jobs or
    key them via :meth:`describe`, not ``hash``); ``seed`` (when set) is
    passed as the ``seed`` keyword, giving every job its own
    deterministic RNG stream. ``group`` is a scheduling hint, not part of
    the computation: jobs that share a non-``None`` group (trace jobs of
    one trace) run one after another, and it stays out of
    :meth:`describe`, equality and :func:`job_identity`.

    Examples
    --------
    >>> def double(x):
    ...     return 2 * x
    >>> job = Job.create("double[3]", double, x=3)
    >>> job.execute()
    6
    >>> job.describe()["config"]
    {'x': 3}
    """

    name: str
    fn: Callable[..., Any]
    config: Tuple[Tuple[str, Any], ...] = ()
    seed: Optional[int] = None
    group: Any = field(default=None, compare=False)

    @classmethod
    def create(
        cls,
        name: str,
        fn: Callable[..., Any],
        seed: Optional[int] = None,
        group: Any = None,
        **config: Any,
    ) -> "Job":
        """Build a job from plain keyword arguments."""
        return cls(
            name=name,
            fn=fn,
            config=tuple(sorted(config.items())),
            seed=seed,
            group=group,
        )

    @property
    def kwargs(self) -> Dict[str, Any]:
        """Keyword arguments the callable receives (seed included)."""
        kw = dict(self.config)
        if self.seed is not None:
            kw["seed"] = self.seed
        return kw

    def execute(self) -> Any:
        """Run the job in the current process."""
        return self.fn(**self.kwargs)

    def describe(self) -> Dict[str, Any]:
        """Stable description used for cache keying and logging."""
        return {
            "name": self.name,
            "fn": describe_value(self.fn),
            "seed": self.seed,
            "config": {k: describe_value(v) for k, v in self.config},
        }

    @cached_property
    def identity(self) -> str:
        """:func:`job_identity`, memoized on this job."""
        description = self.describe()
        description.pop("name", None)
        return json.dumps(description, sort_keys=True)


def job_identity(job: Job) -> str:
    """Canonical identity of a job's *computation* (name excluded).

    Two jobs with the same callable, configuration and seed compute the
    same value no matter what their display names are, so the executor
    runs one and shares the result — e.g. when ``repro run`` flattens
    Figure 7.1, Figures 7.2/7.3 and the sensitivity sweep into one
    batch, each (mix, organization, fraction) simulation runs once. The
    result cache keys on the same encoding.

    Computed once per :class:`Job` object (a cold cache miss needs it
    for the lookup, the dedup and the store) and kept on the job, never
    shared between jobs by value: ``1``, ``1.0`` and ``True`` compare
    equal but describe differently.
    """
    return job.identity


@dataclass
class JobResult:
    """Outcome of one job: its value plus scheduling metadata."""

    name: str
    value: Any
    seconds: float = 0.0
    cached: bool = False


def _identity(values: List[Any]) -> List[Any]:
    return values


@dataclass
class ExperimentPlan:
    """A figure/table reproduction as jobs plus an assembly step.

    ``assemble`` receives the job values in job order and builds the
    figure's result object; it runs in the parent process, so it may be a
    closure over the plan's parameters. It may instead return a
    *follow-up* plan: a second stage whose jobs depend on the first
    stage's values (fleet blocks weighted by measured overheads). The
    executor runs a follow-up like any other plan, through the same
    cache and pool, until the result is final.

    Examples
    --------
    >>> def double(x):
    ...     return 2 * x
    >>> plan = ExperimentPlan(
    ...     name="demo",
    ...     jobs=[Job.create(f"double[{x}]", double, x=x) for x in (1, 2)],
    ...     assemble=sum,
    ... )
    >>> plan.assemble([job.execute() for job in plan.jobs])
    6
    """

    name: str
    jobs: List[Job] = field(default_factory=list)
    assemble: Callable[[List[Any]], Any] = _identity


def gather(
    outcomes: Sequence[Any], finish: Callable[[List[Any]], Any] = list
) -> Any:
    """``finish`` over ``outcomes`` once none of them is a plan.

    Final outcomes pass through. If any outcome is an
    :class:`ExperimentPlan`, the result is one plan whose jobs are all of
    theirs, in order, and whose assembly hands each plan its own values
    and gathers again what they return, so follow-ups of follow-ups run
    stage by stage, each stage one batch. ``gather(plans)`` is the batch
    :func:`~repro.runner.execute_plans` runs.

    Examples
    --------
    >>> def double(x):
    ...     return 2 * x
    >>> plan = ExperimentPlan(
    ...     "demo", [Job.create("double[1]", double, x=1)], assemble=sum
    ... )
    >>> batch = gather([plan, "final"])
    >>> batch.assemble([job.execute() for job in batch.jobs])
    [2, 'final']
    >>> gather(["a", "b"], finish="".join)
    'ab'
    """
    plans = [
        (index, outcome)
        for index, outcome in enumerate(outcomes)
        if isinstance(outcome, ExperimentPlan)
    ]
    if not plans:
        return finish(list(outcomes))
    jobs: List[Job] = []
    spans: List[Tuple[int, int]] = []
    for _, plan in plans:
        spans.append((len(jobs), len(jobs) + len(plan.jobs)))
        jobs.extend(plan.jobs)

    def assemble(values: List[Any]) -> Any:
        resolved = list(outcomes)
        for (index, plan), (start, stop) in zip(plans, spans):
            resolved[index] = plan.assemble(values[start:stop])
        return gather(resolved, finish)

    return ExperimentPlan(name="gather", jobs=jobs, assemble=assemble)
