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
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


#: Types whose exact instances describe themselves.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


@cache
def _sorted_field_names(cls: type) -> Tuple[str, ...]:
    """Field names of a dataclass type, sorted (computed once per type)."""
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def describe_value(value: Any) -> Any:
    """Canonical, hashable-by-JSON description of a config value.

    Its sorted-key JSON is what cache keys hash — :func:`encode_value`
    writes that text directly, and this description is its reference —
    so it must be stable across processes and interpreter runs and must
    never let two different values collide:
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


#: Finished JSON text of each object :func:`encode_value` met in one
#: batch, scalars, lists and tuples aside: ``id(obj) -> (obj, text)``.
#: Holding the object keeps its id from being reused while the memo
#: lives.
Fragments = Dict[int, Tuple[Any, str]]

#: ``json.dumps(..., sort_keys=True)`` without building an encoder per call.
_SORTED_JSON = json.JSONEncoder(sort_keys=True)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


#: JSON text of each exact scalar type, spelled as ``json.dumps`` does.
_SCALAR_TEXT: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


@cache
def _dataclass_entries(cls: type) -> Optional[Tuple[Tuple[str, Optional[str]], ...]]:
    """How :func:`encode_value` spells an instance of ``cls``.

    ``None`` unless ``cls`` is a dataclass that :func:`describe_value`
    describes field by field (enums are described by name). Otherwise
    one ``(key, field)`` per key of the description, in sorted-key
    order: ``key`` is the key's ``"name": `` prefix, followed by the
    field's encoding, or the whole ``"__dataclass__"`` entry when
    ``field`` is ``None``.
    """
    if not dataclasses.is_dataclass(cls) or issubclass(cls, enum.Enum):
        return None
    names = _sorted_field_names(cls)
    entries = {name: (f"{encode_basestring_ascii(name)}: ", name) for name in names}
    entries.setdefault(
        "__dataclass__",
        (f'"__dataclass__": {encode_basestring_ascii(cls.__name__)}', None),
    )
    return tuple(entries[key] for key in sorted(entries))


def encode_value(value: Any, fragments: Optional[Fragments] = None) -> str:
    """``json.dumps(describe_value(value), sort_keys=True)``, in one pass.

    Exact JSON scalars, lists and tuples are written directly and
    dataclasses field by field; any other value (enums, mappings,
    callables, scalar subclasses such as ``np.float64``) goes through
    :func:`describe_value`. With a ``fragments`` memo, each such object
    (a dataclass instance, a callable, a mapping) is encoded once and
    its text reused wherever it recurs — sound only while no object in
    the memo changes, so a memo lives for one batch of jobs. Exact
    scalars, lists and tuples are never memoized: ``1``, ``1.0`` and
    ``True`` encode apart.

    Examples
    --------
    >>> from repro.config import ARCC_MEMORY_CONFIG
    >>> value = {"mem": ARCC_MEMORY_CONFIG, "x": (1, 1.0, True)}
    >>> encode_value(value) == json.dumps(describe_value(value), sort_keys=True)
    True
    >>> encode_value([1, 1.0, True, None, float("nan"), "é"])
    '[1, 1.0, true, null, NaN, "\\\\u00e9"]'
    """
    cls = type(value)
    scalar = _SCALAR_TEXT.get(cls)
    if scalar is not None:
        return scalar(value)
    if cls is list or cls is tuple:
        return "[" + ", ".join([encode_value(item, fragments) for item in value]) + "]"
    if fragments is not None:
        known = fragments.get(id(value))
        if known is not None:
            return known[1]
    entries = _dataclass_entries(cls)
    if entries is None:
        text = _SORTED_JSON.encode(describe_value(value))
    else:
        text = "{" + ", ".join([
            key if name is None else key + encode_value(getattr(value, name), fragments)
            for key, name in entries
        ]) + "}"
    if fragments is not None:
        fragments[id(value)] = (value, text)
    return text


def encode_job(job: "Job", fragments: Optional[Fragments] = None) -> str:
    """The identity text of ``job``: its description, name excluded, as
    sorted-key JSON — ``{"config": ..., "fn": ..., "seed": ...}`` —
    byte for byte what ``json.dumps(description, sort_keys=True)``
    writes. ``fragments`` is :func:`encode_value`'s batch memo."""
    config = dict(job.config)
    entries = ", ".join([
        f"{encode_basestring_ascii(key)}: {encode_value(config[key], fragments)}"
        for key in sorted(config)
    ])
    seed = _SCALAR_TEXT.get(type(job.seed), json.dumps)(job.seed)
    return (
        f'{{"config": {{{entries}}}, "fn": {encode_value(job.fn, fragments)}, '
        f'"seed": {seed}}}'
    )


@dataclass(frozen=True)
class Job:
    """One schedulable experiment computation.

    ``fn`` must be an importable module-level callable (pickled by
    reference when shipped to a worker process); ``config`` holds its
    keyword arguments as a sorted tuple so equality is order-insensitive
    (values may themselves be unhashable, e.g. dicts — compare jobs or
    key them via :func:`job_identity`, not ``hash``); ``seed`` (when set) is
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
        """Readable description for logging; keying never builds it.

        Its name-less sorted-key JSON is, byte for byte, the identity
        :func:`encode_job` writes directly.
        """
        return {
            "name": self.name,
            "fn": describe_value(self.fn),
            "seed": self.seed,
            "config": {k: describe_value(v) for k, v in self.config},
        }

    @property
    def identity(self) -> str:
        """:func:`job_identity` of this job, without a batch memo."""
        return job_identity(self)


def job_identity(job: Job, fragments: Optional[Fragments] = None) -> str:
    """Canonical identity of a job's *computation* (name excluded).

    Two jobs with the same callable, configuration and seed compute the
    same value no matter what their display names are, so the executor
    runs one and shares the result — e.g. when ``repro run`` flattens
    Figure 7.1, Figures 7.2/7.3 and the sensitivity sweep into one
    batch, each (mix, organization, fraction) simulation runs once. The
    result cache keys on the same encoding.

    The text is :func:`encode_job`'s, written once per :class:`Job`
    object (a cold cache miss needs it for the lookup, the dedup and
    the store) and kept on the job. A batch passes one ``fragments``
    memo to every job it keys, so a config object shared by many jobs
    (a mix, a memory organization, a scenario) is encoded once per
    batch; the memo dies with the batch. Identities are never shared
    between jobs by value: ``1``, ``1.0`` and ``True`` compare equal
    but encode differently.
    """
    # Kept in the instance dict of the frozen job: a memo, not a field,
    # so it stays out of equality, ``repr`` and ``dataclasses.replace``.
    identity = job.__dict__.get("_identity")
    if identity is None:
        identity = job.__dict__["_identity"] = encode_job(job, fragments)
    return identity


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
    :func:`~repro.runner.executor.execute_plans` runs.

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
