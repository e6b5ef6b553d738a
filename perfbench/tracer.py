"""Per-layer spans and counters for the benchmark's traced run.

The spans are recorded from outside the package, around calls into the
public entry points of each layer: the plan builders, ``job_identity``,
``ResultCache.get``/``put``, ``materialize_mix``, ``Job.execute`` (grouped
by the module of the job's callable) and ``ExperimentPlan.assemble``.

Only outermost spans are recorded. A call made while another span is
open belongs to that span: the fleet comparisons that
``fleet-compare-measured`` and the study run inline at assembly time
count as assembly, not as fleet work. Spans therefore never overlap, and
the traced wall time is exactly the sum of the spans plus the time no
span covers (``trace.unattributed_s``).
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List

from repro.perf.engine import resolve_engine, simulate_point_job
from repro.perf.trace import materialize_mix
from repro.runner import ResultCache, executor
from repro.runner.job import Job

#: Span name of ``Job.execute`` by the module of the job's callable.
#: Callables in other modules get no span and show as unattributed.
JOB_SPANS = {
    "repro.core.lotecc_arcc": "core.lotecc_arcc",
    "repro.fleet.policies": "fleet.policies.block",
    "repro.fleet.report": "fleet.report.block",
    "repro.reliability.montecarlo": "reliability.montecarlo.block",
    "repro.experiments.fig3_1": "experiments.blocks",
    "repro.experiments.fig7_4_7_5": "experiments.blocks",
    "repro.fuzz.campaign": "fuzz.case",
}

#: Modelled statistics of a trace point, as ``simulate_point_job``
#: returns them, and the per-layer metric that reports their mean.
SIM_STATS = {
    "llc_miss_rate": "sim.llc_miss_rate",
    "average_memory_latency_ns": "sim.mem_latency_ns",
    "power_w": "sim.power_w",
    "performance": "sim.ipc_sum",
}


class Tracer:
    """Busy time per span, counters, and modelled statistics of one run."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.sim: Dict[str, List[float]] = defaultdict(list)
        self._open = False
        self._batches: Dict[int, Any] = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the body as ``name`` unless another span is open."""
        if self._open:
            yield
            return
        self._open = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.busy[name] += time.perf_counter() - start
            self._open = False

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call timed as ``name``."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def execute(self, job: Job, execute: Callable[[Job], Any]) -> Any:
        """Run ``job`` through the original ``Job.execute`` under a span."""
        if self._open:
            return execute(job)
        if job.fn is simulate_point_job:
            return self._trace_point(job, execute)
        module = getattr(job.fn, "__module__", "")
        name = JOB_SPANS.get(module)
        if name is None:
            return execute(job)
        with self.span(name):
            value = execute(job)
        kwargs = job.kwargs
        self.counts[name + ".jobs"] += 1
        self.counts[name + ".channels"] += kwargs.get("channels", 0)
        self.counts[name + ".channel_years"] += (
            kwargs.get("channels", 0) * kwargs.get("years", 0.0)
        )
        return value

    def _trace_point(self, job: Job, execute: Callable[[Job], Any]) -> Any:
        # Materialize the point's trace first, with the job's own
        # arguments: the job then finds it in the per-process memo, so
        # its own span holds replay alone and no engine code is copied.
        kwargs = job.kwargs
        with self.span("perf.trace.materialize"):
            batch = materialize_mix(
                kwargs["mix"], kwargs["seed"], kwargs["instructions_per_core"]
            )
        if id(batch) not in self._batches:
            self._batches[id(batch)] = batch
            self.counts["perf.trace.batches"] += 1
            self.counts["perf.trace.accesses"] += batch.accesses
            self.counts["perf.trace.bytes"] += sum(
                array.nbytes
                for array in (
                    batch.line_addresses,
                    batch.write_flags,
                    batch.instruction_gaps,
                    batch.core_offsets,
                )
            )
        tier = resolve_engine(kwargs.get("engine", "auto"))
        layer = "perf.kernel" if tier == "compiled" else "perf.engine"
        with self.span(layer + ".replay"):
            value = execute(job)
        self.counts[layer + ".points"] += 1
        self.counts[layer + ".accesses"] += batch.accesses
        for key in SIM_STATS:
            self.sim[key].append(value[key])
        return value

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of one traced run that took ``wall_s``."""
        busy, counts = self.busy, self.counts

        def rate(work: float, seconds: float) -> float:
            return work / seconds if seconds > 0 else 0.0

        gets = counts["runner.cache.gets"]
        out = {
            "runner.registry.plan_s": busy["runner.registry.plan"],
            "runner.executor.identity_s": busy["runner.executor.identity"],
            "runner.cache.get_s": busy["runner.cache.get"],
            "runner.cache.hit_ratio": rate(counts["runner.cache.hits"], gets),
            "runner.cache.put_s": busy["runner.cache.put"],
            "perf.trace.materialize_s": busy["perf.trace.materialize"],
            "perf.trace.batches": counts["perf.trace.batches"],
            "perf.trace.accesses": counts["perf.trace.accesses"],
            "perf.trace.mb": counts["perf.trace.bytes"] / 1e6,
            "core.lotecc_arcc.s": busy["core.lotecc_arcc"],
            "fleet.policies.block_s": busy["fleet.policies.block"],
            "fleet.policies.channels_per_s": rate(
                counts["fleet.policies.block.channels"],
                busy["fleet.policies.block"],
            ),
            "fleet.report.block_s": busy["fleet.report.block"],
            "reliability.montecarlo.block_s": busy[
                "reliability.montecarlo.block"
            ],
            "reliability.montecarlo.channel_years_per_s": rate(
                counts["reliability.montecarlo.block.channel_years"],
                busy["reliability.montecarlo.block"],
            ),
            "experiments.blocks_s": busy["experiments.blocks"],
            "fuzz.case_s": busy["fuzz.case"],
            "fuzz.cases": counts["fuzz.case.jobs"],
            "experiments.assemble_s": busy["experiments.assemble"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(busy.values()),
        }
        for layer in ("perf.kernel", "perf.engine"):
            seconds = busy[layer + ".replay"]
            out[layer + ".replay_s"] = seconds
            out[layer + ".points"] = counts[layer + ".points"]
            out[layer + ".accesses_per_s"] = rate(
                counts[layer + ".accesses"], seconds
            )
        for key, name in SIM_STATS.items():
            values = self.sim[key]
            out[name] = statistics.fmean(values) if values else 0.0
        return out


class TracedCache(ResultCache):
    """A :class:`ResultCache` whose reads and writes are spans."""

    def __init__(self, root: str, tracer: Tracer):
        super().__init__(root)
        self.tracer = tracer

    def get(self, job: Job) -> Any:
        with self.tracer.span("runner.cache.get"):
            hit, value = super().get(job)
        self.tracer.counts["runner.cache.gets"] += 1
        self.tracer.counts["runner.cache.hits"] += hit
        return hit, value

    def put(self, job: Job, value: Any) -> None:
        with self.tracer.span("runner.cache.put"):
            super().put(job, value)


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Route ``Job.execute`` and the executor's ``job_identity`` through
    ``tracer`` for the duration of the block."""
    execute = Job.execute
    identity = executor.job_identity
    Job.execute = lambda job: tracer.execute(job, execute)  # type: ignore[method-assign]
    executor.job_identity = tracer.wrap("runner.executor.identity", identity)
    try:
        yield
    finally:
        Job.execute = execute  # type: ignore[method-assign]
        executor.job_identity = identity
