"""One child process of the benchmark; prints one JSON line.

Modes:

* ``setup`` — import the package, resolve the engine tier and load the
  compiled kernel, timing both. ``run.py`` starts several of these and
  reports the median as ``setup_s``.
* ``fill`` — one untimed ``run-cold`` pass into ``--cache-dir``, so that
  ``run-warm`` starts against a full cache.
* ``measure`` — one untimed warm-up run of the workload, then timed runs
  until ``--seconds`` have passed. With ``--trace 1`` the runs alternate
  between untraced and traced.

Every run starts from cleared per-process memos, as a fresh ``repro run``
would, and its output is rendered and digested inside the timed region.
Runs and set-up are timed both in wall seconds and in CPU seconds
(:func:`cpu_seconds`).
The process holds only its own workload, so its peak resident memory is
the workload's. The package is imported inside functions, so that
``setup`` times its import from scratch.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional

#: A ``measure`` process starts no run that would end after ``--seconds``,
#: unless it has fewer than its minimum number of runs and less than
#: this many times ``--seconds`` have passed.
MAX_SECONDS_FACTOR = 2


def cpu_seconds() -> float:
    """CPU seconds used by this process and by its children that ended.

    Wall time also counts the time the process waits for a CPU that
    others hold; CPU time does not, and the guest kernel of a virtual
    machine leaves the hypervisor's steal time out of it too. Other
    tenants' use of shared caches and cores still slows it. Children
    count so that work moved into a subprocess, such as a compiler,
    still shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@contextlib.contextmanager
def job_marks(marks: List[float]) -> Iterator[None]:
    """Append :func:`cpu_seconds` to ``marks`` before and after each job.

    The marks cut a run into segments, each a job or the work between two
    jobs, that come in the same order in every run of a workload.
    """
    from repro.runner.job import Job

    execute = Job.execute

    def marked(job: Job) -> Any:
        marks.append(cpu_seconds())
        try:
            return execute(job)
        finally:
            marks.append(cpu_seconds())

    Job.execute = marked  # type: ignore[method-assign]
    try:
        yield
    finally:
        Job.execute = execute  # type: ignore[method-assign]


def setup() -> Dict[str, float]:
    """CPU seconds of importing the package and of resolving the engine."""
    start = cpu_seconds()
    import repro.runner.registry  # noqa: F401  (imports every figure's layers)

    imported = cpu_seconds()
    from repro.perf.engine import engine_provenance, resolve_engine

    resolve_engine("auto")
    engine_provenance()
    return {
        "import_s": imported - start,
        "kernel_s": cpu_seconds() - imported,
    }


def provenance() -> Dict[str, Any]:
    """What backs this process: engine tiers, interpreter, NumPy, cores."""
    import numpy

    from repro.perf.engine import engine_provenance

    return {
        **engine_provenance(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def calibrate(repeats: int = 5) -> float:
    """Median CPU time of a fixed reference loop: the host's speed now."""
    import numpy as np

    times = []
    for _ in range(repeats):
        start = cpu_seconds()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        values = np.arange(1 << 18, dtype=np.float64)
        for _ in range(20):
            values = np.sqrt(values + 1.0)
        times.append(cpu_seconds() - start)
    return statistics.median(times)


def _cache_bytes(root: Optional[str]) -> int:
    if root is None or not os.path.isdir(root):
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(root))


def run_once(workload, seed: int, cache_dir: Optional[str], tracer=None):
    """One timed run of ``workload``.

    Returns its wall seconds, the CPU seconds of its segments (one
    segment for a traced run; see :func:`job_marks`), its digest and its
    plans.
    """
    from repro.fleet import clear_measured_memo
    from repro.perf.engine import clear_engine_memos
    from repro.runner import ResultCache, execute_plans
    from tracer import TracedCache, instrumented
    from workloads import digest

    clear_engine_memos()
    clear_measured_memo()
    gc.collect()
    cache = None
    if workload.cached:
        cache = (
            TracedCache(cache_dir, tracer) if tracer else ResultCache(cache_dir)
        )
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    marks: List[float] = []
    hooks = instrumented(tracer) if tracer else job_marks(marks)
    start = time.perf_counter()
    marks.append(cpu_seconds())
    with hooks:
        plans = []
        for build in workload.builders(seed):
            with span("runner.registry.plan"):
                plans.append(build())
        if tracer:
            for plan in plans:
                plan.assemble = tracer.wrap(
                    "experiments.assemble", plan.assemble
                )
        results = execute_plans(plans, max_workers=1, cache=cache)
        with span("experiments.assemble"):
            texts = [workload.render(result) for result in results]
        out = digest(texts)
    wall = time.perf_counter() - start
    marks.append(cpu_seconds())
    return wall, [end - mark for mark, end in zip(marks, marks[1:])], out, plans


def attempt(workload, seed: int, scratch: str, cache_dir: Optional[str],
            traced: bool) -> Dict[str, Any]:
    """Run once and report it; an exception is reported, not raised."""
    from repro.runner import job_identity
    from tracer import Tracer

    own_cache = workload.cached and cache_dir is None
    if own_cache:
        cache_dir = tempfile.mkdtemp(dir=scratch)
    tracer = Tracer() if traced else None
    try:
        before = _cache_bytes(cache_dir)
        wall, segments, out, plans = run_once(
            workload, seed, cache_dir, tracer
        )
        record: Dict[str, Any] = {
            "wall_s": wall,
            "cpu_s": sum(segments),
            "cpu_segments_s": segments,
            "digest": out,
        }
        if tracer:
            jobs = [job for plan in plans for job in plan.jobs]
            layers = tracer.metrics(wall)
            layers["runner.cache.put_mb"] = (
                _cache_bytes(cache_dir) - before
            ) / 1e6
            layers["runner.executor.dedup_ratio"] = (
                len({job_identity(job) for job in jobs}) / len(jobs)
                if jobs
                else 0.0
            )
            if layers["trace.unattributed_s"] < 0:
                raise RuntimeError("spans overlap: they cover more than "
                                   "the traced wall time")
            record["layers"] = layers
    except Exception as exc:  # a failed run counts; the others go on
        record = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        if own_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
    record["traced"] = traced
    return record


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed, scratch, cache_dir = args.seed, args.scratch, args.cache_dir
    calib = calibrate()
    warmup = attempt(workload, seed, scratch, cache_dir, traced=False)
    # Taken after one run, so it does not depend on how many runs fit.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs: List[Dict[str, Any]] = []
    min_runs = 4 if args.trace else 3
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        per_run = elapsed / len(runs) if runs else 0.0
        if elapsed + per_run > args.seconds and (
            len(runs) >= min_runs
            or elapsed >= MAX_SECONDS_FACTOR * args.seconds
        ):
            break
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(attempt(workload, seed, scratch, cache_dir, traced))
    return {
        "warmup": warmup,
        "runs": runs,
        "host_calib_s": calib,
        "peak_rss_mb": peak_rss_mb,
        "provenance": provenance(),
    }


def fill(args: argparse.Namespace) -> Dict[str, Any]:
    from workloads import WORKLOADS

    record = attempt(
        WORKLOADS["run-cold"], args.seed, args.scratch, args.cache_dir,
        traced=False,
    )
    record["provenance"] = provenance()
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "fill", "measure"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch")
    parser.add_argument("--cache-dir")
    args = parser.parse_args()
    if args.mode == "setup":
        out = setup()
    elif args.mode == "fill":
        out = fill(args)
    else:
        out = measure(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
