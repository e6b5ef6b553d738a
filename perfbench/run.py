"""Absolute-time benchmark of the figure pipeline.

    python3 perfbench/run.py --workload run-cold --seed 0 --seconds 45 --trace 0

Runs from the root of a checkout. Workloads (``perfbench/workloads.py``):
``run-cold``, ``run-warm`` and ``measured-trace``, each inline in one
process (``max_workers=1``). ``BENCHMARK.json`` lists the first two;
``measured-trace`` runs by name, for changes to the trace layers.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, all measured with tracing off:

* ``cpu_s`` — CPU seconds of one timed run, from plan build to
  assembled, rendered and digested output, counting the process and any
  child it waited for. Set-up, the untimed warm-up run and
  ``run-warm``'s cache fill are excluded. Every run is single-threaded
  and inline, so on an idle host this is its wall time; on a shared host
  wall time also counts the time other tenants hold the CPU (two busy
  loops beside ``measured-trace`` on 2 vCPUs raised its wall time by 41%
  while its CPU time stayed within 5% of an idle host's). Other tenants'
  use of shared caches and cores still slows the CPU in bursts, and
  between bursts runs of several seconds rarely fit. So each run is cut
  at job boundaries into segments, jobs and the work between them, that
  repeat in every run of the workload (``worker.job_marks``), and
  ``cpu_s`` is the sum over segments of each one's fastest CPU time.
  Runs whose segments differ in number are an error. The fastest whole
  run's wall and CPU times are printed above the JSON.
* ``setup_s`` — median over several fresh processes, half started
  before the timed runs and half after, of the CPU seconds of importing
  the package plus engine resolution and kernel load. The first-ever
  kernel compile happens in an untimed warm-up process.
* ``peak_rss_mb`` — peak resident memory of the process that ran only
  this workload.

With ``--trace 1`` the runs alternate between untraced and traced, and
the JSON holds the per-layer metrics of ``perfbench/layers.json`` from
the fastest traced run, whose spans and ``trace.unattributed_s`` add up
to its wall time; ``trace.overhead_s`` is that run's wall time minus the
fastest untraced run's. Spans and set-up parts are timed as the
end-to-end metrics are: spans in wall seconds, set-up in CPU seconds.

Every run's output digest must equal the first run's, the digest pinned
in ``perfbench/expected.json`` for that seed where there is one, and for
``run-warm`` the digest of the cold pass that filled its cache. A run
that raises or whose digest differs is failed; ``run_fail_frac`` is
printed above the JSON. Each run is also appended, with its provenance
(engine tiers, Python, NumPy, cores, host reference loop), to
``.bench_build/perfbench/runs.jsonl``; ``perfbench/compare.py`` compares
two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("run-cold", "run-warm", "measured-trace")

#: Fresh processes timed for ``setup_s``, before and again after the runs.
SETUP_SAMPLES = 4

#: Seconds a run may take after its untimed warm-up set-up.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker(mode: str, env: Dict[str, str], deadline: Optional[float],
            *extra: str) -> Dict[str, Any]:
    timeout = None if deadline is None else max(1.0, deadline - time.time())
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, *extra],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=timeout,
        check=True,
        text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _expected_digest(workload: str, seed: int) -> Optional[str]:
    pinned = json.loads((HERE / "expected.json").read_text())
    key = "run-cold" if workload == "run-warm" else workload
    return pinned.get(str(seed), {}).get(key)


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Run the workload's processes and reduce them to one record."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_KERNEL_CACHE_DIR=str(BUILD / "kernel"),
        TMPDIR=str(BUILD / "tmp"),  # the compiler's scratch files too
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    scratch = tempfile.mkdtemp(dir=BUILD)
    try:
        _worker("setup", env, None)  # compiles the kernel on first use
        deadline = time.time() + DEADLINE_S
        setups = [_worker("setup", env, deadline) for _ in range(SETUP_SAMPLES)]
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--scratch", scratch]
        fill = None
        if args.workload == "run-warm":
            cache_dir = os.path.join(scratch, "cache")
            common += ["--cache-dir", cache_dir]
            fill = _worker("fill", env, deadline, *common)
        out = _worker(
            "measure", env, deadline, *common,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        )
        setups += [_worker("setup", env, deadline)
                   for _ in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runs = [out["warmup"], *out["runs"]]
    if fill is not None:
        runs.insert(0, fill)
    reference = _expected_digest(args.workload, args.seed) or runs[0].get(
        "digest"
    )
    failed = sum(
        "error" in run or run["digest"] != reference for run in runs
    )
    if fill is not None and fill["provenance"] != out["provenance"]:
        failed += 1  # never let a fill from another engine tier count
    timed = [run for run in out["runs"] if "error" not in run]
    untraced = [run for run in timed if not run["traced"]]
    traced = [run for run in timed if run["traced"]]
    if not untraced or (args.trace and not traced):
        raise ValueError("no timed run completed")
    segments = list(zip(*(run["cpu_segments_s"] for run in untraced)))
    if any(len(run["cpu_segments_s"]) != len(segments) for run in untraced):
        raise ValueError("untraced runs cut into different segments")
    if args.trace:
        fastest = min(traced, key=lambda run: run["wall_s"])
        layers = json.loads((HERE / "layers.json").read_text())["per_layer"]
        values = {
            "setup.import_s": statistics.median(s["import_s"] for s in setups),
            "setup.kernel_s": statistics.median(s["kernel_s"] for s in setups),
            "host.calib_s": out["host_calib_s"],
            "trace.overhead_s": fastest["wall_s"] - min(
                run["wall_s"] for run in untraced),
        }
        metrics = {
            spec["name"]: {
                "value": values.get(spec["name"], fastest["layers"].get(
                    spec["name"])),
                "unit": spec["unit"],
            }
            for spec in layers
        }
    else:
        values = {
            "cpu_s": sum(map(min, segments)),
            "setup_s": statistics.median(
                s["import_s"] + s["kernel_s"] for s in setups
            ),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "digest": reference,
        "digests": sorted({run.get("digest") or run["error"] for run in runs}),
        "pinned": _expected_digest(args.workload, args.seed) is not None,
        "walls_s": [run["wall_s"] for run in timed],
        "cpus_s": [run["cpu_s"] for run in timed],
        "host_calib_s": out["host_calib_s"],
        "provenance": out["provenance"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} did not complete: {exc}",
              file=sys.stderr)
        return 1
    with open(BUILD / "runs.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"runs {len(record['walls_s'])}  trace {record['trace']}  "
          f"fastest wall {min(record['walls_s']):.6g} s  "
          f"fastest cpu {min(record['cpus_s']):.6g} s")
    for name, metric in record["metrics"].items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(f"  run_fail_frac {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']})")
    print(f"  digest {record['digest']} "
          f"({'pinned' if record['pinned'] else 'recorded'}; "
          f"seen: {', '.join(record['digests'])})")
    print(f"  provenance {json.dumps(record['provenance'], sort_keys=True)}"
          f"  host_calib_s {record['host_calib_s']:.6g}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
