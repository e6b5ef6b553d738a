"""Command-line interface: regenerate any paper artifact from the shell.

Subcommands (see ``docs/user-guide.md``)::

    python -m repro run [figure ...] [--jobs J] [--quick]
                        [--cache-dir D] [--no-cache]
    python -m repro fleet [scenario ...] [--scenario-file PATH]
                          [--policies P1,P2,...] [--measured]
                          [--channels N] [--seed S] [--jobs J] [--list]
    python -m repro study FILE [--manifest PATH] [--quick]
                          [--seed S] [--channels N]
                          [--cache-dir D] [--no-cache] [--jobs J]
    python -m repro fuzz [--seed N] [--count K] [--oracles O1,O2,...]
                         [--quick] [--jobs J] [--report-dir D]
                         [--no-shrink] [--replay FILE] [--list]

``run`` is the one front door to the paper's artifacts: it flattens
every selected figure's jobs into one batch, fans them out across
``--jobs`` worker processes, and caches completed jobs under
``--cache-dir`` (``--no-cache`` recomputes) so interrupted or repeated
runs only pay for what changed. Each figure runs at its registry scale
(:mod:`repro.runner.registry`); ``--quick`` switches every figure to
its reduced smoke scale. The figure keys are ``tables`` (Tables
7.1-7.4), ``fig3.1``, ``fig6.1``, ``fig7.1``, ``fig7.2`` (Figures
7.2/7.3), ``sensitivity`` (the measured upgraded-fraction sweep),
``fig7.4`` (Figures 7.4/7.5), ``fig7.6``, ``fleet`` (exposure sweep),
``fleet-compare`` (the policy comparison at default scale),
``fleet-compare-measured`` (the same comparison priced with measured
per-fault weights), ``study`` (the example campaign) and ``fuzz`` (the
standing differential campaign). Other scales — a custom channel count,
upgraded fractions, measured Figures 7.4/7.5 — are library calls on
the ``plan_*`` builders (``docs/user-guide.md``). ``--jobs 1`` and
``--jobs N`` print identical tables — every job owns an explicit RNG
seed.

The trace-simulation artifacts (``fig7.1``, ``fig7.2``,
``sensitivity``) run through :mod:`repro.perf.engine`. The replay
tier is picked automatically: when a C compiler is available, the
compiled kernel of :mod:`repro.perf._kernel` materializes each mix's
trace once per worker and replays every (organization,
upgraded-fraction) point against it; otherwise the ``reference`` tier
runs the per-access ``TraceSimulator`` itself
(``REPRO_KERNEL_DISABLE=1`` forces it). Both tiers are bit-identical —
the tier is recorded in every summary line (engine provenance) and in
the result-cache key, so compiled and fallback runs never share cache
entries. Identical points are simulated once and shared across
figures — both inside one ``repro run`` batch and through the result
cache.

``fleet`` sweeps datacenter-fleet lifetime scenarios (heterogeneous
DIMM generations, harsh environments, burn-in schedules) through the
vectorized :mod:`repro.fleet` engine. ``--list`` describes the
built-ins; ``--scenario-file`` loads a declarative TOML/JSON scenario
(schema: ``docs/scenario-files.md``), including custom
``[organizations.<name>]`` memory-organization tables and
``[populations.spatial]`` spatially-correlated fault models
(multi-row clusters, retention clusters, bank wear — they reshape only
the sub-device fault coordinates, so rank-level results are
bit-identical with and without them); ``--policies
arcc,sccdcd,lotecc`` turns the sweep into a protection-policy
comparison with a TCO-style decision table; ``--measured`` replaces the
worst-case per-fault constants with weights measured by the batched
trace engine against each slice's own organization (the perf -> fleet
bridge of :mod:`repro.fleet.measured`, cache-shared with the trace
figures); ``--channels`` rescales whole fleets, so 10^5-10^6
channel populations are practical; ``--seed`` repoints every derived
RNG stream.

``study`` runs a declarative campaign: a scenario file carrying a
``[study]`` (alias ``[sweep]``) section that declares sweep axes —
measurement instruction scales, fault-rate multipliers, memory
organizations, policy sets, upgraded fractions (schema:
``docs/scenario-files.md``; example:
``examples/scenarios/scale_study.toml``). The whole grid compiles into
one deduplicated job batch (:mod:`repro.fleet.study`), runs through the
cached parallel runner, and lands in ``--manifest`` (default
``study_manifest.json``): every report keyed by axis point, with the
cache key of each underlying job, the code version and the engine
provenance. The manifest is deterministic — ``--jobs 1`` and ``--jobs
4`` serialize bit-identically — so campaigns diff across PRs; and
because every finished job persists to ``--cache-dir`` immediately, a
killed campaign resumes from the last completed point when re-run
(``--quick`` shrinks every axis for smoke runs). The ``study`` figure
key runs the example campaign inside ``repro run``.

``fuzz`` runs a seeded differential campaign (:mod:`repro.fuzz`): it
samples ``--count`` random valid scenarios — each a pure function of
(``--seed``, index) — and checks every registered fast engine against
its exact oracle (``--list`` names the pairs; ``--oracles`` restricts
them). Divergent cases are greedily minimized and written to
``--report-dir`` as self-contained JSON repro files (``--no-shrink``
skips that) which ``--replay FILE`` re-executes; the exit status is 1
while a divergence reproduces and 0 once it is fixed. ``--quick``
shrinks case sizes for smoke campaigns; ``--jobs N`` fans cases out
bit-identically to ``--jobs 1``. See ``docs/fuzzing.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.perf.engine import engine_provenance
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.executor import execute_plans
from repro.util.suggest import unknown_key_message


def _engine_summary() -> str:
    """One provenance line: the tier a run used and why."""
    provenance = engine_provenance()
    return (
        f"engine: {provenance['replay_engine']} "
        f"(kernel: {provenance['replay_kernel']}; "
        f"trace rng: {provenance['trace_rng']})"
    )


def _list_fleet_scenarios() -> None:
    from repro.fleet import policies, scenarios

    for scenario in scenarios.DEFAULT_SCENARIOS.values():
        print(
            f"{scenario.name}: {scenario.total_channels} channels, "
            f"{len(scenario.populations)} slice(s)"
        )
        print(f"    {scenario.description}")
        for pop in scenario.populations:
            phases = (
                "; burn-in: "
                + ", ".join(
                    f"{phase.multiplier:g}x for {phase.duration_years:g}y"
                    for phase in pop.schedule
                )
                if pop.schedule
                else ""
            )
            print(
                f"      {pop.name}: {pop.channels} channels, "
                f"{pop.config.name}, {pop.rate_multiplier:g}x rates, "
                f"{pop.lifespan_years:g}y lifespan{phases}"
            )
    print(f"policies (--policies): {', '.join(policies.POLICY_KEYS)}")


def _cmd_fleet(args: argparse.Namespace) -> None:
    # Deferred import: keep `repro --help` import-light.
    from repro.fleet import policies, report, scenario_file, scenarios

    if args.list:
        _list_fleet_scenarios()
        return

    file_spec = None
    if args.scenario_file:
        try:
            file_spec = scenario_file.load_scenario_file(args.scenario_file)
        except scenario_file.ScenarioFileError as exc:
            raise SystemExit(f"repro fleet: {exc}") from exc

    known = scenarios.DEFAULT_SCENARIOS
    names = args.scenarios
    if not names and file_spec is None:
        names = list(known)
    for name in names:
        if name not in known:
            raise SystemExit(
                "repro fleet: " + unknown_key_message("scenario", name, known)
            )

    # Explicit flags win over file-level defaults; the file's channels
    # and seed apply only to its own scenario, never to built-ins named
    # alongside it.
    default_seed = (
        args.seed if args.seed is not None else report.DEFAULT_FLEET_SEED
    )
    specs = [(known[name], args.channels, default_seed) for name in names]
    if file_spec is not None:
        file_channels = (
            args.channels if args.channels is not None else file_spec.channels
        )
        file_seed = default_seed
        if args.seed is None and file_spec.seed is not None:
            file_seed = file_spec.seed
        specs.append((file_spec.scenario, file_channels, file_seed))

    policy_keys = None
    if args.policies:
        policy_keys = [
            p.strip() for p in args.policies.split(",") if p.strip()
        ]
        if not policy_keys:
            raise SystemExit(
                "repro fleet: --policies needs at least one policy name"
            )
    elif file_spec is not None and file_spec.policies:
        policy_keys = list(file_spec.policies)

    if args.measured and not policy_keys:
        raise SystemExit(
            "repro fleet: --measured requires --policies (measured weights "
            "parameterize the policy comparison)"
        )

    started = time.perf_counter()
    try:
        if policy_keys:
            build = (
                policies.plan_fleet_compare_measured
                if args.measured
                else policies.plan_fleet_compare
            )
            plans = [
                build(
                    scenario=scenario,
                    policies=policy_keys,
                    channels=channels,
                    seed=seed,
                )
                for scenario, channels, seed in specs
            ]
        else:
            plans = [
                report.plan_fleet(scenario=scenario, channels=channels, seed=seed)
                for scenario, channels, seed in specs
            ]
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"repro fleet: {message}") from exc
    # Measurement points share the default runner cache with `repro run`
    # (fig7.1/fig7.2/sensitivity), so one measurement serves every figure
    # across invocations; scenarios on one organization share it in-batch.
    cache = ResultCache() if args.measured else None
    reports = execute_plans(plans, max_workers=args.jobs, cache=cache)
    elapsed = time.perf_counter() - started
    for outcome in reports:
        print(outcome.to_table())
        print()
    total_jobs = sum(len(plan.jobs) for plan in plans)
    total_channels = sum(outcome.total_channels for outcome in reports)
    mode = f"policies {','.join(policy_keys)}" if policy_keys else "exposure"
    if args.measured:
        mode += " (measured weights)"
    print(
        f"[repro fleet] {len(plans)} scenario(s), {total_channels} channels, "
        f"{total_jobs} job(s), {mode}, --jobs {args.jobs}, {elapsed:.1f}s"
    )


def _cmd_study(args: argparse.Namespace) -> None:
    # Deferred import: keep `repro --help` import-light.
    from dataclasses import replace

    from repro.fleet import scenario_file, study

    try:
        campaign = study.load_study_file(study.resolve_study_path(args.study_file))
    except OSError as exc:
        raise SystemExit(f"repro study: {exc}") from exc
    except scenario_file.ScenarioFileError as exc:
        raise SystemExit(f"repro study: {exc}") from exc
    # Explicit flags win over file-level defaults (the `repro fleet`
    # precedence rule).
    overrides: Dict[str, int] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.channels is not None:
        overrides["channels"] = args.channels
    try:
        campaign = replace(campaign, **overrides)
    except ValueError as exc:
        raise SystemExit(f"repro study: {exc}") from exc
    if args.quick:
        campaign = campaign.quick()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    started = time.perf_counter()
    result = study.run_study(
        campaign, jobs=args.jobs, cache=cache, manifest_path=args.manifest
    )
    elapsed = time.perf_counter() - started
    for point in result.points:
        print(f"== {point.point.point_id} ==")
        print(point.report.to_table())
        print()
    print(result.to_table())
    print(
        f"[repro study] {len(result.points)} point(s), "
        f"{result.unique_jobs} unique job(s) "
        f"({result.total_jobs} before dedup), "
        f"{result.executed_jobs} executed, {result.cached_jobs} cached, "
        f"--jobs {args.jobs}, {elapsed:.1f}s "
        f"(cache: {'off' if cache is None else cache.root}; "
        f"manifest: {args.manifest})"
    )
    print(f"[repro study] {_engine_summary()}")


def _cmd_run(args: argparse.Namespace) -> None:
    # Deferred import: the registry pulls in every experiment module.
    from repro.runner.registry import FIGURES, build_plans

    try:
        plans = build_plans(args.figures or None, quick=args.quick)
    except KeyError as exc:
        raise SystemExit(f"repro run: {exc.args[0]}") from exc
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    started = time.perf_counter()
    results = execute_plans(plans, max_workers=args.jobs, cache=cache)
    elapsed = time.perf_counter() - started
    for plan, result in zip(plans, results):
        print(result.to_table() if hasattr(result, "to_table") else result)
        print()
    total_jobs = sum(len(plan.jobs) for plan in plans)
    print(
        f"[repro run] {len(plans)} figure(s), {total_jobs} job(s), "
        f"--jobs {args.jobs}, {elapsed:.1f}s "
        f"(cache: {'off' if cache is None else cache.root})"
    )
    print(f"[repro run] {_engine_summary()}")
    # Nudge discoverability of the full figure list.
    if not args.figures:
        print(f"[repro run] figures: {', '.join(FIGURES)}")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    # Deferred import: the fuzz registry touches every engine module.
    from repro.fuzz import campaign, oracles, shrink

    if args.list:
        for pair in oracles.ORACLE_PAIRS.values():
            print(f"{pair.key:<16} {pair.guarantee:<13} {pair.title}")
            print(f"{'':<16} standing hook: {pair.hook}")
        return 0

    if args.replay:
        try:
            detail = shrink.replay_repro_file(args.replay)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro fuzz: {exc}") from exc
        if detail is None:
            print(f"{args.replay}: no divergence (fixed)")
            return 0
        print(f"{args.replay}: still diverges: {detail}")
        return 1

    keys = None
    if args.oracles:
        keys = [o.strip() for o in args.oracles.split(",") if o.strip()]
    try:
        oracles.resolve_oracles(keys)
    except KeyError as exc:
        raise SystemExit(f"repro fuzz: {exc.args[0]}") from exc

    started = time.perf_counter()
    report = campaign.run_campaign(
        seed=args.seed,
        count=args.count,
        oracles=keys,
        quick=args.quick,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        report_dir=args.report_dir,
    )
    elapsed = time.perf_counter() - started
    print(report.to_table())
    print(
        f"[repro fuzz] {report.count} case(s), "
        f"{len(report.divergences)} divergence(s), "
        f"--jobs {args.jobs}, {elapsed:.1f}s"
    )
    return 0 if report.ok else 1


def _int_at_least(text: str, minimum: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"must be a {kind} integer, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    """Argparse type for counts: an int of at least 1 (else exit 2)."""
    return _int_at_least(text, 1, "positive")


def _seed(text: str) -> int:
    """Argparse type for seeds: an int of at least 0 (else exit 2).

    NumPy's seeding rejects negative seeds, so they fail here, naming
    the flag, instead of as a traceback deep inside a run.
    """
    return _int_at_least(text, 0, "non-negative")


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes (1 = run inline; results are identical)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate ARCC (HPCA 2013) tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fleet", help="fleet-lifetime scenario sweep (vectorized engine)"
    )
    p.add_argument(
        "scenarios",
        nargs="*",
        help="scenario names (default: all built-ins); see --list",
    )
    p.add_argument(
        "--scenario-file",
        default=None,
        metavar="PATH",
        help="load a TOML/JSON scenario file (schema: docs/scenario-files.md)",
    )
    p.add_argument(
        "--policies",
        default=None,
        metavar="P1,P2,...",
        help=(
            "comma-separated protection policies to compare "
            "(arcc, sccdcd, lotecc); omitted = exposure sweep only"
        ),
    )
    p.add_argument(
        "--measured",
        action="store_true",
        help=(
            "measure per-fault policy weights on the trace engine "
            "(per scenario organization, cached) instead of the "
            "worst-case constants; requires --policies"
        ),
    )
    p.add_argument(
        "--channels",
        type=_positive_int,
        default=None,
        help="rescale each fleet to this many total channels",
    )
    p.add_argument(
        "--seed",
        type=_seed,
        default=None,
        help="experiment seed (default: the scenario file's, else 0xF1EE7)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="describe built-in scenarios and policies, then exit",
    )
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "study",
        help="run a declarative [study] campaign from one TOML/JSON file",
    )
    p.add_argument(
        "study_file",
        metavar="FILE",
        help=(
            "scenario file with a [study] (or [sweep]) section "
            "(schema: docs/scenario-files.md)"
        ),
    )
    p.add_argument(
        "--manifest",
        default="study_manifest.json",
        metavar="PATH",
        help=(
            "write the deterministic campaign manifest here "
            "(default: study_manifest.json)"
        ),
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="smoke scale: truncate every axis to two values, cap scales",
    )
    p.add_argument(
        "--seed",
        type=_seed,
        default=None,
        help="override the fleet seed (default: the study file's)",
    )
    p.add_argument(
        "--channels",
        type=_positive_int,
        default=None,
        help="rescale the fleet to this many total channels",
    )
    p.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=(
            "incremental job results; finished jobs persist immediately, "
            "so a killed campaign resumes from the last completed point"
        ),
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every job even if cached (campaigns cannot resume)",
    )
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser(
        "run",
        help="everything (or selected figures) through the parallel runner",
    )
    p.add_argument(
        "figures",
        nargs="*",
        help="figure keys (default: all); e.g. fig6.1 fig7.1",
    )
    p.add_argument("--quick", action="store_true")
    p.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="directory for incremental job results",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every job even if cached",
    )
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "fuzz",
        help="seeded differential fuzzing of every engine vs its oracle",
    )
    p.add_argument(
        "--seed", type=_seed, default=0, help="campaign seed (case i derives "
        "its own seed from it; default 0)"
    )
    p.add_argument(
        "--count",
        type=_positive_int,
        default=100,
        help="number of cases to sample",
    )
    p.add_argument(
        "--oracles",
        default=None,
        metavar="O1,O2,...",
        help="restrict to these oracle pairs (see --list); default: all",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="smaller case sizes for smoke campaigns",
    )
    p.add_argument(
        "--report-dir",
        default=None,
        metavar="DIR",
        help="write minimized divergence repro files here",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergences without minimizing them",
    )
    p.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-execute one repro file instead of running a campaign",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="describe registered oracle pairs, then exit",
    )
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    status = args.func(args)
    return 0 if status is None else int(status)


if __name__ == "__main__":
    sys.exit(main())
