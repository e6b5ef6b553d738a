"""Command-line interface: regenerate any paper artifact from the shell.

Subcommands (one per reproducible artifact; see ``docs/user-guide.md``)::

    python -m repro tables                  # Tables 7.1-7.4
    python -m repro fig3.1 [--channels N] [--years Y] [--jobs J]
    python -m repro fig6.1 [--mc-channels N] [--jobs J]
    python -m repro fig7.1 [--instructions N] [--mixes K]
                          [--engine E] [--jobs J]
    python -m repro fig7.2 [--instructions N] [--mixes K]
                          [--engine E] [--jobs J]
    python -m repro sensitivity [--instructions N] [--mixes K]
                          [--fractions F1,F2,...] [--engine E] [--jobs J]
    python -m repro fig7.4 [--channels N] [--measured] [--jobs J]
    python -m repro fig7.6 [--channels N] [--jobs J]
    python -m repro fleet [scenario ...] [--scenario-file PATH]
                          [--policies P1,P2,...] [--measured]
                          [--channels N] [--seed S] [--jobs J] [--list]
    python -m repro study FILE [--manifest PATH] [--quick]
                          [--seed S] [--channels N] [--engine E]
                          [--cache-dir D] [--no-cache] [--jobs J]
    python -m repro run [figure ...] [--jobs J] [--quick]
                        [--engine E] [--cache-dir D] [--no-cache]
    python -m repro fuzz [--seed N] [--count K] [--oracles O1,O2,...]
                         [--quick] [--jobs J] [--report-dir D]
                         [--no-shrink] [--replay FILE] [--list]

``run`` is the parallel front door: it flattens every selected figure's
jobs into one batch, fans them out across ``--jobs`` worker processes,
and caches completed jobs under ``--cache-dir`` (``--no-cache``
recomputes) so interrupted or repeated runs only pay for what changed.
``--quick`` switches every figure to its reduced smoke scale. Figure
keys include every table/figure above plus ``fleet`` (exposure sweep),
``fleet-compare`` (the policy comparison at default scale) and
``fleet-compare-measured`` (the same comparison priced with measured
per-fault weights). ``--jobs 1`` and ``--jobs N`` print identical
tables — every job owns an explicit RNG seed.

The trace-simulation artifacts (``fig7.1``, ``fig7.2``,
``sensitivity``) run on the batched engine of :mod:`repro.perf.engine`:
each mix's trace is materialized once per worker and every
(organization, upgraded-fraction) point replays it, bit-identical to
the legacy per-access simulator at a fraction of the cost. ``--engine``
picks the replay tier: ``auto`` (default) uses the compiled C kernel
of :mod:`repro.perf._kernel` when a C compiler is available and the
vectorized Python replay otherwise; ``compiled`` demands the kernel
(and fails loudly rather than silently falling back); ``python``
forces the pure-Python replay. All tiers are bit-identical — the
choice is recorded in every summary line (engine provenance) and in
the result-cache key, so compiled and fallback runs never share cache
entries.
``sensitivity`` sweeps the *measured* upgraded-fraction response
(``--fractions``) next to the worst-case estimates; ``fig7.4
--measured`` feeds Figures 7.4/7.5 with freshly measured Figure 7.2/7.3
overheads instead of the recorded constants. Identical points are
simulated once and shared across figures — both inside one ``repro
run`` batch and through the result cache.

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
bridge of :mod:`repro.fleet.measured`, cache-shared with ``fig7.4
--measured``); ``--channels`` rescales whole fleets, so 10^5-10^6
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
from typing import List, Optional

from repro.experiments import (
    render_table_7_1,
    render_table_7_2,
    render_table_7_3,
    render_table_7_4,
    run_fig3_1,
    run_fig6_1,
    run_fig7_1,
    run_fig7_2_7_3,
    run_fig7_4_7_5,
    run_fig7_6,
    run_sweep_upgraded_fraction_measured,
)
from repro.perf.engine import ENGINE_TIERS, engine_provenance, resolve_engine
from repro.runner import DEFAULT_CACHE_DIR, ResultCache, execute_plans
from repro.workloads.spec import ALL_MIXES


def _resolve_cli_engine(engine: str, prog: str) -> str:
    """Resolve ``--engine`` up front so failures are loud and early."""
    try:
        return resolve_engine(engine)
    except (RuntimeError, ValueError) as exc:
        raise SystemExit(f"{prog}: {exc}") from exc


def _engine_summary(resolved: str) -> str:
    """One provenance line: the tier a run used and why."""
    provenance = engine_provenance()
    return (
        f"engine: {resolved} (kernel: {provenance['replay_kernel']}; "
        f"trace rng: {provenance['trace_rng']})"
    )


def _cmd_tables(_: argparse.Namespace) -> None:
    for render in (
        render_table_7_1,
        render_table_7_2,
        render_table_7_3,
        render_table_7_4,
    ):
        print(render())
        print()


def _cmd_fig3_1(args: argparse.Namespace) -> None:
    print(
        run_fig3_1(
            years=args.years, channels=args.channels, jobs=args.jobs
        ).to_table()
    )


def _cmd_fig6_1(args: argparse.Namespace) -> None:
    print(
        run_fig6_1(
            monte_carlo_channels=args.mc_channels, jobs=args.jobs
        ).to_table()
    )


def _cmd_fig7_1(args: argparse.Namespace) -> None:
    engine = _resolve_cli_engine(args.engine, "repro fig7.1")
    print(
        run_fig7_1(
            mixes=ALL_MIXES[: args.mixes],
            instructions_per_core=args.instructions,
            jobs=args.jobs,
            engine=engine,
        ).to_table()
    )
    print(f"[repro fig7.1] {_engine_summary(engine)}")


def _cmd_fig7_2(args: argparse.Namespace) -> None:
    engine = _resolve_cli_engine(args.engine, "repro fig7.2")
    print(
        run_fig7_2_7_3(
            mixes=ALL_MIXES[: args.mixes],
            instructions_per_core=args.instructions,
            jobs=args.jobs,
            engine=engine,
        ).to_table()
    )
    print(f"[repro fig7.2] {_engine_summary(engine)}")


def _cmd_sensitivity(args: argparse.Namespace) -> None:
    engine = _resolve_cli_engine(args.engine, "repro sensitivity")
    kwargs = {}
    if args.fractions:
        try:
            kwargs["fractions"] = tuple(
                float(f) for f in args.fractions.split(",") if f.strip()
            )
        except ValueError as exc:
            raise SystemExit(
                f"repro sensitivity: --fractions must be a comma-separated "
                f"list of numbers ({exc})"
            ) from exc
    try:
        sweep = run_sweep_upgraded_fraction_measured(
            mixes=ALL_MIXES[: args.mixes],
            instructions_per_core=args.instructions,
            jobs=args.jobs,
            engine=engine,
            **kwargs,
        )
    except ValueError as exc:
        raise SystemExit(f"repro sensitivity: {exc}") from exc
    print(sweep.to_table())
    print(f"[repro sensitivity] {_engine_summary(engine)}")


def _cmd_fig7_4(args: argparse.Namespace) -> None:
    # --measured runs the fig7.2/7.3 trace sweep first; route it through
    # the default runner cache so `repro fleet --measured` (and reruns)
    # reuse the same per-(mix, point) entries.
    cache = ResultCache() if args.measured else None
    print(
        run_fig7_4_7_5(
            channels=args.channels,
            jobs=args.jobs,
            measured=args.measured,
            cache=cache,
        ).to_table()
    )


def _cmd_fig7_6(args: argparse.Namespace) -> None:
    print(run_fig7_6(channels=args.channels, jobs=args.jobs).to_table())


def _list_fleet_scenarios() -> None:
    from repro.fleet import DEFAULT_SCENARIOS, POLICY_KEYS

    for scenario in DEFAULT_SCENARIOS.values():
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
    print(f"policies (--policies): {', '.join(POLICY_KEYS)}")


def _cmd_fleet(args: argparse.Namespace) -> None:
    # Deferred import: keep `repro tables` import-light.
    from repro.fleet import (
        DEFAULT_FLEET_SEED,
        DEFAULT_SCENARIOS,
        ScenarioFileError,
        load_scenario_file,
        plan_fleet,
        plan_fleet_compare,
        resolve_policies,
    )
    from repro.util.suggest import unknown_key_message

    if args.list:
        _list_fleet_scenarios()
        return

    file_spec = None
    if args.scenario_file:
        try:
            file_spec = load_scenario_file(args.scenario_file)
        except ScenarioFileError as exc:
            raise SystemExit(f"repro fleet: {exc}") from exc

    names = args.scenarios
    if not names and file_spec is None:
        names = list(DEFAULT_SCENARIOS)
    for name in names:
        if name not in DEFAULT_SCENARIOS:
            raise SystemExit(
                "repro fleet: "
                + unknown_key_message("scenario", name, DEFAULT_SCENARIOS)
            )

    # Explicit flags win over file-level defaults; the file's channels
    # and seed apply only to its own scenario, never to built-ins named
    # alongside it.
    default_seed = args.seed if args.seed is not None else DEFAULT_FLEET_SEED
    specs = [
        (DEFAULT_SCENARIOS[name], args.channels, default_seed)
        for name in names
    ]
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
    if policy_keys:
        try:
            resolve_policies(policy_keys)
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise SystemExit(f"repro fleet: {message}") from exc
        profiles_by_spec = [None] * len(specs)
        if args.measured:
            # The measurement points share the default runner cache with
            # fig7.1/fig7.2/sensitivity and `fig7.4 --measured`, so one
            # measurement serves every figure across invocations.
            from repro.fleet import measure_scenario_profiles

            cache = ResultCache()
            try:
                profiles_by_spec = [
                    measure_scenario_profiles(
                        scenario,
                        policies=policy_keys,
                        jobs=args.jobs,
                        cache=cache,
                    )
                    for scenario, _, _ in specs
                ]
            except ValueError as exc:
                raise SystemExit(f"repro fleet: {exc}") from exc
        plans = [
            plan_fleet_compare(
                scenario=scenario,
                policies=policy_keys,
                channels=channels,
                seed=seed,
                profiles=profiles,
            )
            for (scenario, channels, seed), profiles in zip(
                specs, profiles_by_spec
            )
        ]
    else:
        plans = [
            plan_fleet(scenario=scenario, channels=channels, seed=seed)
            for scenario, channels, seed in specs
        ]
    reports = execute_plans(plans, max_workers=args.jobs)
    elapsed = time.perf_counter() - started
    for report in reports:
        print(report.to_table())
        print()
    total_jobs = sum(len(plan.jobs) for plan in plans)
    total_channels = sum(report.total_channels for report in reports)
    mode = f"policies {','.join(policy_keys)}" if policy_keys else "exposure"
    if args.measured:
        mode += " (measured weights)"
    print(
        f"[repro fleet] {len(plans)} scenario(s), {total_channels} channels, "
        f"{total_jobs} job(s), {mode}, --jobs {args.jobs}, {elapsed:.1f}s"
    )


def _cmd_study(args: argparse.Namespace) -> None:
    # Deferred import: keep `repro tables` import-light.
    from dataclasses import replace

    from repro.fleet import ScenarioFileError, run_study
    from repro.fleet.study import load_study_file, resolve_study_path

    engine = _resolve_cli_engine(args.engine, "repro study")
    try:
        study = load_study_file(resolve_study_path(args.study_file))
    except OSError as exc:
        raise SystemExit(f"repro study: {exc}") from exc
    except ScenarioFileError as exc:
        raise SystemExit(f"repro study: {exc}") from exc
    # Explicit flags win over file-level defaults (the `repro fleet`
    # precedence rule).
    overrides = {"engine": engine}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.channels is not None:
        overrides["channels"] = args.channels
    try:
        study = replace(study, **overrides)
    except ValueError as exc:
        raise SystemExit(f"repro study: {exc}") from exc
    if args.quick:
        study = study.quick()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    started = time.perf_counter()
    result = run_study(
        study, jobs=args.jobs, cache=cache, manifest_path=args.manifest
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
    print(f"[repro study] {_engine_summary(engine)}")


def _cmd_run(args: argparse.Namespace) -> None:
    # Deferred import: the registry pulls in every experiment module.
    from repro.runner.registry import FIGURES, build_plans

    engine = (
        _resolve_cli_engine(args.engine, "repro run")
        if args.engine != "auto"
        else None
    )
    try:
        plans = build_plans(args.figures or None, quick=args.quick,
                            engine=engine)
    except KeyError as exc:
        raise SystemExit(f"repro run: {exc.args[0]}") from exc
    except RuntimeError as exc:
        raise SystemExit(f"repro run: {exc}") from exc
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
    print(
        f"[repro run] {_engine_summary(engine or resolve_engine('auto'))}"
    )
    # Nudge discoverability of the full figure list.
    if not args.figures:
        print(f"[repro run] figures: {', '.join(FIGURES)}")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    # Deferred import: the fuzz registry touches every engine module.
    from repro.fuzz import (
        ORACLE_PAIRS,
        replay_repro_file,
        resolve_oracles,
        run_campaign,
    )

    if args.list:
        for pair in ORACLE_PAIRS.values():
            print(f"{pair.key:<16} {pair.guarantee:<13} {pair.title}")
            print(f"{'':<16} standing hook: {pair.hook}")
        return 0

    if args.replay:
        try:
            detail = replay_repro_file(args.replay)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro fuzz: {exc}") from exc
        if detail is None:
            print(f"{args.replay}: no divergence (fixed)")
            return 0
        print(f"{args.replay}: still diverges: {detail}")
        return 1

    oracles = None
    if args.oracles:
        oracles = [o.strip() for o in args.oracles.split(",") if o.strip()]
    try:
        resolve_oracles(oracles)
    except KeyError as exc:
        raise SystemExit(f"repro fuzz: {exc.args[0]}") from exc

    started = time.perf_counter()
    report = run_campaign(
        seed=args.seed,
        count=args.count,
        oracles=oracles,
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


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = run inline; results are identical)",
    )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINE_TIERS,
        default="auto",
        help=(
            "trace replay tier: auto = compiled C kernel when a compiler "
            "is available, else vectorized Python; compiled = require the "
            "kernel (fail loudly, never fall back); python = force the "
            "pure-Python replay (all tiers are bit-identical)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate ARCC (HPCA 2013) tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="Tables 7.1-7.4").set_defaults(
        func=_cmd_tables
    )

    p = sub.add_parser("fig3.1", help="faulty memory vs time")
    p.add_argument("--channels", type=int, default=2000)
    p.add_argument("--years", type=int, default=7)
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_fig3_1)

    p = sub.add_parser("fig6.1", help="SDC rates")
    p.add_argument("--mc-channels", type=int, default=0)
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_fig6_1)

    p = sub.add_parser("fig7.1", help="fault-free power/performance")
    p.add_argument("--instructions", type=int, default=40_000)
    p.add_argument("--mixes", type=int, default=12)
    _add_engine_flag(p)
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_fig7_1)

    p = sub.add_parser("fig7.2", help="power/performance with faults")
    p.add_argument("--instructions", type=int, default=40_000)
    p.add_argument("--mixes", type=int, default=3)
    _add_engine_flag(p)
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_fig7_2)

    p = sub.add_parser(
        "sensitivity", help="measured upgraded-fraction sweep"
    )
    p.add_argument("--instructions", type=int, default=40_000)
    p.add_argument("--mixes", type=int, default=12)
    p.add_argument(
        "--fractions",
        default=None,
        metavar="F1,F2,...",
        help="upgraded fractions to sweep (must include 0.0)",
    )
    _add_engine_flag(p)
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("fig7.4", help="lifetime overheads")
    p.add_argument("--channels", type=int, default=2000)
    p.add_argument(
        "--measured",
        action="store_true",
        help="measure per-fault overheads via fig7.2/7.3 first",
    )
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_fig7_4)

    p = sub.add_parser("fig7.6", help="ARCC+LOT-ECC")
    p.add_argument("--channels", type=int, default=2000)
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_fig7_6)

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
        type=int,
        default=None,
        help="rescale each fleet to this many total channels",
    )
    p.add_argument(
        "--seed",
        type=int,
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
        type=int,
        default=None,
        help="override the fleet seed (default: the study file's)",
    )
    p.add_argument(
        "--channels",
        type=int,
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
    _add_engine_flag(p)
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
    _add_engine_flag(p)
    _add_jobs_flag(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "fuzz",
        help="seeded differential fuzzing of every engine vs its oracle",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="campaign seed (case i derives "
        "its own seed from it; default 0)"
    )
    p.add_argument(
        "--count", type=int, default=100, help="number of cases to sample"
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
