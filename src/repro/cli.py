"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------

``run E9 [--quick] [--jobs N]``
    Run one experiment (or ``all``) and print its measured table + checks
    (reports print in order as soon as they are done).
``sweep --task election --n 64,128 --alpha 0.5 --trials 5 [--jobs N]``
    Monte-Carlo a parameter grid (optionally over a process pool) and
    print per-point aggregates.  ``--task ben_or`` sweeps the
    delay-tolerant Ben-Or baseline (``--max-delay`` sets Δ).
``elect --n 512 --alpha 0.5 [--adversary random] [--seed 0]``
    One leader-election run, summary printed.
``agree --n 512 --alpha 0.5 [--inputs mixed] [--adversary random]``
    One agreement run, summary printed.
``params --n 1024 --alpha 0.25``
    Show the derived sampling parameters and bounds for a configuration.
``fuzz --seeds 50 [--protocol election] [--budget-seconds 30] [--jobs N]``
    Adversary fuzzing: random crash schedules checked against the safety
    oracles; failures are shrunk and written as replayable scripts.
    ``--byzantine MODES`` and ``--max-delay Δ`` enable the extended
    grammar (per-node Byzantine plans, bounded-delay delivery); oracle
    violations the sampled faults excuse are journalled as *findings*
    rather than campaign failures (``docs/FAULTS.md``).
``replay script.json [--protocol election] [--seed 0]``
    Re-run a recorded crash script deterministically.
``report campaign.jsonl``
    Render a campaign's provenance manifest, journal counts, supervision
    events, and merged metrics (without the positional argument,
    ``report`` keeps its classic behaviour: run all experiments and
    write EXPERIMENTS.md).
``journal fsck campaign.jsonl [--repair]``
    Verify a checkpoint journal's per-record checksums and sequence
    numbers; ``--repair`` quarantines corrupt lines into a ``.corrupt``
    sidecar and rewrites the journal atomically.
``lint [paths ...] [--format text|json|sarif]``
    Run the project's AST-based determinism & invariant linter
    (``docs/LINT.md``) over ``paths`` (default ``src``).  Exit 0 when
    clean, 1 on findings, 2 on configuration errors.
``serve --port 8750 [--cache-dir DIR] [--jobs N]``
    Start the campaign service (``docs/SERVE.md``): an HTTP/JSON queue
    that schedules submitted sweeps on the supervised pool, answers
    previously-computed trials from a persistent result cache, and
    streams sealed journal-v2 records over chunked JSONL.
``wire elect|agree|flood --n 8 [--script s.json] [--backend wire|loopback]``
    Run a protocol on the real-network backend (``docs/NET.md``): one OS
    process per node over localhost TCP, heartbeat failure detection,
    and CrashScript-driven SIGKILL fault injection with per-node
    journals.
``wire parity [--sizes 8 16 32] [--backend wire|loopback]``
    The sim-vs-wire parity oracle: for each grid cell the wire run's
    message accounting and outcome must equal the simulator's exactly.

``run``, ``sweep`` and ``fuzz`` are campaigns and share one set of flags
and one path.  ``--jobs N`` fans trials out over N worker processes;
``--jobs 0`` auto-detects the core count.  Results, printed reports and
exit codes are deterministic and identical to ``--jobs 1`` for the same
seed.  ``run`` and ``sweep`` always take the resilient driver (see
``docs/RESILIENCE.md``): a raising trial or experiment becomes an
accounted failure (exit 1) rather than a traceback, ``--trial-timeout``
and ``--retries`` guard each one, killed workers and hung pools are
rebuilt and their chunks redispatched, and Ctrl-C / SIGTERM stops at a
trial boundary (exit code 130).  A campaign keeps a checkpoint journal
only when given ``--journal`` (or ``--resume``, which defaults it to
``.repro-<command>.journal.jsonl``); only then does an interrupt
advertise ``--resume``.

Observability (see ``docs/OBSERVABILITY.md``): ``--progress`` adds a
stderr heartbeat to ``run``/``sweep``/``fuzz``; each of them writes a
provenance manifest to ``--manifest``, else next to the journal, else
next to ``--out``/``--json``, else to ``repro-<command>.manifest.json``;
``sweep --profile`` records per-phase engine timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis.tables import format_table
from .core.families import FAMILIES, RunPoint
from .core.runner import BACKENDS
from .experiments.registry import all_experiments, get_experiment
from .params import Params


def _campaign(
    args: argparse.Namespace,
    command: str,
    master_seed: Optional[int],
    config: Dict[str, Any],
) -> Tuple[Optional[str], Any]:
    """Shared setup of ``run``/``sweep``/``fuzz``: ``(journal, manifest)``.

    The journal is ``--journal``, or ``.repro-<command>.journal.jsonl``
    under ``--resume``; without either the campaign keeps none.  The
    provenance manifest records ``config`` plus the campaign flags and is
    written to ``--manifest``, else next to the journal, else next to
    ``--out``/``--json``, else to ``repro-<command>.manifest.json``.
    """
    from .obs import capture_manifest

    resume = getattr(args, "resume", False)
    journal = args.journal or (
        f".repro-{command}.journal.jsonl" if resume else None
    )
    out = getattr(args, "out", None) or getattr(args, "json", None)
    beside = journal or out
    manifest_path = getattr(args, "manifest", None) or (
        f"{beside}.manifest.json" if beside else f"repro-{command}.manifest.json"
    )
    for name in ("jobs", "retries", "trial_timeout", "resume"):
        if hasattr(args, name):
            config[name] = getattr(args, name)
    extra = {key: value for key, value in (("journal", journal), ("out", out)) if value}
    manifest = capture_manifest(
        command=command, master_seed=master_seed, config=config, extra=extra or None
    )
    manifest.write(manifest_path)
    return journal, manifest


def _run_resilient(
    driver: Callable[..., Any],
    args: argparse.Namespace,
    journal: Optional[str],
    manifest: Any,
    *driver_args: Any,
    **driver_kwargs: Any,
) -> Any:
    """Call a resilient campaign driver with the shared flags, under
    :class:`~repro.parallel.GracefulShutdown` (Ctrl-C stops at a trial
    boundary)."""
    from .parallel import GracefulShutdown

    with GracefulShutdown() as shutdown:
        return driver(
            *driver_args,
            journal_path=journal,
            resume=args.resume,
            timeout_seconds=args.trial_timeout,
            retries=args.retries,
            jobs=args.jobs,
            progress=args.progress,
            manifest=manifest,
            shutdown=shutdown,
            **driver_kwargs,
        )


def _print_accounting(
    noun: str, counts: Dict[str, int], journal: Optional[str]
) -> None:
    """The campaign's attempted/completed/failed line, plus the supervisor
    counters :func:`repro.parallel.campaign_counts` adds when the pool had
    to be rescued."""
    where = f" (journal: {journal})" if journal else ""
    print(
        f"{noun}: {counts['attempted']} attempted, {counts['completed']}"
        f" completed, {counts['failed']} failed{where}"
    )
    extra = {
        key: value
        for key, value in counts.items()
        if key not in ("attempted", "completed", "failed")
    }
    if extra:
        print(
            "supervision: "
            + ", ".join(f"{key}={value}" for key, value in sorted(extra.items()))
        )


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.harness import ExperimentReport, run_experiments_resilient

    if args.experiment.lower() == "all":
        experiments = all_experiments()
    else:
        experiments = [get_experiment(args.experiment)]
    journal, manifest = _campaign(
        args, "run", None, {"experiment": args.experiment, "quick": args.quick}
    )

    def show(report: ExperimentReport) -> None:
        print(report.render())
        print(flush=True)

    reports, counts = _run_resilient(
        run_experiments_resilient, args, journal, manifest, experiments,
        quick=args.quick, on_report=show,
    )
    _print_accounting("experiments", counts, journal)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump([r.to_dict() for r in reports], handle, indent=2, default=str)
        print(f"wrote {args.json}")
    return 0 if all(report.passed for report in reports) else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .chaos import fuzz, fuzz_scenario

    if args.protocol == "both":
        protocols = ("election", "agreement")
    elif args.protocol == "all":
        protocols = _families("oracle")
    else:
        protocols = (args.protocol,)
    scenarios = [
        fuzz_scenario(protocol, n=args.n, alpha=args.alpha) for protocol in protocols
    ]
    byzantine_modes: tuple = ()
    if args.byzantine:
        from .faults.byzantine import BYZANTINE_MODES

        if args.byzantine == "all":
            byzantine_modes = BYZANTINE_MODES
        else:
            byzantine_modes = tuple(
                part.strip()
                for part in args.byzantine.split(",")
                if part.strip()
            )
    config = None
    if byzantine_modes or args.max_delay:
        from .chaos import GrammarConfig

        # Extended grammar: Byzantine plans and/or delay schedules ride on
        # the sampled scripts (modes are intersected per protocol family).
        config = GrammarConfig(
            byzantine_modes=byzantine_modes, max_delay=args.max_delay
        )
    journal, manifest = _campaign(
        args,
        "fuzz",
        args.seed,
        {
            "protocols": list(protocols),
            "n": args.n,
            "alpha": args.alpha,
            "seeds": args.seeds,
            "budget_seconds": args.budget_seconds,
            "shrink": not args.no_shrink,
            "max_delay": args.max_delay,
            "byzantine": list(byzantine_modes),
        },
    )
    report = fuzz(
        scenarios,
        seeds=args.seeds,
        master_seed=args.seed,
        budget_seconds=args.budget_seconds,
        config=config,
        shrink_failures=not args.no_shrink,
        jobs=args.jobs,
        progress=args.progress,
        journal=journal,
        manifest=manifest,
    )
    print(
        f"fuzzed {report.attempted} case(s) across {len(scenarios)} scenario(s)"
        f" in {report.elapsed_seconds:.1f}s: {len(report.failures)} failure(s),"
        f" {len(report.findings)} fragile finding(s)"
    )
    for case in report.failures:
        print(f"  seed={case.seed} protocol={case.point.protocol}"
              f" signature={'/'.join(case.signature)}")
        for violation in case.violations:
            print(f"    {violation}")
    for case in report.findings:
        print(f"  [finding] seed={case.seed}"
              f" protocol={case.point.protocol}"
              f" signature={'/'.join(case.signature)}"
              f" script={case.script.name()}")
    recorded = report.failures + report.findings
    if args.out and recorded:
        with open(args.out, "w") as handle:
            json.dump([case.to_dict() for case in recorded], handle, indent=2)
        print(
            f"wrote {len(report.failures)} failing and "
            f"{len(report.findings)} finding case(s) to {args.out}"
        )
    return 1 if report.failures else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .chaos import CrashScript, FuzzCase, fuzz_scenario, replay_case

    with open(args.script) as handle:
        data = json.load(handle)
    if isinstance(data, list):
        # Output of ``repro fuzz --out``: a list of failing cases.
        cases = [FuzzCase.from_dict(entry) for entry in data]
    elif "point" in data or "scenario" in data:
        cases = [FuzzCase.from_dict(data)]
    else:
        # A bare CrashScript: the run point comes from the flags.
        scenario = fuzz_scenario(args.protocol, n=args.n, alpha=args.alpha)
        cases = [
            FuzzCase(scenario.with_(seed=args.seed, adversary=CrashScript.from_dict(data)))
        ]
    exit_code = 0
    for case in cases:
        violations = replay_case(case)
        status = "CLEAN" if not violations else "VIOLATION"
        print(
            f"[{status}] protocol={case.point.protocol} seed={case.seed}"
            f" script={case.script.label or '<unnamed>'}"
        )
        for violation in violations:
            print(f"  {violation}")
        exit_code = exit_code or (1 if violations else 0)
    return exit_code


def _parse_axis(text: str, cast) -> List:
    """Parse a comma-separated grid axis (``"64,128"`` → ``[64, 128]``)."""
    values = [cast(part.strip()) for part in text.split(",") if part.strip()]
    if not values:
        raise SystemExit(f"empty grid axis: {text!r}")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    import functools
    from statistics import mean

    from .analysis.sweeps import collect, resilient_sweep
    from .parallel import resolve_task

    family = FAMILIES[args.task]
    task = resolve_task(family.task)
    if args.max_delay:
        if not family.delay_tolerant:
            raise SystemExit(
                "--max-delay requires --task ben_or (the delay-tolerant "
                "protocol); election/agreement assume synchronous delivery"
            )
        task = functools.partial(task, max_delay=args.max_delay)
    if args.profile:
        # functools.partial of a module-level task stays picklable, so
        # profiled trials still fan out over the pool.
        task = functools.partial(task, profile=True)
    backend = args.backend if args.backend != "ref" else None
    if backend and family.vec is None:
        raise SystemExit(
            "--backend vec supports the election/agreement tasks only "
            "(Ben-Or is not vectorized)"
        )
    if backend and args.profile:
        raise SystemExit(
            "--backend vec cannot be combined with --profile (phase "
            "timers require the reference engine)"
        )
    grid = {
        "n": _parse_axis(args.n, int),
        "alpha": _parse_axis(args.alpha, float),
        "adversary": _parse_axis(args.adversary, str),
    }
    journal, manifest = _campaign(
        args,
        "sweep",
        args.seed,
        {
            "task": args.task,
            "grid": grid,
            "max_delay": args.max_delay,
            "trials": args.trials,
            "profile": args.profile,
            "backend": args.backend,
        },
    )
    result = _run_resilient(
        resilient_sweep, args, journal, manifest, task, grid,
        trials=args.trials, master_seed=args.seed, backend=backend,
    )
    rows = result.rows()

    def reduce(results: List[dict]) -> dict:
        if not results:
            # Every trial of this point failed: keep the row (its
            # failures are in the accounting line) instead of crashing.
            return {
                "trials": 0,
                "success_rate": 0.0,
                "mean_messages": 0,
                "max_messages": 0,
                "mean_rounds": 0,
            }
        row = {
            "trials": len(results),
            "success_rate": round(
                sum(1 for r in results if r["success"]) / len(results), 4
            ),
            "mean_messages": round(mean(r["messages"] for r in results), 1),
            "max_messages": max(r["messages"] for r in results),
            "mean_rounds": round(mean(r["rounds"] for r in results), 1),
        }
        if args.profile:
            totals: dict = {}
            for r in results:
                for phase, seconds in (r.get("phase_seconds") or {}).items():
                    totals[phase] = totals.get(phase, 0.0) + seconds
            row["phase_seconds"] = {
                phase: round(seconds, 4) for phase, seconds in sorted(totals.items())
            }
        return row

    aggregated = collect(rows, reduce)
    print(format_table(aggregated, title=f"{args.task} sweep (jobs={args.jobs})"))
    _print_accounting("trials", result.counts(), journal)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "task": args.task,
                    "grid": grid,
                    "trials": args.trials,
                    "master_seed": args.seed,
                    "points": [
                        {"point": point, "results": results}
                        for point, results in rows
                    ],
                },
                handle,
                indent=2,
            )
        print(f"wrote {args.out}")
    passed = all(row["success_rate"] == 1.0 for row in aggregated)
    return 0 if result.complete and passed else 1


def _cmd_point(args: argparse.Namespace) -> int:
    """``elect``/``agree``: run the command's point once, print its summary."""
    point = _point(args)
    result = point.family.run(point)
    print(format_table([result.summary()], title=args.title))
    return 0 if result.success else 1


def _cmd_params(args: argparse.Namespace) -> int:
    params = Params(n=args.n, alpha=args.alpha)
    rows = [
        {"quantity": "candidate probability", "value": params.candidate_probability},
        {"quantity": "expected committee |C|", "value": params.expected_candidates},
        {"quantity": "referees per candidate", "value": params.referee_count},
        {"quantity": "iterations", "value": params.iterations},
        {"quantity": "max faulty", "value": params.max_faulty},
        {"quantity": "LE message bound (no const)", "value": params.le_message_bound()},
        {
            "quantity": "agreement message bound (no const)",
            "value": params.agreement_message_bound(),
        },
        {
            "quantity": "lower bound (no const)",
            "value": params.lower_bound_messages(),
        },
        {"quantity": "LE sublinear regime", "value": params.le_sublinear()},
        {"quantity": "agreement sublinear regime", "value": params.agreement_sublinear()},
    ]
    print(format_table(rows, title=f"parameters for n={args.n}, alpha={args.alpha}"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.campaign is not None:
        from .obs import load_campaign, render_campaign_report

        try:
            campaign = load_campaign(args.campaign)
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        sys.stdout.write(render_campaign_report(campaign))
        return 0

    from .experiments.report import generate_report

    only = [e.upper() for e in args.only] if args.only else None
    markdown = generate_report(quick=args.quick, only=only)
    with open(args.output, "w") as handle:
        handle.write(markdown)
    print(f"wrote {args.output}")
    return 0 if "**FAIL**" not in markdown else 1


def _cmd_journal_fsck(args: argparse.Namespace) -> int:
    from .exec import fsck_journal

    try:
        report = fsck_journal(args.path, repair=args.repair)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(json.dumps(report.as_dict(), indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    # After a repair the journal is clean by construction (corrupt lines
    # are quarantined into the sidecar); without one, findings exit 1.
    return 0 if report.clean or args.repair else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import CampaignServer, CampaignService

    service = CampaignService(
        cache_dir=args.cache_dir,
        max_cache_entries=args.max_cache_entries,
        allow_task_refs=args.allow_task_refs,
        default_jobs=args.jobs,
    )
    server = CampaignServer(service, host=args.host, port=args.port)
    server.start()
    print(
        f"repro serve: listening on http://{args.host}:{server.port} "
        f"(cache: {args.cache_dir}; POST /campaigns to submit)",
        flush=True,
    )
    try:
        # The HTTP loop and the campaign worker are both daemon threads;
        # the main thread just waits for Ctrl-C / SIGTERM.
        threading.Event().wait()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.stop()
        service.close()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .lint import (
        LintConfig,
        LintConfigError,
        find_config,
        lint_paths,
        load_config,
    )

    try:
        if args.config is not None:
            config_path = Path(args.config)
            if not config_path.is_file():
                raise LintConfigError(f"no such config file: {config_path}")
        else:
            start = Path(args.paths[0]) if args.paths else Path.cwd()
            config_path = find_config(start) or find_config(Path.cwd())
        if config_path is not None:
            config = load_config(config_path)
        else:
            # No .reprolint.toml anywhere above: lint with the built-in
            # defaults (rules needing project scope simply stay quiet).
            config = LintConfig(root=Path.cwd())
        paths = [Path(p) for p in args.paths] or [Path("src")]
        report = lint_paths(paths, config)
    except LintConfigError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(report.render_json() + "\n")
    if args.sarif is not None:
        from .lint.sarif import render_sarif

        with open(args.sarif, "w") as handle:
            handle.write(render_sarif(report) + "\n")
    if args.format == "json":
        print(report.render_json())
    elif args.format == "sarif":
        from .lint.sarif import render_sarif

        print(render_sarif(report))
    else:
        print(report.render_text())
    return report.exit_code


def _cmd_wire_run(args: argparse.Namespace) -> int:
    from .chaos import CrashScript
    from .net import WireSpec
    from .net.driver import run_loopback_trial, run_wire_trial

    script = None
    if args.script:
        with open(args.script) as handle:
            script = CrashScript.from_dict(json.load(handle))
    spec = WireSpec(
        _point(args, adversary=script or "none"),
        heartbeat_interval=args.heartbeat_interval,
        suspicion_threshold=args.suspicion_threshold,
        round_timeout=args.round_timeout,
        trial_timeout=args.trial_timeout,
    )
    if args.backend == "loopback":
        result = run_loopback_trial(spec)
    else:
        result = run_wire_trial(spec, journal_dir=args.journal_dir)
    if not result.ok:
        print(f"wire trial FAILED: {result.reason}", file=sys.stderr)
        if result.journal_dir:
            print(f"journals: {result.journal_dir}", file=sys.stderr)
        return 2
    assert result.metrics is not None and result.outcome is not None
    summary = dict(result.metrics.summary())
    summary["backend"] = result.backend
    summary["success"] = result.outcome["success"]
    print(format_table([summary], title=f"wire {spec.point.protocol} (n={spec.point.n})"))
    if result.journal_dir:
        print(f"journals: {result.journal_dir}")
    return 0 if result.outcome["success"] else 1


def _cmd_wire_parity(args: argparse.Namespace) -> int:
    from .net.parity import parity_grid

    overrides = {
        "heartbeat_interval": args.heartbeat_interval,
        "suspicion_threshold": args.suspicion_threshold,
        "round_timeout": args.round_timeout,
        "trial_timeout": args.trial_timeout,
    }
    reports = parity_grid(
        protocols=args.protocols,
        sizes=args.sizes,
        modes=args.modes,
        seed=args.seed,
        backend=args.backend,
        journal_dir=args.journal_dir,
        **overrides,
    )
    rows = []
    for report in reports:
        rows.append(
            {
                "protocol": report.spec.point.protocol,
                "n": report.spec.point.n,
                "mode": "scripted" if report.spec.script else "fault-free",
                "backend": report.backend,
                "parity": "OK" if report.ok else "MISMATCH",
                "messages": (
                    report.wire_metrics["messages_sent"]
                    if report.wire_metrics
                    else "-"
                ),
            }
        )
    print(format_table(rows, title="sim-vs-wire parity"))
    failed = [report for report in reports if not report.ok]
    for report in failed:
        where = (
            f"{report.spec.point.protocol} n={report.spec.point.n} "
            f"{'scripted' if report.spec.script else 'fault-free'}"
        )
        for diff in report.diffs:
            print(f"  {where}: {diff}", file=sys.stderr)
        if report.trial.journal_dir:
            print(f"  {where}: journals {report.trial.journal_dir}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump([report.to_dict() for report in reports], handle, indent=2)
        print(f"wrote {args.out}")
    print(f"parity: {len(reports) - len(failed)}/{len(reports)} cells match")
    return 0 if not failed else 1


#: The campaign flags, declared once: ``run``, ``sweep`` and ``fuzz`` each
#: take the subset they support (``serve`` and ``wire`` reuse ``--jobs``
#: and ``--trial-timeout`` with their own meaning).
_CAMPAIGN_FLAGS: Dict[str, Dict[str, Any]] = {
    "--jobs": {
        "type": int,
        "default": 1,
        "help": "worker processes (0 = auto-detect cores; output identical to 1)",
    },
    "--progress": {
        "action": "store_true",
        "help": "stderr heartbeat (done, failures, retries, throughput, ETA)",
    },
    "--journal": {
        "default": None,
        "help": "checkpoint journal path (default: none, or "
        ".repro-<command>.journal.jsonl when resuming)",
    },
    "--resume": {
        "action": "store_true",
        "help": "skip work already completed in the checkpoint journal "
        "(continue an interrupted campaign)",
    },
    "--trial-timeout": {
        "type": float,
        "default": None,
        "metavar": "SECONDS",
        "help": "per-trial (per-experiment for run) wall-clock budget; also "
        "arms hung-pool deadlines",
    },
    "--retries": {
        "type": int,
        "default": 0,
        "help": "retries per trial with derived seeds and backoff",
    },
    "--manifest": {
        "default": None,
        "help": "provenance manifest path (default: next to the journal, "
        "else next to the output file, else repro-<command>.manifest.json)",
    },
}


def _add_campaign_flags(
    parser: argparse.ArgumentParser, *dests: str, **changes: Any
) -> None:
    """Add the :data:`_CAMPAIGN_FLAGS` with these ``args`` attribute names
    (``"trial_timeout"`` is ``--trial-timeout``); ``changes`` override
    their argparse keywords (e.g. ``help``, ``default``)."""
    for dest in dests:
        flag = "--" + dest.replace("_", "-")
        parser.add_argument(flag, **{**_CAMPAIGN_FLAGS[flag], **changes})


#: The run-point flags, declared once as :class:`RunPoint` fields: the
#: ``elect``, ``agree``, ``fuzz``, ``replay`` and ``wire`` commands each
#: add the fields their point takes, with their own defaults.
_POINT_FLAGS: Dict[str, Dict[str, Any]] = {
    "n": {"type": int, "help": "network size"},
    "alpha": {"type": float, "help": "fraction of non-faulty nodes"},
    "seed": {"type": int, "help": "seed (a campaign's master seed)"},
    "inputs": {"help": "input bits pattern: all0, all1, mixed, single0, single1"},
    "adversary": {"help": "crash adversary (none/eager/lazy/random/staggered/split/adaptive)"},
    "faulty_count": {
        "type": int,
        "help": "static faulty-set size (flooding: f, rounds = f + 1); "
        "default: the family's budget, or the script's faulty set size",
    },
    "backend": {
        "choices": BACKENDS,
        "help": "engine backend: reference per-node engine, or the numpy "
        "vectorized engine (identical results; needs repro[perf])",
    },
}


def _add_point_flags(parser: argparse.ArgumentParser, **defaults: Any) -> None:
    """Add the :data:`_POINT_FLAGS` named by ``defaults``, with those
    defaults; :func:`_point` reads them back as a run point."""
    for name, default in defaults.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, default=default, **_POINT_FLAGS[name])
    parser.set_defaults(point_fields=tuple(defaults))


def _point(args: argparse.Namespace, **fields: Any) -> RunPoint:
    """The run point of the command's protocol and point flags."""
    values = {name: getattr(args, name) for name in args.point_fields}
    return RunPoint(args.protocol, **values, **fields)


def _add_wire_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.1,
        help="seconds between node heartbeats to the coordinator",
    )
    parser.add_argument(
        "--suspicion-threshold",
        type=int,
        default=30,
        help="missed-beat multiplier before a silent node is suspected "
        "(detection bound = interval * threshold)",
    )
    parser.add_argument(
        "--round-timeout",
        type=float,
        default=30.0,
        help="per-barrier deadline (frames / reports)",
    )
    _add_campaign_flags(
        parser,
        "trial_timeout",
        default=180.0,
        help="whole-trial wall-clock deadline",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="directory for per-node + coordinator journals "
        "(default: a fresh temp dir)",
    )


def _families(field: str) -> Tuple[str, ...]:
    """Names of the protocol families whose row sets ``field``."""
    return tuple(name for name, family in FAMILIES.items() if getattr(family, field))


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant leader election & agreement (Kumar-Molla) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment (E1..E16 or 'all')")
    run.add_argument("experiment")
    run.add_argument("--quick", action="store_true", help="small sizes/trials")
    run.add_argument("--json", default=None, help="also write results as JSON")
    _add_campaign_flags(
        run, "jobs", "progress", "journal", "resume", "trial_timeout", "retries"
    )
    run.set_defaults(func=_cmd_run)

    sweep_cmd = sub.add_parser(
        "sweep", help="Monte-Carlo a parameter grid (optionally in parallel)"
    )
    sweep_cmd.add_argument(
        "--task",
        choices=_families("task"),
        default="election",
    )
    sweep_cmd.add_argument(
        "--n", default="64,128", help="comma-separated n axis (e.g. 64,128,256)"
    )
    sweep_cmd.add_argument(
        "--alpha", default="0.5", help="comma-separated alpha axis (e.g. 0.5,0.75)"
    )
    sweep_cmd.add_argument(
        "--adversary", default="random", help="comma-separated adversary names"
    )
    sweep_cmd.add_argument("--trials", type=int, default=5, help="trials per point")
    sweep_cmd.add_argument(
        "--max-delay",
        type=int,
        default=0,
        help="delivery-delay bound Δ (ben_or task only; 0 = synchronous)",
    )
    sweep_cmd.add_argument("--seed", type=int, default=0, help="master seed")
    sweep_cmd.add_argument(
        "--out", default=None, help="also write full per-trial results as JSON"
    )
    sweep_cmd.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase engine timings in every trial summary",
    )
    sweep_cmd.add_argument(
        "--backend",
        choices=("ref", "vec"),
        default="ref",
        help="engine backend for every trial (vec: numpy vectorized "
        "engine, identical results; election/agreement tasks only)",
    )
    _add_campaign_flags(
        sweep_cmd, "jobs", "progress", "journal", "resume", "trial_timeout",
        "retries", "manifest",
    )
    sweep_cmd.set_defaults(func=_cmd_sweep)

    fuzz_cmd = sub.add_parser(
        "fuzz", help="fuzz random crash schedules against the safety oracles"
    )
    _add_point_flags(fuzz_cmd, n=64, alpha=0.5, seed=0)
    fuzz_cmd.add_argument("--seeds", type=int, default=50, help="trials per protocol")
    fuzz_cmd.add_argument(
        "--protocol",
        choices=_families("oracle") + ("both", "all"),
        default="both",
        help="protocol(s) to fuzz ('both' = the paper pair, 'all' adds "
        "the delay-tolerant ben_or baseline)",
    )
    fuzz_cmd.add_argument(
        "--max-delay",
        type=int,
        default=0,
        help="extended grammar: sample delivery-delay schedules up to Δ",
    )
    fuzz_cmd.add_argument(
        "--byzantine",
        default=None,
        metavar="MODES",
        help="extended grammar: comma-separated Byzantine modes to sample "
        "(or 'all'); violations they excuse are journalled findings",
    )
    fuzz_cmd.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="run until this time budget instead of a fixed seed count",
    )
    fuzz_cmd.add_argument(
        "--out", default=None, help="write failing cases (JSON) to this path"
    )
    fuzz_cmd.add_argument(
        "--no-shrink",
        action="store_true",
        help="keep failing schedules as sampled (skip minimisation)",
    )
    _add_campaign_flags(fuzz_cmd, "jobs", "progress", "journal", "manifest")
    fuzz_cmd.set_defaults(func=_cmd_fuzz)

    replay = sub.add_parser(
        "replay", help="deterministically re-run a recorded crash script"
    )
    replay.add_argument("script", help="FuzzCase JSON, fuzz --out list, or bare script")
    replay.add_argument(
        "--protocol",
        choices=_families("oracle"),
        default="election",
        help="protocol for bare scripts (full cases carry their own scenario)",
    )
    # Point flags for bare scripts (full cases carry their own point).
    _add_point_flags(replay, n=64, alpha=0.5, seed=0)
    replay.set_defaults(func=_cmd_replay)

    for name, protocol, title, inputs in (
        ("elect", "election", "leader election", {}),
        ("agree", "agreement", "agreement", {"inputs": "mixed"}),
    ):
        point_cmd = sub.add_parser(name, help=f"one {title} run")
        _add_point_flags(
            point_cmd, n=512, alpha=0.5, seed=0, **inputs, adversary="random",
            backend="ref",
        )
        point_cmd.set_defaults(func=_cmd_point, protocol=protocol, title=title)

    params_cmd = sub.add_parser("params", help="show derived parameters")
    params_cmd.add_argument("--n", type=int, required=True)
    params_cmd.add_argument("--alpha", type=float, required=True)
    params_cmd.set_defaults(func=_cmd_params)

    report = sub.add_parser(
        "report",
        help="render a campaign (journal/manifest path) or, with no "
        "argument, run all experiments and write EXPERIMENTS.md",
    )
    report.add_argument(
        "campaign",
        nargs="?",
        default=None,
        help="campaign journal (.jsonl) or manifest (.json) to render",
    )
    report.add_argument("--quick", action="store_true")
    report.add_argument("-o", "--output", default="EXPERIMENTS.md")
    report.add_argument(
        "--only", nargs="*", default=None, help="experiment ids to include"
    )
    report.set_defaults(func=_cmd_report)

    journal_cmd = sub.add_parser(
        "journal", help="checkpoint-journal maintenance (docs/RESILIENCE.md)"
    )
    journal_sub = journal_cmd.add_subparsers(dest="journal_command", required=True)
    fsck = journal_sub.add_parser(
        "fsck",
        help="verify per-record checksums/sequence numbers, optionally "
        "quarantine corrupt lines",
    )
    fsck.add_argument("path", help="journal (.jsonl) to check")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="move corrupt lines to <journal>.corrupt and rewrite the "
        "journal atomically",
    )
    fsck.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout",
    )
    fsck.add_argument(
        "--output",
        default=None,
        help="also write the JSON report to this path (for CI artifacts)",
    )
    fsck.set_defaults(func=_cmd_journal_fsck)

    lint = sub.add_parser(
        "lint",
        help="AST-based determinism & invariant linter (docs/LINT.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format on stdout",
    )
    lint.add_argument(
        "--config",
        default=None,
        help="path to .reprolint.toml (default: nearest one above the "
        "first lint path)",
    )
    lint.add_argument(
        "--output",
        default=None,
        help="also write the JSON report to this path (for CI artifacts)",
    )
    lint.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="also write a SARIF 2.1.0 report to this path "
        "(for CI code-scanning upload)",
    )
    lint.set_defaults(func=_cmd_lint)

    serve_cmd = sub.add_parser(
        "serve",
        help="campaign service: HTTP queue + result cache + streaming "
        "(docs/SERVE.md)",
    )
    serve_cmd.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: loopback only)",
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8750,
        help="TCP port to listen on (0 picks a free port)",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="directory of the persistent trial-result cache",
    )
    serve_cmd.add_argument(
        "--max-cache-entries",
        type=int,
        default=None,
        help="LRU-evict cache entries beyond this count (default: unbounded)",
    )
    _add_campaign_flags(
        serve_cmd,
        "jobs",
        help="default pool width for campaigns that do not specify one "
        "(0 = all cores)",
    )
    serve_cmd.add_argument(
        "--allow-task-refs",
        action="store_true",
        help="accept arbitrary 'module:qualname' task references instead "
        "of only registered task names (runs submitted code; trusted "
        "clients only)",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    wire_cmd = sub.add_parser(
        "wire",
        help="real-network backend: protocols over localhost TCP with "
        "SIGKILL fault injection (docs/NET.md)",
    )
    wire_sub = wire_cmd.add_subparsers(dest="wire_command", required=True)
    for name, protocol, help_text in (
        ("elect", "election", "leader election over TCP node processes"),
        ("agree", "agreement", "agreement over TCP node processes"),
        ("flood", "flooding", "flooding baseline over TCP node processes"),
    ):
        wire_run = wire_sub.add_parser(name, help=help_text)
        _add_point_flags(
            wire_run, n=8, alpha=0.75, seed=0,
            **({"inputs": "mixed"} if FAMILIES[protocol].takes_inputs else {}),
            **({"faulty_count": None} if name == "flood" else {}),
        )
        wire_run.add_argument(
            "--script",
            default=None,
            help="CrashScript JSON file: scripted SIGKILLs with partial "
            "final-round delivery",
        )
        wire_run.add_argument(
            "--backend",
            choices=("wire", "loopback"),
            default="wire",
            help="wire = real node processes over TCP; loopback = the "
            "in-process twin (same accounting, no sockets)",
        )
        _add_wire_common(wire_run)
        wire_run.set_defaults(func=_cmd_wire_run, protocol=protocol)

    wire_parity = wire_sub.add_parser(
        "parity",
        help="sim-vs-wire parity oracle: identical message counts and "
        "outcomes for the same (spec, seed, script)",
    )
    wire_parity.add_argument(
        "--protocols",
        nargs="+",
        default=list(_families("outputs")),
        choices=_families("outputs"),
    )
    wire_parity.add_argument("--sizes", nargs="+", type=int, default=[8, 16, 32])
    wire_parity.add_argument(
        "--modes",
        nargs="+",
        default=["fault-free", "scripted"],
        choices=("fault-free", "scripted"),
    )
    wire_parity.add_argument(
        "--backend",
        choices=("wire", "loopback"),
        default="wire",
        help="wire = real node processes; loopback = in-process twin",
    )
    wire_parity.add_argument(
        "--out", default=None, help="write the full parity reports as JSON"
    )
    _add_point_flags(wire_parity, seed=0)
    _add_wire_common(wire_parity)
    wire_parity.set_defaults(func=_cmd_wire_parity)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    from .errors import CampaignInterrupted

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CampaignInterrupted as exc:
        print(f"repro: {exc}", file=sys.stderr)
        # Conventional "terminated by signal" exit status; scripts (and
        # the chaos harness) key resumability off it.
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
