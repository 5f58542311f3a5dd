#!/usr/bin/env python3
"""Campaign benchmark: the paths users wait on, end to end and per layer.

One run measures one workload in a fresh interpreter::

    python3 campaign_bench/bench.py --workload sweep-ref --seed 0 --seconds 8 --trace 0

and prints a table of every metric (value, unit, sample count) and, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the traced layer pass
and reports the per-layer metrics, writing its spans to ``--out``.

Without ``--workload`` it runs every workload ``--runs`` times, each in
its own interpreter, rotating the workload order from run to run, and
summarises medians, quartile spreads and disturbed runs; ``--save``
keeps the runs for ``--check A.json B.json``, which compares two such
sets against the bounds in ``BENCHMARK.json``.

Exit status: 0 when every check passed, 1 when a correctness check or
``--check`` failed, 2 when the program under test is missing.
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
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The names of ``workloads.WORKLOADS``, repeated here so argument
#: parsing and ``--check`` work without importing the program.
WORKLOADS = ("sweep-ref", "sweep-vec", "fuzz-budget", "serve-cold", "serve-cached")

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: A run is disturbed when the hypervisor stole more than this share of
#: CPU ticks while it measured (3.9 % steal cost the same serve work
#: ~25 % more wall time than ~0 % steal on the machine it was sized on).
DISTURBED_STEAL_PCT = 1.0


# ----------------------------------------------------------------------
# Host counters
# ----------------------------------------------------------------------


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (zeros elsewhere)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:9]
        return [int(value) for value in fields]
    except (OSError, ValueError):
        return [0] * 8


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of all CPU ticks between two readings that the hypervisor stole."""
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas)
    return deltas[7] / total if total > 0 else 0.0


def cpu_seconds() -> float:
    """Processor time of this process and every child it has waited for."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------


def time_setups(workload: str, seed: int) -> List[float]:
    """Wall time of fresh interpreters that import, bind and warm up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def setup_only(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as CLASSES

    with work_directory() as workdir:
        workload = CLASSES[args.workload](args.seed, workdir)
        try:
            workload.setup()
        finally:
            workload.close()
    return 0


@contextmanager
def work_directory() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed on exit."""
    parent = ROOT / ".campaign_bench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with suppress(OSError):
            parent.rmdir()  # only once no other run still uses it


def run_workload(args: argparse.Namespace) -> int:
    before = cpu_ticks()
    setups = [] if args.trace else time_setups(args.workload, args.seed)
    setup_kept = 1.0 - steal_share(before, cpu_ticks())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as CLASSES, Tracer, run_checks

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    checks = run_checks(args.seed)
    detail: Dict[str, Any] = {}
    with work_directory() as workdir:
        if args.trace:
            from layers import layer_pass

            before, cpu = cpu_ticks(), cpu_seconds()
            metrics, traced, setup_problems = layer_pass(
                args.workload, args.seed, workdir, tracer
            )
            stolen, cpu = steal_share(before, cpu_ticks()), cpu_seconds() - cpu
            campaigns = list(traced.values())
            detail["traced_campaign_s"] = {n: c.wall_s for n, c in traced.items()}
            detail["self_s"] = tracer.self_seconds()
        else:
            workload = CLASSES[args.workload](args.seed, workdir)
            campaigns, stolen, cpu = measure(workload, args.seconds)
            setup_problems = workload.setup_problems
            metrics = end_to_end(campaigns, setups, 1.0 - stolen, setup_kept)
            detail.update(workload_detail(campaigns, 1.0 - stolen))
    detail["host.steal_pct"] = 100.0 * stolen
    detail["host.cpu_s_per_trial"] = cpu / max(1, sum(c.trials for c in campaigns))
    detail["disturbed"] = detail["host.steal_pct"] > DISTURBED_STEAL_PCT
    if args.trace:
        metrics["host.steal_pct"] = detail["host.steal_pct"]
        metrics["host.cpu_s_per_trial"] = detail["host.cpu_s_per_trial"]
        if args.out:
            Path(args.out).write_text(json.dumps({"spans": tracer.spans}) + "\n")

    problems = [f"{name}: {p}" for name, found in checks.items() for p in found]
    problems += [f"set-up: {p}" for p in setup_problems]
    problems += [f"{c.kind} campaign: {p}" for c in campaigns for p in c.problems]
    failed = sum(1 for found in checks.values() if found) + len(setup_problems)
    failed += sum(1 for c in campaigns if c.problems)
    units = load_units()
    samples = sample_counts(campaigns, setups)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  campaigns {len(campaigns)}")
    for name, value in sorted(metrics.items()):
        count = f"n={samples[name]}" if name in samples else "traced pass"
        print(f"  {name:30s} {value:14.6g} {units[name]:8s} {count}")
    for name, value in sorted(detail.items()):
        if not isinstance(value, dict):
            print(f"  {name:30s} {value!s:>14} (detail)")
    for name, seconds in sorted(detail.get("self_s", {}).items()):
        print(f"  self time {name:20s} {seconds:14.6g} s")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    result = {
        "correct": not problems,
        "attempted": len(checks) + len(campaigns),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def measure(workload: Any, seconds: float) -> Tuple[List[Any], float, float]:
    """The closed loop: one campaign after another until ``seconds`` pass.

    Returns the campaigns, the share of CPU ticks stolen meanwhile, and
    the processor seconds the loop used (workers included).
    """
    campaigns: List[Any] = []
    try:
        workload.setup()
        workload.prepare()
        before, cpu = cpu_ticks(), cpu_seconds()
        start = time.perf_counter()
        while not campaigns or time.perf_counter() - start < seconds:
            campaigns.append(workload.campaign(len(campaigns)))
        stolen, cpu = steal_share(before, cpu_ticks()), cpu_seconds() - cpu
    finally:
        workload.close()
    return campaigns, stolen, cpu


def end_to_end(
    campaigns: List[Any], setups: List[float], kept: float, setup_kept: float
) -> Dict[str, float]:
    """The end-to-end metrics, every time scaled by the share not stolen.

    On a shared virtual machine the hypervisor takes the CPU away for
    stretches that vary from run to run (0-37 % of ticks within minutes
    where this was sized).  Scaling wall time by ``1 - stolen share``
    removes that time from the measurement without touching anything the
    program under test does; the raw wall-clock numbers stay in the detail.
    A wall-clock budget the program keeps itself (budgeted fuzzing) is
    not scaled: only the time past it is.
    """
    return {
        "setup_s": statistics.median(setups) * setup_kept,
        "trials_per_s": sum(c.trials for c in campaigns)
        / (sum(c.wall_s for c in campaigns) * kept),
        "campaign_p50_s": statistics.median(
            c.budget_s + (c.wall_s - c.budget_s) * kept for c in campaigns
        ),
    }


def sample_counts(campaigns: List[Any], setups: List[float]) -> Dict[str, int]:
    return {
        "setup_s": len(setups),
        "trials_per_s": sum(c.trials for c in campaigns),
        "campaign_p50_s": len(campaigns),
    }


def workload_detail(campaigns: List[Any], kept: float) -> Dict[str, Any]:
    """Numbers the shared end-to-end metrics leave out, corrected alike."""
    wall = sum(c.wall_s for c in campaigns)
    detail: Dict[str, Any] = {
        "first_result_s": statistics.median(c.first_s for c in campaigns) * kept,
        "wall_trials_per_s": sum(c.trials for c in campaigns) / wall,
        "wall_campaign_p50_s": statistics.median(c.wall_s for c in campaigns),
    }
    messages = sum(c.messages for c in campaigns)
    if messages:
        detail["sim_msgs_per_s"] = messages / (wall * kept)
    trial_s = sorted(t * kept for c in campaigns for t in c.trial_s)
    if len(trial_s) >= 2:
        detail["trial_p50_s"] = statistics.median(trial_s)
        detail["trial_p90_s"] = statistics.quantiles(trial_s, n=10)[8]
        detail["trial_samples"] = len(trial_s)
    return detail


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_units() -> Dict[str, str]:
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# Every workload, several runs
# ----------------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    runs: List[Dict[str, Any]] = []
    spans: List[Any] = []
    status = 0
    with work_directory() as workdir:
        plan = [(r, 0) for r in range(args.runs)]
        if args.trace:
            plan.append((args.runs, 1))
        for run, trace in plan:
            order = WORKLOADS[run % len(WORKLOADS):] + WORKLOADS[: run % len(WORKLOADS)]
            if trace:
                order = order[:1]
            for workload in order:
                detail_path = workdir / f"detail-{run}-{workload}.json"
                spans_path = workdir / f"spans-{run}-{workload}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--detail", str(detail_path),
                ]
                if trace:
                    command += ["--out", str(spans_path)]
                completed = subprocess.run(
                    command, cwd=ROOT, stdout=subprocess.PIPE, text=True
                )
                sys.stdout.write(completed.stdout)
                lines = completed.stdout.strip().splitlines()
                if completed.returncode != 0 or not lines:
                    status = 1
                if not lines or not detail_path.exists():
                    continue
                result = json.loads(lines[-1])
                result.update(
                    workload=workload, seed=args.seed, run=run, trace=trace,
                    detail=json.loads(detail_path.read_text()),
                )
                runs.append(result)
                if trace and spans_path.exists():
                    spans.extend(json.loads(spans_path.read_text())["spans"])
    summarise(runs)
    if args.save:
        Path(args.save).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    if args.out and spans:
        Path(args.out).write_text(json.dumps({"spans": spans}) + "\n")
    return status


def quartile_spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(runs: List[Dict[str, Any]]) -> None:
    print("\nsummary (median, quartile spread / median, runs, disturbed)")
    untraced = [r for r in runs if not r["trace"]]
    for workload in WORKLOADS:
        mine = [r for r in untraced if r["workload"] == workload]
        if not mine:
            continue
        disturbed = sum(1 for r in mine if r["detail"].get("disturbed"))
        print(f"  {workload}: {len(mine)} run(s), {disturbed} disturbed")
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            unit = mine[0]["metrics"][name]["unit"]
            print(f"    {name:24s} {statistics.median(values):12.6g} {unit:6s}"
                  f" spread {quartile_spread(values):6.3f}")
        for name in sorted(mine[0]["detail"]):
            values = [r["detail"][name] for r in mine if name in r["detail"]]
            if values and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                              for v in values):
                print(f"    {name:24s} {statistics.median(values):12.6g} (detail)")
    for traced in (r for r in runs if r["trace"]):
        walls = traced["detail"].get("traced_campaign_s", {})
        for workload, wall in sorted(walls.items()):
            base = [r["detail"]["wall_campaign_p50_s"]
                    for r in untraced if r["workload"] == workload]
            if base:
                overhead = 100.0 * (wall / statistics.median(base) - 1.0)
                print(f"  trace.overhead_pct {workload:12s} {overhead:8.2f} %"
                      " (traced campaign vs untraced median)")


# ----------------------------------------------------------------------
# Comparing two sets of runs
# ----------------------------------------------------------------------


def check_runs(path_a: str, path_b: str) -> int:
    spec = benchmark_spec()
    sets = [json.loads(Path(p).read_text())["runs"] for p in (path_a, path_b)]
    status = 0
    print(f"{'workload':13s} {'metric':16s} {'median A':>12s} {'median B':>12s}"
          f" {'change':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        chosen = []
        for label, runs in zip("AB", sets):
            mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
            steady = [r for r in mine if not r["detail"]["disturbed"]]
            if len(steady) >= 3 and len(steady) < len(mine):
                print(f"  ({workload} {label}: {len(mine) - len(steady)} disturbed"
                      " run(s) left out of the medians)")
                mine = steady
            chosen.append(mine)
        if min(len(runs) for runs in chosen) < 3:
            print(f"{workload:13s} needs >= 3 runs in each set"
                  f" (has {len(chosen[0])} and {len(chosen[1])})")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["metrics"][name]["value"] for r in runs] for runs in chosen)
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / median_a
            lower = metric["better"] == "lower"
            worse = change if lower else -change
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            spread = max(quartile_spread(a), quartile_spread(b))
            if spread > bound and not all_better:
                verdict = f"unresolved (spread {spread:.3f})"
            elif worse > bound:
                verdict = "REGRESSED"
                status = 1
            else:
                verdict = "ok"
            print(f"{workload:13s} {name:16s} {median_a:12.6g} {median_b:12.6g}"
                  f" {change:+8.3f} {bound:6.2f}  {verdict}")
    return status


# ----------------------------------------------------------------------


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced layer pass, per-layer metrics")
    parser.add_argument("--out", help="spans file written by a traced run")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--save", help="keep every run's result in this file")
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two saved sets of runs")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.check:
        return check_runs(*args.check)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"campaign_bench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
