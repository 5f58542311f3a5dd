#!/usr/bin/env python
"""Tracked simulator benchmark: writes ``BENCH_sim.json``.

Standalone (no pytest needed) so CI and developers produce comparable
numbers with one command::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick] [--jobs N] [--out F]

Schema 2 sections (every schema-1 key is still written unchanged, so
older tooling keeps reading the file):

* ``engine`` — the raw round-loop: a 1024-node flood pushing ~12k
  messages through the per-edge FIFO/wake-heap machinery with tracing
  off (the no-trace fast path), reported as wall-clock and messages/sec.
* ``single_trial`` — one full leader-election run (protocol + schedule +
  adversary on top of the engine).
* ``engine_ref`` / ``engine_vec`` — the same full election (n=1024,
  paper constants, fault-free so the engine hot path dominates) on the
  reference and the vectorized backend, plus the headline ``speedup``
  ratio (vec msgs/s over ref msgs/s).  ``engine_vec_faulty`` records
  the random-crash variant, whose crash bookkeeping deliberately
  replays the reference adversary in Python and therefore speeds up
  less.  ``--check-vec-speedup`` turns the ratio into a CI gate.
* ``large_n`` — one vectorized election at n=100,000 (the scale the
  object engine cannot reach in reasonable time); skipped in
  ``--quick`` mode.
* ``sweep`` — the same Monte-Carlo campaign at ``jobs=1`` and
  ``jobs=N``, with the observed speedup.  The speedup is
  hardware-honest: the file records the machine's core count, and on a
  single-core box the parallel run is expected to be ~1x (or slightly
  below, from pool overhead).
* ``obs_overhead`` — the ``engine`` workload re-timed with (a) the
  disabled no-op :class:`repro.obs.PhaseTimers` threaded through (the
  default every un-profiled run takes) and (b) profiling enabled.
  ``--check-obs-overhead`` turns the no-op ratio into a CI gate: the
  disabled observability path must stay within 5% of the
  uninstrumented engine.

Timings are best-of-``repeats`` (minimum wall-clock), the standard way
to suppress scheduler noise without a benchmark framework.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict

if __package__ in (None, ""):
    # Allow running from a checkout without PYTHONPATH.
    _src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro.analysis.sweeps import sweep  # noqa: E402
from repro.core import elect_leader  # noqa: E402
from repro.obs import PhaseTimers  # noqa: E402
from repro.parallel import election_trial, resolve_jobs  # noqa: E402
from repro.sim import Message, Network, Protocol  # noqa: E402


class Flood(Protocol):
    """Every node fans out to 4 random peers each of the first 3 rounds."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_round(self, ctx, inbox) -> None:
        if ctx.round <= 3:
            for dst in ctx.sample_nodes(4):
                ctx.send(dst, Message("X", (ctx.round,)))
        else:
            ctx.idle()


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall-clock over ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_engine(quick: bool) -> Dict[str, Any]:
    n, horizon = (256, 8) if quick else (1024, 10)
    repeats = 3 if quick else 5

    def run() -> int:
        return Network(n, Flood, seed=1).run(horizon).metrics.messages_sent

    messages = run()  # warm-up + message count
    seconds = best_of(run, repeats)
    return {
        "n": n,
        "horizon": horizon,
        "messages": messages,
        "seconds": round(seconds, 6),
        "messages_per_second": round(messages / seconds, 1),
        "repeats": repeats,
    }


def bench_obs_overhead(quick: bool) -> Dict[str, Any]:
    """The engine workload against the three observability modes.

    ``seconds_base`` runs the uninstrumented default (shared NULL_TIMERS),
    ``seconds_noop`` threads an explicitly disabled PhaseTimers through the
    same run, and ``seconds_profiled`` enables profiling.  The headline
    number is ``noop_ratio = seconds_noop / seconds_base`` — the cost every
    *un-profiled* run pays for the instrumentation hooks.
    """
    n, horizon = (256, 8) if quick else (1024, 10)
    repeats = 3 if quick else 5

    def run(timers) -> int:
        return (
            Network(n, Flood, seed=1, timers=timers)
            .run(horizon)
            .metrics.messages_sent
        )

    run(None)  # warm-up
    seconds_base = best_of(lambda: run(None), repeats)
    seconds_noop = best_of(lambda: run(PhaseTimers(enabled=False)), repeats)
    seconds_profiled = best_of(lambda: run(PhaseTimers()), repeats)
    return {
        "n": n,
        "horizon": horizon,
        "repeats": repeats,
        "seconds_base": round(seconds_base, 6),
        "seconds_noop": round(seconds_noop, 6),
        "seconds_profiled": round(seconds_profiled, 6),
        "noop_ratio": round(seconds_noop / seconds_base, 4),
        "profiled_ratio": round(seconds_profiled / seconds_base, 4),
    }


def check_obs_overhead(row: Dict[str, Any], max_ratio: float = 1.05) -> bool:
    """True when the no-op observability path is within the budget.

    A small absolute slack (1 ms) keeps the gate meaningful on quick/CI
    sizes where the base time is tiny and timer jitter dominates the
    ratio.
    """
    budget = row["seconds_base"] * max_ratio + 0.001
    return row["seconds_noop"] <= budget


def bench_single_trial(quick: bool) -> Dict[str, Any]:
    n = 128 if quick else 256
    repeats = 2 if quick else 3

    def run():
        return elect_leader(n=n, alpha=0.5, seed=2, adversary="random")

    result = run()
    seconds = best_of(run, repeats)
    return {
        "n": n,
        "alpha": 0.5,
        "adversary": "random",
        "messages": result.messages,
        "seconds": round(seconds, 6),
        "messages_per_second": round(result.messages / seconds, 1),
        "repeats": repeats,
    }


def _timed_election(
    n: int, adversary: str, backend: str, repeats: int, seed: int = 2
) -> Dict[str, Any]:
    """One full election, best-of-``repeats``, on the given backend."""

    def run():
        return elect_leader(n=n, alpha=0.5, seed=seed, adversary=adversary, backend=backend)

    result = run()  # warm-up (vec: first call pays the numpy import)
    seconds = best_of(run, repeats)
    return {
        "n": n,
        "alpha": 0.5,
        "adversary": adversary,
        "backend": backend,
        "messages": result.messages,
        "seconds": round(seconds, 6),
        "messages_per_second": round(result.messages / seconds, 1),
        "repeats": repeats,
    }


def bench_backends(quick: bool) -> Dict[str, Any]:
    """The cross-backend comparison: ``engine_ref``/``engine_vec``/``speedup``.

    Fault-free election so the round-loop dominates; the faulty variant
    is recorded separately because its crash phase replays the reference
    adversary in Python (exact-parity requirement) and gains less.
    Returns an empty-availability stanza when numpy is missing so the
    file stays well-formed on stdlib-only machines.
    """
    from repro.optdeps import have_numpy

    n = 256 if quick else 1024
    repeats = 2 if quick else 3
    ref = _timed_election(n, "none", "ref", repeats)
    if not have_numpy():
        return {
            "engine_ref": ref,
            "engine_vec": {"available": False},
            "engine_vec_faulty": {"available": False},
            "speedup": None,
        }
    vec = _timed_election(n, "none", "vec", repeats)
    assert vec["messages"] == ref["messages"], "cross-backend parity violated"
    vec_faulty = _timed_election(n, "random", "vec", repeats)
    ref_faulty = _timed_election(n, "random", "ref", repeats)
    assert vec_faulty["messages"] == ref_faulty["messages"]
    vec_faulty["speedup_vs_ref"] = round(
        vec_faulty["messages_per_second"] / ref_faulty["messages_per_second"], 3
    )
    return {
        "engine_ref": ref,
        "engine_vec": vec,
        "engine_vec_faulty": vec_faulty,
        "speedup": round(
            vec["messages_per_second"] / ref["messages_per_second"], 3
        ),
    }


def bench_large_n(quick: bool) -> Dict[str, Any]:
    """One vectorized election at n=100,000 (skipped in quick mode)."""
    from repro.optdeps import have_numpy

    if quick or not have_numpy():
        return {"skipped": True, "reason": "quick mode" if quick else "no numpy"}
    row = _timed_election(100_000, "none", "vec", repeats=1)
    row["skipped"] = False
    return row


def bench_sweep(quick: bool, jobs: int) -> Dict[str, Any]:
    grid = {"n": [32, 64], "alpha": [0.75]} if quick else {"n": [64, 128], "alpha": [0.5]}
    trials = 2 if quick else 4

    def run(j: int) -> float:
        started = time.perf_counter()
        sweep(election_trial, grid, trials=trials, master_seed=11, jobs=j)
        return time.perf_counter() - started

    run(1)  # warm-up (also pre-imports everything the workers fork)
    serial = run(1)
    parallel = run(jobs)
    return {
        "grid": {k: list(v) for k, v in grid.items()},
        "trials_per_point": trials,
        "jobs": jobs,
        "seconds_jobs1": round(serial, 6),
        "seconds_jobsN": round(parallel, 6),
        "speedup": round(serial / parallel, 3) if parallel > 0 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--jobs", type=int, default=0, help="parallel sweep width (0 = cores)"
    )
    parser.add_argument("--out", default="BENCH_sim.json", help="output path")
    parser.add_argument(
        "--check-obs-overhead",
        action="store_true",
        help="exit 1 when the disabled observability path exceeds 5% "
        "over the uninstrumented engine",
    )
    parser.add_argument(
        "--check-vec-speedup",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit 1 when the vec/ref msgs-per-second ratio falls below "
        "RATIO (skipped when numpy is unavailable or in --quick mode, "
        "where sizes are too small for the ratio to be meaningful)",
    )
    args = parser.parse_args(argv)

    jobs = resolve_jobs(args.jobs)
    payload: Dict[str, Any] = {
        "schema": 2,
        "quick": args.quick,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "engine": bench_engine(args.quick),
        "single_trial": bench_single_trial(args.quick),
        "sweep": bench_sweep(args.quick, jobs),
        "obs_overhead": bench_obs_overhead(args.quick),
        "large_n": bench_large_n(args.quick),
    }
    payload.update(bench_backends(args.quick))
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    engine = payload["engine"]
    sweep_row = payload["sweep"]
    print(
        f"engine: {engine['messages']} msgs in {engine['seconds']:.4f}s"
        f" ({engine['messages_per_second']:,.0f} msg/s)"
    )
    print(
        f"single trial: n={payload['single_trial']['n']}"
        f" {payload['single_trial']['seconds']:.4f}s"
    )
    vec = payload["engine_vec"]
    if vec.get("available") is False:
        print("backends: vec unavailable (numpy not installed)")
    else:
        ref = payload["engine_ref"]
        print(
            f"backends: n={ref['n']} ref {ref['seconds']:.4f}s"
            f" ({ref['messages_per_second']:,.0f} msg/s),"
            f" vec {vec['seconds']:.4f}s"
            f" ({vec['messages_per_second']:,.0f} msg/s)"
            f" — speedup {payload['speedup']}x"
            f" (faulty variant {payload['engine_vec_faulty']['speedup_vs_ref']}x)"
        )
    large = payload["large_n"]
    if large.get("skipped"):
        print(f"large-n: skipped ({large['reason']})")
    else:
        print(
            f"large-n: n={large['n']} vec {large['seconds']:.3f}s"
            f" ({large['messages_per_second']:,.0f} msg/s)"
        )
    print(
        f"sweep: jobs=1 {sweep_row['seconds_jobs1']:.3f}s,"
        f" jobs={jobs} {sweep_row['seconds_jobsN']:.3f}s"
        f" (speedup {sweep_row['speedup']}x on {os.cpu_count()} core(s))"
    )
    obs = payload["obs_overhead"]
    print(
        f"obs overhead: noop {obs['noop_ratio']}x, profiled"
        f" {obs['profiled_ratio']}x of base {obs['seconds_base']:.4f}s"
    )
    print(f"wrote {args.out}")
    if args.check_obs_overhead and not check_obs_overhead(obs):
        print(
            "FAIL: disabled observability path exceeds the 5% overhead "
            f"budget (noop {obs['seconds_noop']:.6f}s vs base "
            f"{obs['seconds_base']:.6f}s)",
            file=sys.stderr,
        )
        return 1
    if (
        args.check_vec_speedup is not None
        and not args.quick
        and payload["speedup"] is not None
        and payload["speedup"] < args.check_vec_speedup
    ):
        print(
            f"FAIL: vec/ref speedup {payload['speedup']}x is below the "
            f"required {args.check_vec_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
