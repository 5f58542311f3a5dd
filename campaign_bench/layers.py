"""The traced layer pass: one traced campaign of every workload.

A traced run does not report end-to-end numbers.  It runs the first
campaign of each workload with the tracing seams switched on, plus two
probes the workloads cannot give from outside the pool (a cProfiled
vectorized trial and a serial fuzz batch), and turns what the seams saw
into one value per layer metric.  Every traced run makes the same pass,
starting with its own workload, so each layer metric has the same
meaning whichever workload's run reports it.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.chaos.fuzzer import fuzz_one
from repro.core import elect_leader
from repro.obs import PHASE_POOL_DISPATCH, PHASE_POOL_REASSEMBLY
from repro.rng import derive_seed

from workloads import FUZZ_SCENARIOS, JOBS, WORKLOADS, Campaign, Tracer

#: Serial fuzz trials timed for ``chaos.trial_ms``.
SERIAL_FUZZ_TRIALS = 40

#: The cProfiled vectorized trial: the size where ``sweep-vec`` spends
#: most of its time, with the scalar crash adversary switched on.
PROFILE_N = 16384

#: Engine round phases reported by ``election_trial(profile=True)``.
ENGINE_PHASES = ("step", "transmit", "crash", "deliver")


def _in_vec(func: Tuple[str, int, str]) -> bool:
    return f"{os.sep}repro{os.sep}sim{os.sep}vec{os.sep}" in func[0]


def _in_faults(func: Tuple[str, int, str]) -> bool:
    return f"{os.sep}repro{os.sep}faults{os.sep}" in func[0]


def _in_random(func: Tuple[str, int, str]) -> bool:
    filename, _, name = func
    return filename.endswith(f"{os.sep}random.py") or "_random.Random" in name


def entry_seconds(
    stats: Dict[Any, Any],
    inside: Callable[[Tuple[str, int, str]], bool],
    caller_ok: Callable[[Tuple[str, int, str]], bool] = lambda func: True,
) -> float:
    """Cumulative time on the call edges that enter a layer from outside.

    ``caller_ok`` narrows the edges to those whose caller it accepts.
    """
    total = 0.0
    for func, (_, _, _, _, callers) in stats.items():
        if not inside(func):
            continue
        for caller, edge in callers.items():
            if not inside(caller) and caller_ok(caller):
                total += edge[3]
    return total


def profile_vec_trial(seed: int) -> Dict[str, float]:
    """Where one large vectorized trial with random crashes spends its time.

    The three shares are disjoint: the adversary (with the randomness it
    draws), the ``random`` calls made by anything else (per-node stream
    replay), and the vectorized engine minus both.  cProfile taxes every
    Python call and not the numpy kernels, so it overstates the first two.
    """
    trial_seed = derive_seed(seed, "campaign-bench", "vec-profile")

    def run() -> None:
        elect_leader(
            n=PROFILE_N, alpha=0.5, seed=trial_seed, adversary="random", backend="vec"
        )

    start = time.perf_counter()
    run()
    trial_s = time.perf_counter() - start
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.runcall(run)
    profiled_s = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    adversary = entry_seconds(stats, _in_faults)
    replay = entry_seconds(stats, _in_random, lambda caller: not _in_faults(caller))
    kernels = (
        entry_seconds(stats, _in_vec)
        - entry_seconds(stats, _in_faults, _in_vec)
        - entry_seconds(stats, _in_random, _in_vec)
    )
    return {
        "vec.trial_s": trial_s,
        "vec.kernel_share": kernels / profiled_s,
        "faults.adversary_share": adversary / profiled_s,
        "rng.replay_share": replay / profiled_s,
    }


def serial_fuzz_ms(seed: int) -> float:
    """Mean wall time of one serial ``fuzz_one`` over the first seeds."""
    start = time.perf_counter()
    for index in range(SERIAL_FUZZ_TRIALS // len(FUZZ_SCENARIOS)):
        for scenario in FUZZ_SCENARIOS:
            trial_seed = derive_seed(seed, "fuzz", scenario.protocol, index)
            fuzz_one(scenario, trial_seed)
    return (time.perf_counter() - start) * 1000 / SERIAL_FUZZ_TRIALS


def _p50_us(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e6


def _sweep_ref_layers(campaign: Campaign) -> Dict[str, float]:
    journal = campaign.probes["journal"]
    stats = campaign.probes["executor"].last_supervisor_stats
    values = [
        record["value"]
        for record in journal.iter_records()
        if record.get("status") == "ok"
    ]
    busy = sum(campaign.trial_s)
    layers = {
        f"sim.{phase}_s": statistics.fmean(
            value["phase_seconds"].get(phase, 0.0) for value in values
        )
        for phase in ENGINE_PHASES
    }
    layers.update(
        {
            "sim.msgs_per_trial": campaign.messages / campaign.trials,
            "parallel.busy_ratio": busy / (campaign.wall_s * JOBS),
            "parallel.overhead_s": campaign.wall_s - busy / JOBS,
            "parallel.chunks": stats.dispatched_chunks,
            "parallel.pool_restarts": stats.pool_rebuilds,
            "exec.journal_append_us_p50": _p50_us(journal.append_seconds),
            "exec.journal_appends": len(journal.append_seconds),
            "exec.journal_bytes": campaign.probes["path"].stat().st_size,
        }
    )
    return layers


def _sweep_vec_layers(campaign: Campaign) -> Dict[str, float]:
    totals = campaign.probes["timers"].totals
    return {
        "parallel.dispatch_s": totals.get(PHASE_POOL_DISPATCH, 0.0),
        "parallel.reassembly_s": totals.get(PHASE_POOL_REASSEMBLY, 0.0),
    }


def _fuzz_layers(campaign: Campaign, serial_ms: float) -> Dict[str, float]:
    parallel_rate = campaign.trials / campaign.wall_s
    return {
        "chaos.trial_ms": serial_ms,
        "chaos.waves": campaign.trials / (JOBS * len(FUZZ_SCENARIOS)),
        "chaos.parallel_efficiency": parallel_rate / (JOBS * 1000 / serial_ms),
    }


def _serve_layers(campaigns: List[Campaign], workload: Any) -> Dict[str, float]:
    cache = workload.service.cache
    _, counters = workload.request("GET", "/cache")
    lookups = counters["hits"] + counters["misses"]
    return {
        "serve.cache_get_us_p50": _p50_us(cache.get_seconds),
        "serve.cache_put_us_p50": _p50_us(cache.put_seconds),
        "serve.cache_hit_ratio": counters["hits"] / lookups,
        "serve.submit_ms_p50": statistics.median(
            c.probes["submit_s"] for c in campaigns
        ) * 1000,
        "serve.queue_wait_ms_p50": statistics.median(
            c.probes["queue_wait_s"] for c in campaigns
        ) * 1000,
        "serve.stream_records": statistics.fmean(c.probes["records"] for c in campaigns),
        "serve.stream_bytes": statistics.fmean(c.probes["bytes"] for c in campaigns),
    }


def layer_pass(
    first: str, seed: int, workdir: Path, tracer: Tracer
) -> Tuple[Dict[str, float], Dict[str, Campaign], List[str]]:
    """Run the pass: (layer metrics, traced campaign per workload, set-up problems)."""
    names = list(WORKLOADS)
    start = names.index(first)
    metrics: Dict[str, float] = {}
    campaigns: Dict[str, Campaign] = {}
    problems: List[str] = []
    for name in names[start:] + names[:start]:
        tracer.workload = name
        workload = WORKLOADS[name](seed, workdir, tracer)
        try:
            with tracer.span(f"{name}.setup"):
                workload.setup()
                workload.prepare()
            problems.extend(workload.setup_problems)
            with tracer.span(f"{name}.campaign"):
                campaign = workload.campaign(0)
            campaigns[name] = campaign
            if name == "sweep-ref":
                metrics.update(_sweep_ref_layers(campaign))
            elif name == "sweep-vec":
                metrics.update(_sweep_vec_layers(campaign))
                with tracer.span("vec.profile"):
                    metrics.update(profile_vec_trial(seed))
            elif name == "fuzz-budget":
                with tracer.span("chaos.serial"):
                    serial_ms = serial_fuzz_ms(workload.master_seed(0))
                metrics.update(_fuzz_layers(campaign, serial_ms))
            elif name == "serve-cached":
                # Preparing ran a cold campaign and its extension: with
                # the resubmission they cover writes, a mix and reads.
                metrics.update(_serve_layers(workload.populated + [campaign], workload))
        finally:
            workload.close()
    return metrics, campaigns, problems
