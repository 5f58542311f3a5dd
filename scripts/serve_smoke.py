#!/usr/bin/env python3
"""End-to-end smoke of the campaign service (docs/SERVE.md).

Drives a real ``repro serve`` subprocess over HTTP and proves the four
properties the service advertises:

* **Scenario A — fresh campaign.**  Submit a sweep over HTTP
  (``jobs=2``), stream it to completion, verify every streamed record's
  journal-v2 checksum, and check the aggregated points are byte-identical
  (canonical JSON) to an in-process serial ``sweep()`` reference.
* **Scenario B — cached resubmission.**  Submit the identical spec again
  and require 100% cache hits: zero dispatched trials, zero dispatched
  pool chunks, and a byte-identical result.
* **Scenario C — worker murder.**  Submit a fresh campaign and ``kill
  -9`` a pool worker mid-stream; the supervised pool must rebuild,
  the stream must complete, and the result must still be byte-identical
  to the serial reference.
* **Scenario D — serial extension.**  Submit scenario A's spec with one
  more ``n`` at ``jobs=1``: the settle pass must answer all of scenario
  A's trials from the cache, only the new point's trials may run (in
  process: zero pool chunks), and the points must be byte-identical to
  a serial ``sweep()`` reference.

Exits 0 when every check passes, 1 otherwise.  Linux-only (worker
discovery walks /proc).
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.sweeps import sweep  # noqa: E402
from repro.exec import default_serialize  # noqa: E402
from repro.exec.journal import CRC_KEY, SEQ_KEY, record_crc  # noqa: E402
from repro.parallel.tasks import election_trial  # noqa: E402


def log(message):
    print(f"[serve-smoke] {message}", file=sys.stderr, flush=True)


def fail(message):
    log(f"FAIL: {message}")
    return False


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def serial_reference(grid, trials, master_seed):
    rows = sweep(election_trial, grid, trials=trials, master_seed=master_seed)
    return [
        {
            "point": point,
            "results": [default_serialize(value) for value in results],
            "failed": 0,
        }
        for point, results in rows
    ]


def post_json(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as resp:
        return json.load(resp)


def get_json(base, path):
    with urllib.request.urlopen(base + path, timeout=60) as resp:
        return json.load(resp)


def stream_records(base, path, timeout):
    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return [json.loads(line) for line in resp.read().decode().splitlines()]


def verify_seals(records):
    """Every streamed record must carry a valid journal-v2 envelope."""
    for expected_seq, sealed in enumerate(records):
        if sealed.get(SEQ_KEY) != expected_seq:
            return fail(
                f"stream sequence gap: got {sealed.get(SEQ_KEY)}, "
                f"expected {expected_seq}"
            )
        payload = {k: v for k, v in sealed.items() if k not in (CRC_KEY, SEQ_KEY)}
        if sealed.get(CRC_KEY) != record_crc(payload):
            return fail(f"stream record {expected_seq} fails its checksum")
    return True


def worker_pids(parent_pid):
    """Pool-worker children of ``parent_pid`` (resource tracker excluded).

    The serve process forks its pool from a background thread, so the
    children hang off that thread's task id — scan every task, not just
    the main one.
    """
    pids = []
    for children_path in Path(f"/proc/{parent_pid}/task").glob("*/children"):
        try:
            pids.extend(int(p) for p in children_path.read_text().split())
        except (OSError, ValueError):
            continue
    workers = []
    for pid in pids:
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline and b"semaphore_tracker" not in cmdline:
            workers.append(pid)
    return workers


def start_server(args, workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            str(workdir / "cache"),
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"serve did not announce a port: {line!r}")
    port = int(match.group(1))
    log(f"serve pid {proc.pid} listening on port {port}")
    return proc, f"http://127.0.0.1:{port}"


def scenario_fresh(base, spec, reference, timeout):
    """Scenario A: fresh campaign over HTTP, jobs=2, vs serial reference."""
    submitted = post_json(base, "/campaigns", spec)
    log(f"scenario A: submitted {submitted['job']}")
    records = stream_records(base, submitted["stream_url"], timeout)
    if not verify_seals(records):
        return False, None
    summary = records[-1]
    if summary.get("kind") != "summary":
        return fail("scenario A: stream did not end with a summary"), None
    if summary["failed"]:
        return fail(f"scenario A: {summary['failed']} trial(s) failed"), None
    if summary["dispatched_chunks"] < 1:
        return fail("scenario A: a jobs=2 campaign dispatched no chunks"), None
    if canonical(summary["points"]) != canonical(reference):
        return fail("scenario A: points differ from the serial reference"), None
    log(
        f"scenario A: {summary['total_trials']} trials, "
        f"{summary['dispatched_chunks']} chunks, byte-identical to serial"
    )
    return True, summary


def scenario_cached(base, spec, fresh_summary, timeout):
    """Scenario B: identical resubmission must be 100% cache, 0 dispatches."""
    submitted = post_json(base, "/campaigns", spec)
    log(f"scenario B: resubmitted as {submitted['job']}")
    records = stream_records(base, submitted["stream_url"], timeout)
    if not verify_seals(records):
        return False
    summary = records[-1]
    total = summary["total_trials"]
    ok = True
    if summary["cache_hits"] != total:
        ok = fail(
            f"scenario B: {summary['cache_hits']}/{total} cache hits, "
            "expected all"
        )
    if summary["dispatched_trials"] != 0 or summary["dispatched_chunks"] != 0:
        ok = fail(
            "scenario B: cached resubmission touched the pool "
            f"(trials={summary['dispatched_trials']}, "
            f"chunks={summary['dispatched_chunks']})"
        )
    statuses = {r["status"] for r in records if "status" in r}
    if statuses != {"cached"}:
        ok = fail(f"scenario B: unexpected trial statuses {sorted(statuses)}")
    if canonical(summary["points"]) != canonical(fresh_summary["points"]):
        ok = fail("scenario B: cached points differ from the fresh run")
    if ok:
        log(f"scenario B: all {total} trials served from cache, zero dispatches")
    return ok


def scenario_worker_murder(base, spec, reference, serve_pid, timeout):
    """Scenario C: kill -9 a pool worker mid-campaign; result unchanged."""
    killed = []
    stop = threading.Event()

    def killer():
        deadline = time.monotonic() + timeout
        while not stop.is_set() and time.monotonic() < deadline:
            for pid in worker_pids(serve_pid):
                if pid not in killed:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        continue
                    killed.append(pid)
                    log(f"scenario C: killed worker {pid}")
                    return
            time.sleep(0.05)

    submitted = post_json(base, "/campaigns", spec)
    log(f"scenario C: submitted {submitted['job']}")
    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    records = stream_records(base, submitted["stream_url"], timeout)
    stop.set()
    thread.join(timeout=5)

    if not verify_seals(records):
        return False
    summary = records[-1]
    ok = True
    if not killed:
        ok = fail("scenario C: no worker was killed — campaign too short")
    if summary.get("kind") != "summary":
        ok = fail("scenario C: stream did not end with a summary")
    elif summary["failed"]:
        ok = fail(f"scenario C: {summary['failed']} trial(s) failed")
    elif canonical(summary["points"]) != canonical(reference):
        ok = fail("scenario C: points differ from the serial reference")
    if ok:
        log(
            "scenario C: campaign survived the murder, "
            "result byte-identical to serial"
        )
    return ok


def scenario_extension(base, spec, fresh_summary, reference, timeout):
    """Scenario D: scenario A plus one n at jobs=1; A's trials are hits."""
    submitted = post_json(base, "/campaigns", spec)
    log(f"scenario D: submitted {submitted['job']}")
    records = stream_records(base, submitted["stream_url"], timeout)
    if not verify_seals(records):
        return False
    summary = records[-1]
    if summary.get("kind") != "summary":
        return fail("scenario D: stream did not end with a summary")
    hits = fresh_summary["total_trials"]
    new_trials = summary["total_trials"] - hits
    ok = True
    if summary["cache_hits"] != hits:
        ok = fail(f"scenario D: {summary['cache_hits']} cache hits, expected {hits}")
    if summary["dispatched_trials"] != new_trials or summary["dispatched_chunks"]:
        ok = fail(
            f"scenario D: expected {new_trials} in-process trials and no chunks "
            f"(trials={summary['dispatched_trials']}, "
            f"chunks={summary['dispatched_chunks']})"
        )
    if summary["failed"]:
        ok = fail(f"scenario D: {summary['failed']} trial(s) failed")
    if canonical(summary["points"]) != canonical(reference):
        ok = fail("scenario D: points differ from the serial reference")
    if ok:
        log(
            f"scenario D: {hits} cache hits, {new_trials} trials run at jobs=1, "
            "byte-identical to serial"
        )
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="96,128", help="sweep n axis")
    parser.add_argument("--trials", type=int, default=6, help="trials per point")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workdir", default="serve-smoke-work")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args()

    if not sys.platform.startswith("linux"):
        log("SKIP: worker discovery requires /proc (Linux)")
        return 0

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    grid = {"n": [int(n) for n in args.n.split(",")], "alpha": [0.5]}
    spec = {
        "task": "election",
        "grid": grid,
        "trials": args.trials,
        "master_seed": args.seed,
        "jobs": 2,
    }

    log(f"serial reference: {args.n} x {args.trials} trials")
    reference = serial_reference(grid, args.trials, args.seed)
    murder_seed = args.seed + 1
    murder_reference = serial_reference(grid, args.trials, murder_seed)
    extended_grid = dict(grid, n=grid["n"] + [max(grid["n"]) + 32])
    extended_spec = dict(spec, grid=extended_grid, jobs=1)
    extended_reference = serial_reference(extended_grid, args.trials, args.seed)

    proc, base = start_server(args, workdir)
    try:
        health = get_json(base, "/health")
        log(f"health: {health}")
        ok_a, fresh_summary = scenario_fresh(base, spec, reference, args.timeout)
        ok_b = bool(ok_a) and scenario_cached(
            base, spec, fresh_summary, args.timeout
        )
        murder_spec = dict(spec, master_seed=murder_seed)
        ok_c = scenario_worker_murder(
            base, murder_spec, murder_reference, proc.pid, args.timeout
        )
        ok_d = bool(ok_a) and scenario_extension(
            base, extended_spec, fresh_summary, extended_reference, args.timeout
        )
        cache_stats = get_json(base, "/cache")
        log(f"cache stats: {cache_stats}")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()

    if ok_a and ok_b and ok_c and ok_d:
        log("all scenarios passed")
        return 0
    log("serve smoke FAILED")
    return 1


if __name__ == "__main__":
    sys.exit(main())
