"""Benchmark runner for groupsystems: one workload per invocation.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the run sets up several times, runs whole rounds of jobs in a
closed loop (one client, one process, no threads) until --seconds have
passed, and reports the end-to-end metrics, every time scaled by the
host's speed as probed between jobs (speed.py).  With --trace 1 it runs the
same untraced loop, then sets up again and runs a fixed number of rounds
with every traced function wrapped, then the stage ladder, and reports the
per-layer metrics; the spans go to a JSON-lines file.  Every job's verdict
is checked.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from ladder import LADDER, run_system, stage_table
from speed import REFERENCE_MS, Speed
from tracing import TRACED_FUNCTIONS, TRACED_MEMBERS, Tracer, count_children, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SUBMODULES = ("chains", "elementary", "errors", "extensions", "generators",
              "groups", "io", "systems")
LAYERS = ("io", "systems", "generators", "elementary", "extensions", "groups", "chains")
SETUP_REPEATS = 5
# probes before and after each set-up, and after the timed loop
SETUP_PROBES = 10
# fixed work in the traced pass, so its span counts repeat exactly
TRACE_ROUNDS = {"extract": 1, "construct": 1, "query": 20}
MAX_FAILURES_SHOWN = 5

clock = time.perf_counter


def import_package():
    """Import groupsystems afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "groupsystems" or n.startswith("groupsystems.")]:
        del sys.modules[name]
    pkg = importlib.import_module("groupsystems")
    src = (ROOT / "src").resolve()
    if src not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"groupsystems was imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"groupsystems.{m}") for m in SUBMODULES})


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem: str) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if self.failed <= MAX_FAILURES_SHOWN:
                print(f"FAILED {what}: {problem}", file=sys.stderr)


def run_job(wl, job, tally: Tally, tracer=None) -> tuple:
    """Run one job and check its verdict; return its start and its
    latency in seconds."""
    start = clock()
    try:
        if tracer is None:
            result = wl.call(job)
        else:
            tracer.job = tally.attempted
            result = tracer.call(f"job.{job.kind}", wl.call, job)
        error = None
    except Exception as exc:  # the verdict decides whether it was expected
        result, error = None, exc
    elapsed = clock() - start
    tally.record(f"{wl.name} job {job.key!r}", wl.verdict(job, result, error))
    return start, elapsed


def run_rounds(wl, tally: Tally, min_rounds: int, seconds: float = 0.0, tracer=None,
               speed: Speed | None = None):
    """Whole rounds: at least `min_rounds`, and until `seconds` have passed.
    With `speed`, the host's speed is probed between jobs.  Returns
    (per job (start, latency in s), jobs per round, elapsed seconds)."""
    timings, rounds = [], []
    start = clock()
    while len(rounds) < min_rounds or clock() - start < seconds:
        jobs = wl.round(len(rounds))
        for job in jobs:
            if speed is not None:
                speed.maybe_probe()
            timings.append(run_job(wl, job, tally, tracer))
        rounds.append(len(jobs))
    return timings, rounds, clock() - start


def trace_path(workload: str) -> Path:
    """One file per workload: the latest traced run's spans."""
    return OUT / f"trace-{workload}.jsonl"


def nearest_rank(sorted_values: list, p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def set_up(workload: str, seed: int, speed: Speed):
    """SETUP_REPEATS fresh imports and workload set-ups; returns the last
    one and the median set-up time, each scaled by the host's speed around
    it."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probes(SETUP_PROBES)
        start = clock()
        gs = import_package()
        wl = WORKLOADS[workload](gs, seed)
        end = clock()
        speed.probes(SETUP_PROBES)
        times.append((end - start) * speed.scale(start, end))
    return gs, wl, statistics.median(times), times


def scaled_ms(speed: Speed, timings: list) -> list:
    """Each latency in ms as it would read at the reference speed (speed.py)."""
    return [e * speed.scale(s, s + e) * 1000 for s, e in timings]


def end_to_end(args) -> tuple:
    speed = Speed()
    _, wl, setup_s, setup_times = set_up(args.workload, args.seed, speed)
    tally = Tally()
    timings, rounds, elapsed = run_rounds(wl, tally, 1, args.seconds, speed=speed)
    speed.probes(SETUP_PROBES)
    lat = sorted(scaled_ms(speed, timings))
    raw = sorted(e * 1000 for _, e in timings)
    p90 = nearest_rank(lat, 0.9)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(lat) * 1000 / sum(lat), "1/s"),
        "job_ms_p50": (nearest_rank(lat, 0.5), "ms"),
        "job_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = sum(1 for x in lat if x > p90)
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} jobs in "
          f"{len(rounds)} rounds, {elapsed:.2f} s; scaled set-ups "
          + " ".join(f"{t:.4f}" for t in setup_times) + " s")
    print(f"host speed: {len(speed.ms)} probes, median {speed.median_ms():.4f} ms, "
          f"reference {REFERENCE_MS} ms; unscaled jobs_per_s "
          f"{len(raw) * 1000 / sum(raw):.4f}, job_ms_p50 {nearest_rank(raw, 0.5):.4f}, "
          f"job_ms_p90 {nearest_rank(raw, 0.9):.4f}")
    notes = {"job_ms_p50": f"n={len(lat)}", "job_ms_p90": f"n={len(lat)}, {beyond} beyond"}
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond the 90th percentile", file=sys.stderr)
    return metrics, tally, notes


def per_layer(args) -> tuple:
    tally = Tally()
    n_rounds = TRACE_ROUNDS[args.workload]
    speed = Speed()
    gs, wl, _, _ = set_up(args.workload, args.seed, speed)
    # rounds [K, 2K) have the traced rounds' mix and run on a warm process
    timings, untraced_rounds, _ = run_rounds(wl, tally, 2 * n_rounds, args.seconds,
                                             speed=speed)
    first = sum(untraced_rounds[:n_rounds])
    untraced = timings[first:first + sum(untraced_rounds[n_rounds:2 * n_rounds])]

    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = "setup"
        wl = tracer.call("setup", type(wl), gs, args.seed)
        traced, _, _ = run_rounds(wl, tally, n_rounds, 0.0, tracer, speed)
        speed.probes(SETUP_PROBES)
        ladder = {}
        for name, what, order in LADDER:
            tracer.job = f"ladder:{name}"
            try:
                problem = tracer.call(f"ladder.{name}", run_system, gs, name, order)
            except Exception as exc:  # a ladder system that raises is a failed verdict
                problem = f"raised {type(exc).__name__}: {exc}"
            tally.record(f"ladder {name} ({what})", problem)
            ladder[name] = {n: row["self_s"] for n, row in
                            summarize(tracer, lambda j, name=name: j == f"ladder:{name}").items()}
    finally:
        tracer.uninstall()

    trace_file = trace_path(args.workload)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(trace_file)

    untraced_rate = len(untraced) * 1000 / sum(scaled_ms(speed, untraced))
    traced_rate = len(traced) * 1000 / sum(scaled_ms(speed, traced))
    # per-layer metrics cover the whole trace: set-up, rounds and ladder
    rows = summarize(tracer)
    metrics = {}
    targets = [f"{m}.{f}" for m, f in TRACED_FUNCTIONS] + [n for *_, n in TRACED_MEMBERS]
    for name in targets:
        row = rows.get(name, {})
        metrics[f"{name}.calls"] = (int(row.get("calls", 0)), "count")
        metrics[f"{name}.self_s"] = (row.get("self_s", 0.0), "s")
    builds, _ = count_children(tracer, "systems.GroupSystem.sequence_group",
                               "groups.FiniteGroup")
    metrics["systems.GroupSystem.sequence_group.builds"] = (builds, "count")
    rejected = int(rows.get("groups.FiniteGroup", {}).get("error", 0))
    metrics["groups.FiniteGroup.rejected"] = (rejected, "count")
    _, candidates = count_children(tracer, "extensions.enumerate_extensions",
                                   "groups.FiniteGroup")
    kept = int(rows.get("extensions.enumerate_extensions", {}).get("kept", 0))
    metrics["extensions.candidates"] = (candidates, "count")
    metrics["extensions.kept"] = (kept, "count")
    metrics["extensions.kept_ratio"] = (kept / candidates if candidates else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            sum(r["self_s"] for n, r in rows.items() if n.split(".")[0] == layer), "s")
    metrics["tracing.jobs_per_s"] = (traced_rate, "1/s")
    metrics["tracing.overhead_jobs_per_s"] = (traced_rate - untraced_rate, "1/s")

    # self-time shares of the traced jobs, by layer
    job_rows = summarize(tracer, lambda j: isinstance(j, int))
    total = sum(r["self_s"] for r in job_rows.values())
    shares = {}
    for name, row in job_rows.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + row["self_s"] / total
    print(f"workload {args.workload} seed {args.seed}: traced {len(traced)} jobs in "
          f"{n_rounds} rounds; jobs_per_s traced {traced_rate:.3f}, untraced "
          f"{untraced_rate:.3f} (same rounds)")
    print("job self-time share by layer: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
        + f"; groups.is_normal alone {job_rows['groups.is_normal']['self_s'] / total:.3f}")
    print(f"stage ladder, traced once ({len(tracer.spans)} spans written to {trace_file}):")
    print(stage_table(ladder))
    if tracer.skipped:
        print("not traced (absent from the package): " + ", ".join(tracer.skipped))
    return metrics, tally, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "groupsystems" / "__init__.py").is_file():
        print(f"error: no groupsystems sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    metrics, tally, notes = (per_layer if args.trace else end_to_end)(args)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    print(f"  failed_ratio: {tally.failed}/{tally.attempted}"
          f" = {tally.failed / tally.attempted:.4g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
