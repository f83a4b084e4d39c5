"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about two minutes.  It checks that a
tampered verdict makes a run fail, that times are scaled by the probes
around them, that the printed metrics are the ones
BENCHMARK.json names, that the spans of two traced runs with different
PYTHONHASHSEED agree in everything but their times, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import shutil
import subprocess
import sys
import unittest

import run
import speed
import workloads
from tracing import span_signature

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRIPT = str(run.ROOT / "perfbench" / "run.py")


def bench_run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, SCRIPT, *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=300)


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def printed(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["unit"] for name, m in result["metrics"].items()}


class TamperedVerdicts(unittest.TestCase):
    """A wrong known answer, or a negative the program accepts, must fail."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.ROOT / "src"))
        cls.gs = run.import_package()

    def run_round(self, wl) -> run.Tally:
        tally = run.Tally()
        run.run_rounds(wl, tally, 1)
        return tally

    def test_clean_round_passes(self):
        tally = self.run_round(workloads.Construct(self.gs, 1))
        self.assertGreater(tally.attempted, 0)
        self.assertEqual(tally.failed, 0)

    def test_wrong_order_fails(self):
        wl = workloads.Construct(self.gs, 1)
        jobs = wl.rounds[0]
        i = next(i for i, job in enumerate(jobs) if not job.negative)
        jobs[i] = dataclasses.replace(jobs[i], expect=jobs[i].expect + 1)
        self.assertGreater(self.run_round(wl).failed, 0)

    def test_accepted_negative_fails(self):
        wl = workloads.Query(self.gs, 1)
        jobs = wl.rounds[0]
        i = next(i for i, job in enumerate(jobs) if job.negative and job.kind == "codec")
        name = jobs[i].payload[0]
        member = wl.sessions[name].members[-1]  # decoding a member succeeds
        jobs[i] = dataclasses.replace(jobs[i], payload=(name, member))
        self.assertGreater(self.run_round(wl).failed, 0)


class SpeedScale(unittest.TestCase):
    """A time is scaled by the median of the probes around it."""

    def test_scale_uses_nearby_probes(self):
        sp = speed.Speed()
        sp.at = [float(t) for t in range(20)]
        sp.ms = [speed.REFERENCE_MS] * 10 + [2 * speed.REFERENCE_MS] * 10
        self.assertEqual(sp.scale(2.5, 3.5), 1.0)
        self.assertEqual(sp.scale(15.5, 16.5), 0.5)

    def test_probe_allocates_no_tracked_objects(self):
        gc.collect()
        before = gc.get_count()[0]
        speed.probe_work()
        self.assertLessEqual(gc.get_count()[0] - before, 2)


class Output(unittest.TestCase):

    def test_end_to_end_metrics_match_declaration(self):
        proc = bench_run("--workload", "construct", "--seed", "3", "--seconds", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(printed(proc), declared("end_to_end"))

    def test_traced_spans_are_deterministic(self):
        """Span names and counts, not times, agree across hash seeds; the
        per-layer metrics are the declared ones."""
        out = run.OUT / "selftest"
        out.mkdir(parents=True, exist_ok=True)
        signatures = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--workload", "construct", "--seed", "5",
                 "--seconds", "1", "--trace", "1"],
                cwd=run.ROOT, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertTrue(json.loads(proc.stdout.strip().splitlines()[-1])["correct"])
            self.assertEqual(printed(proc), declared("per_layer"))
            kept = out / f"trace-hashseed{hash_seed}.jsonl"
            run.trace_path("construct").replace(kept)
            signatures.append(span_signature(kept))
            kept.unlink()
        self.assertGreater(len(signatures[0]), 0)
        self.assertEqual(signatures[0], signatures[1])


class Refusal(unittest.TestCase):

    def test_refuses_without_sources(self):
        bare = run.OUT / "selftest" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "extract", "--seed", "1",
             "--seconds", "1"], cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
