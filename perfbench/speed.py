"""The host's speed, measured while the benchmark runs.

On a shared machine the speed of a vCPU can switch between levels about
1.5x apart, every few seconds or for minutes at a time, and CPU time moves
with wall time.  A time measured in one run then says as much about the
host as about the program.  So a run times a fixed pure-Python probe
every few milliseconds between jobs, and each measured time is scaled by
REFERENCE_MS over the probe's time around it: times are reported as they
would read on a host where one probe takes REFERENCE_MS.  The probe does
the kind of work the package does (indexing nested lists, looking up
dicts), allocates nothing the garbage collector tracks and never calls the
package, so a change to the program
moves the scaled times just as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

clock = time.perf_counter

# the probe's time on the fast level of a 2-vCPU Xeon (family 6 model 143)
# KVM guest; any constant would do, this one keeps scaled times near raw
REFERENCE_MS = 0.27
# a probe between jobs once this much time has passed since the last one
PROBE_EVERY_S = 0.02
# a time is scaled by the median of the probes this close to it, on each side
NEIGHBOURS = 4

_N = 14
_TABLE = [[(a * 7 + b * 5 + a * b) % _N for b in range(_N)] for a in range(_N)]
_FLAT = {a * _N + b: _TABLE[a][b] for a in range(_N) for b in range(_N)}


def probe_work() -> int:
    """Fixed work: a table associativity check through nested lists and a
    dict.  It allocates no object the garbage collector tracks, so the
    program's heap neither slows it nor lets it trigger a collection.
    Returns a count so the work cannot be skipped."""
    table, flat, n, hits = _TABLE, _FLAT, _N, 0
    for a in range(n):
        row = table[a]
        for b in range(n):
            ab = row[b] * n
            bn = b * n
            for c in range(n):
                hits += flat[ab + c] == row[flat[bn + c]]
    return hits


class Speed:
    """Probe samples over a run, and the scale they give a measured time."""

    def __init__(self):
        self.at = []   # probe midpoints, in clock() seconds, increasing
        self.ms = []   # probe durations in ms
        self.last = float("-inf")

    def probe(self) -> None:
        start = clock()
        probe_work()
        end = clock()
        self.at.append((start + end) / 2)
        self.ms.append((end - start) * 1000)
        self.last = end

    def maybe_probe(self) -> None:
        if clock() - self.last >= PROBE_EVERY_S:
            self.probe()

    def probes(self, n: int) -> None:
        for _ in range(n):
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the median probe time around [start, end]: the
        probes inside it and NEIGHBOURS on each side."""
        lo = max(0, bisect.bisect_left(self.at, start) - NEIGHBOURS)
        hi = bisect.bisect_right(self.at, end) + NEIGHBOURS
        return REFERENCE_MS / statistics.median(self.ms[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.ms)
