"""The slot table of a window and its geometry, written once.

A slot (k, t) holds the span-(k+1) generator starting at time t.  The
upper triangle of (k, t) holds the slots whose spans cover [t, t+k], its
lower triangle those whose spans lie inside [t, t+k].  A walk visits the
whole table; a fold order visits the generators active at one time t,
keyed (j, k) for the slot (k, t-j).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence, Tuple

from .errors import OutOfWindow

Slot = Tuple[int, int]  # (k, t): generator length k+1 starting at time t


def check_slot_table(window: Tuple[int, int], ell: int) -> int:
    """The window's length t1 - t0 + 1; OutOfWindow unless t0 <= t1 and
    0 <= ell <= t1 - t0, as no system on the window has a controllability
    index above t1 - t0."""
    t0, t1 = window
    if t1 < t0:
        raise OutOfWindow(f"empty window [{t0},{t1}]")
    if ell < 0:
        raise OutOfWindow(f"ell {ell} is negative")
    if ell > t1 - t0:
        raise OutOfWindow(f"ell {ell} exceeds the window [{t0},{t1}]: "
                          f"its longest span has ell {t1 - t0}")
    return t1 - t0 + 1


def window_slots(window: Tuple[int, int], ell: int) -> Tuple[Slot, ...]:
    """All (k, t) with [t, t+k] inside the window, in time-reverse fill order:
    columns of decreasing t, each climbed from k = 0 upward."""
    return tuple(iter_window_slots(window, ell))


def iter_window_slots(window: Tuple[int, int], ell: int) -> Iterator[Slot]:
    """`window_slots` one at a time."""
    t0, t1 = window
    return ((k, t) for t in range(t1, t0 - 1, -1)
            for k in range(0, min(ell, t1 - t) + 1))


def slot_count(window: Tuple[int, int], ell: int) -> int:
    """The number of slots `window_slots` lists, by arithmetic: row k of
    the table, 0 <= k <= min(ell, t1 - t0), holds t1 - t0 + 1 - k slots."""
    length = window[1] - window[0] + 1
    rows = max(min(ell, length - 1) + 1, 0)
    return rows * length - rows * (rows - 1) // 2


def in_slot_table(window: Tuple[int, int], ell: int, slot: Slot) -> bool:
    """Whether `slot` is in the table, by arithmetic: windows may be huge."""
    k, t = slot
    return 0 <= k <= ell and window[0] <= t <= window[1] - k


def upper_triangle_positions(window: Tuple[int, int], ell: int,
                             k: int, t: int) -> Tuple[Slot, ...]:
    """In-window positions of the upper triangle with lower vertex (k, t):
    rows kk = ell..k (top first), row kk spanning times t down to t-(kk-k).
    Rows longer than the window, and rows below 0, hold no slot, so they
    are skipped."""
    t0, t1 = window
    return tuple([(kk, s) for kk in range(min(ell, t1 - t0), max(k, 0) - 1, -1)
                  for s in range(t, t - (kk - k) - 1, -1) if t0 <= s and s + kk <= t1])


def lower_triangle_positions(window: Tuple[int, int], ell: int,
                             k: int, t: int) -> Tuple[Slot, ...]:
    """In-window positions of the lower triangle with upper vertex (k, t):
    rows kk = k..0, row kk spanning times t..t+(k-kk)."""
    t0, t1 = window
    return tuple([(kk, s) for kk in range(k, -1, -1)
                  for s in range(t, t + (k - kk) + 1) if t0 <= s and s + kk <= t1])


def lower_contains(outer: Slot, inner: Slot) -> bool:
    """Whether the lower triangle at `outer` contains the one at `inner`,
    that is, whether the upper triangle at `inner` contains `outer`'s."""
    (ko, to), (ki, ti) = outer, inner
    return ki <= ko and to <= ti <= to + ko - ki


def walk(window: Tuple[int, int], ell: int, kind: str) -> Tuple[Slot, ...]:
    """The four standard walks: the time-domain column walks in reverse
    time (`window_slots`) and in forward time (up the diagonals t + k = d),
    and the span-by-span row walks in reverse and in forward time."""
    t0, t1 = window
    if kind == "time_rev":
        return window_slots(window, ell)
    if kind == "time_fwd":
        return tuple((k, d - k) for d in range(t0, t1 + 1)
                     for k in range(0, min(ell, d - t0) + 1))
    if kind == "spec_rev":
        return tuple((k, t) for k in range(ell + 1) for t in range(t1 - k, t0 - 1, -1))
    if kind == "spec_fwd":
        return tuple((k, t) for k in range(ell + 1) for t in range(t0, t1 - k + 1))
    raise ValueError(f"unknown walk {kind!r}")


def fold_order(ell: int, kind: str) -> Tuple[Tuple[int, int], ...]:
    """The keys (j, k) of the generators active at a time t, slot (k, t-j),
    in the order the walk `kind` meets them: column-major for `time_rev`
    (newest start first, shortest span first), row-major for `spec_rev`
    (shortest span first, newest start first)."""
    if kind == "time_rev":
        return tuple((j, k) for j in range(ell + 1) for k in range(j, ell + 1))
    if kind == "spec_rev":
        return tuple((j, k) for k in range(ell + 1) for j in range(k + 1))
    raise ValueError(f"unknown fold order {kind!r}")


def fold_slots(positions: Sequence[Slot], ell: int,
               t: int) -> Tuple[Tuple[Slot, int], ...]:
    """The slots of the (0, t) triangle `positions` in the `time_rev` fold
    order at time t, each with its index in `positions`."""
    where = {p: i for i, p in enumerate(positions)}
    keys = ((k, t - j) for j, k in fold_order(ell, "time_rev"))
    return tuple((slot, where[slot]) for slot in keys if slot in where)


def children(window: Tuple[int, int], ell: int,
             anchor: Slot) -> Tuple[Optional[Slot], Optional[Slot]]:
    """The two next-largest anchors nested in `anchor`, (k+1, t) and
    (k+1, t-1), each None where it falls outside the slot table."""
    k, t = anchor
    deeper = k + 1 <= ell
    return ((k + 1, t) if deeper and t + k + 1 <= window[1] else None,
            (k + 1, t - 1) if deeper and t - 1 >= window[0] else None)


def positions_in(outer: Sequence[Slot], inner: Sequence[Slot]) -> Tuple[int, ...]:
    """The index in `outer` of each position of `inner` (KeyError where
    one is missing)."""
    where = {p: i for i, p in enumerate(outer)}
    return tuple(map(where.__getitem__, inner))


def entries_at(take: Sequence[int]) -> Callable[[tuple], tuple]:
    """A getter of the entries of a tuple at the indices `take` (at least
    one), as a tuple: one `itemgetter`, which returns a bare entry for a
    single index, so that case is wrapped."""
    if len(take) == 1:
        i = take[0]
        return lambda v: (v[i],)
    return itemgetter(*take)
