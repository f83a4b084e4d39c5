"""Group systems on a finite time window.

A system is a finite set of sequences over per-time alphabet groups, closed
under the componentwise operation, with every alphabet letter realized.
Sequences outside the window are implicitly the identity, so the window
boundary acts like an identity past and future.

The decomposition machinery lives here: the one-sided subgroups X^t / Y^t,
the controllability index, the time-domain and finite-extent granules, the
canonical generator basis, the two encoders, and the tensor decode.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BoundExceeded,
    NotAGroupSystem,
    NotAMember,
    NotControllableOnWindow,
    OutOfWindow,
)
from .groups import FiniteGroup, class_table, close_greedily
from .slots import Slot, fold_order, positions_in, walk, window_slots

DEFAULT_MEMBER_CAP = 2 ** 16
# a built system's size in letters, members times window length: the size
# of its letter columns, and of each cut's id column in the controllability
# index; 2^17 members on 17 times take an eighth of it
LETTER_CAP = 2 ** 24

Seq = Tuple[int, ...]


class GroupSystem:
    """A complete group system restricted to the window [t0, t1]."""

    def __init__(self, window: Tuple[int, int], alphabets: Sequence[FiniteGroup],
                 sequences: Iterable[Seq], name: str = "A",
                 member_cap: int = DEFAULT_MEMBER_CAP, _closed: bool = False):
        t0, t1 = int(window[0]), int(window[1])
        if t1 < t0:
            raise OutOfWindow(f"empty window [{t0},{t1}]")
        self.window = (t0, t1)
        self.alphabets = tuple(alphabets)
        self._op_tables = tuple(g.op_table for g in self.alphabets)
        if len(self.alphabets) != t1 - t0 + 1:
            raise NotAGroupSystem("alphabet count does not match window")
        # a closed member set holds distinct tuples of ints already
        members = sorted(sequences if _closed
                         else {tuple(map(int, s)) for s in sequences})
        if len(members) > member_cap:
            raise BoundExceeded(f"GroupSystem {name}: {len(members)} members "
                                f"exceed cap {member_cap}")
        self.sequences: Tuple[Seq, ...] = tuple(members)
        self.name = name
        self._index = {s: i for i, s in enumerate(self.sequences)}
        self._controllability: Optional[int] = None
        self._validate(closed=_closed)

    # -- basic structure --------------------------------------------------

    @property
    def length(self) -> int:
        return self.window[1] - self.window[0] + 1

    def times(self) -> range:
        return range(self.window[0], self.window[1] + 1)

    def alphabet(self, t: int) -> FiniteGroup:
        t0, t1 = self.window
        if not t0 <= t <= t1:
            raise OutOfWindow(f"time {t} outside [{t0},{t1}]")
        return self.alphabets[t - t0]

    @property
    def identity(self) -> Seq:
        return (0,) * self.length

    def letter(self, seq: Seq, t: int) -> int:
        return seq[t - self.window[0]]

    def mul(self, a: Seq, b: Seq) -> Seq:
        return tuple(op[x][y] for op, x, y in zip(self._op_tables, a, b))

    @cached_property
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        """The members as per-time letter columns: columns[p][i] is the
        letter of member i at time t0 + p."""
        return tuple(zip(*self.sequences))

    @cached_property
    def _op_columns(self) -> Tuple[tuple, ...]:
        """Per time, the transposed operation table: [p][y][x] = x*y."""
        return transposed_tables(self.alphabets)

    def translate(self, columns: Sequence[Sequence[int]], s: Seq,
                  right: bool = True) -> List[int]:
        """Member indices of a*s (right) or s*a (left) for the sequences a
        given as per-time letter columns.

        The letter of a*s at time p is column s_p of the time-p table read
        at a's letter, and that of s*a is row s_p (`move_columns`); the
        zipped rows are looked up in the member index.  A product outside
        the member set raises KeyError."""
        lines = self._op_columns if right else self._op_tables
        moved = move_columns(lines, columns, s)
        return list(map(self._index.__getitem__, zip(*moved)))

    def inverse(self, a: Seq) -> Seq:
        return tuple(g.inv(x) for g, x in zip(self.alphabets, a))

    def __contains__(self, seq: Seq) -> bool:
        return tuple(seq) in self._index

    def index_of(self, seq: Seq) -> int:
        try:
            return self._index[tuple(seq)]
        except KeyError:
            raise NotAMember(f"{seq} is not a member of {self.name}") from None

    def __len__(self) -> int:
        return len(self.sequences)

    def __repr__(self) -> str:
        return f"GroupSystem({self.name!r}, window={self.window}, order={len(self)})"

    def _validate(self, closed: bool) -> None:
        """Identity, letter range and inverses, then closure, then every
        letter realized.  Range and inverses are column passes (each letter
        column through the time-t inverse table, the zipped rows looked up
        in the member index); when one fails, the member loop below finds
        the first offending member, the witness.

        A `closed` system keeps the identity check alone.  The global
        system of an elementary system is one (`global_group_system` gives
        the argument); one built by `build_system` has each other pass's
        verdict fixed already:
        - letter range: the seeds were range-checked, and every member is
          a product of seeds, whose letters are table entries, in range;
        - inverses and closure: the members are the saturation of the
          seeds, a closed finite set holding the identity, so a subgroup,
          which holds every inverse (a^-1 is a power of a);
        - every letter realized: `realized_alphabets` has just shrunk each
          alphabet to the letters its members realize.
        The passes themselves are kept as the oracle
        `tests/oracles.validate_system`."""
        ident = self.identity
        if ident not in self._index:
            raise NotAGroupSystem("identity sequence missing", ident)
        if closed:
            return
        columns = self.columns
        ok = all(0 <= min(col) and max(col) < g.order
                 for col, g in zip(columns, self.alphabets))
        if ok:
            inverted = [map(tuple(map(g.inv, g.elements())).__getitem__, col)
                        for col, g in zip(columns, self.alphabets)]
            ok = all(map(self._index.__contains__, zip(*inverted)))
        if not ok:
            for s in self.sequences:
                for x, g in zip(s, self.alphabets):
                    if not 0 <= x < g.order:
                        raise NotAGroupSystem("letter out of range", (s, x))
                if self.inverse(s) not in self._index:
                    raise NotAGroupSystem("inverse missing", s)
        self.verify_closure()
        # every alphabet letter realized at each time
        for t, col, g in zip(self.times(), columns, self.alphabets):
            seen = set(col)
            if len(seen) != g.order:
                missing = min(set(range(g.order)) - seen)
                raise NotAGroupSystem("alphabet letter unrealized", (t, missing))

    def verify_closure(self) -> None:
        """Componentwise closure of the member set, with a witness pair.

        Generators are picked greedily in member order: a member outside
        the closure of the generators so far becomes the next one, and the
        closure grows breadth-first by right multiplication.  Every product
        formed is of two members, and the first one outside the member set
        is raised as the witness.

        Equivalence with the all-pairs check: if no product escapes, the
        final closure contains the identity, lies inside the member set and
        is closed under right multiplication by its generators, so it is
        the (finite) subgroup they generate; it also contains every member,
        each being in it already or a generator.  So the member set is that
        subgroup, hence closed.  A closed member set lets no product
        escape.  The cost is |A| x |generators| products instead of |A|^2.

        Those products are first formed as column passes: `_saturate` grows
        the identity to the subgroup the members generate, the same
        generators and closure, capped at |A| members.  The members are
        closed iff that subgroup lies inside them (it holds every member),
        and then nothing more runs.  Otherwise (the cap was passed or a
        product lies outside) the member set is not closed, and the tuple
        loop below finds and raises the witness.
        """
        index = self._index
        closure = {self.identity}
        try:
            _saturate(closure, self.sequences, self._op_columns, len(index))
        except BoundExceeded:
            pass  # the closure outgrew the members
        else:
            if all(map(index.__contains__, closure)):
                return

        def vet(a: Seq, g: Seq, prod: Seq) -> None:
            if prod not in index:
                raise NotAGroupSystem("product escapes member set", (a, g))

        close_greedily({self.identity}, self.sequences, self.mul, vet)

    # -- one-sided subgroups ----------------------------------------------

    @cached_property
    def _extents(self) -> Tuple[List[int], List[int]]:
        """Per member, the first and the last position of a non-identity
        letter (the window length and -1 for the identity), in one pass
        over the letter columns each way."""
        first = [self.length] * len(self.sequences)
        last = [-1] * len(self.sequences)
        for p in range(self.length - 1, -1, -1):
            first = [p if x else f for x, f in zip(self.columns[p], first)]
        for p in range(self.length):
            last = [p if x else l for x, l in zip(self.columns[p], last)]
        return first, last

    def x_subgroup(self, t: int) -> Tuple[int, ...]:
        """X^t = A^[t, t1] as ascending member indices.  A^[a, b] is a
        subgroup with no closure check: the kernel of the restriction to the
        times outside [a, b], a homomorphism as the product is letterwise."""
        t0, t1 = self.window
        if not t0 <= t <= t1 + 1:
            raise OutOfWindow(f"X^t defined for {t0} <= t <= {t1 + 1}")
        return tuple(self.finite_support_indices(t, t1))

    def y_subgroup(self, t: int) -> Tuple[int, ...]:
        """Y^t = A^[t0, t] as ascending member indices (`x_subgroup`)."""
        t0, t1 = self.window
        if not t0 - 1 <= t <= t1:
            raise OutOfWindow(f"Y^t defined for {t0 - 1} <= t <= {t1}")
        return tuple(self.finite_support_indices(t0, t))

    @cached_property
    def _extent_buckets(self) -> Dict[Tuple[int, int], List[int]]:
        """Member indices grouped by their (first, last) extents, each list
        ascending."""
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for i, key in enumerate(zip(*self._extents)):
            buckets.setdefault(key, []).append(i)
        return buckets

    def finite_support_indices(self, t_lo: int, t_hi: int) -> List[int]:
        """A^[t_lo, t_hi] as ascending member indices: the members identity
        outside the interval (clamped to the window), that is those whose
        first non-identity position is at or after it starts and whose last
        one is before it ends.  Read off the (first, last) buckets, so a
        call costs the buckets (at most (length + 1)^2) plus the answer."""
        t0, n = self.window[0], self.length
        lo = max(0, min(t_lo - t0, n))
        hi = max(0, min(t_hi - t0 + 1, n))
        return sorted(itertools.chain.from_iterable(
            members for (f, l), members in self._extent_buckets.items()
            if f >= lo and l < hi))

    def renamed(self, name: str) -> "GroupSystem":
        """This validated system under another name, sharing its member
        tuple, index and letter columns: nothing is re-sorted or
        re-validated."""
        out = copy.copy(self)
        out.name = name
        return out


def realized_alphabets(alphabets: Sequence[FiniteGroup],
                       members: Iterable[Seq]) -> tuple:
    """Shrink each per-time alphabet to its realized projection subgroup.

    Projections of a member group are subgroups, so each realized letter set
    closes, and its table is read off the alphabet's (`class_table`)
    without a closure check of its own; letters are relabeled by rank
    (identity stays 0).  Letter sets and relabels are read on the letter
    columns.  Returns (alphabets, members) unchanged when every letter is
    already realized.
    """
    members = list(members)
    columns = list(zip(*members))
    per_t: List[FiniteGroup] = []
    moved = False
    for pos, (g, col) in enumerate(zip(alphabets, columns)):
        letters = set(col)
        if len(letters) == g.order:
            per_t.append(g)
            continue
        embed = sorted(letters)
        rank = dict(zip(embed, range(len(embed))))
        per_t.append(FiniteGroup(class_table(g.op_table, rank, embed),
                                 name=g.name, _validated=True))
        columns[pos] = map(rank.__getitem__, col)
        moved = True
    if not moved:
        return tuple(alphabets), members
    return tuple(per_t), list(zip(*columns))


def transposed_tables(alphabets: Sequence[FiniteGroup]) -> Tuple[tuple, ...]:
    """Per time, the transposed operation table, [p][y][x] = x*y; a group
    serving several times is transposed once."""
    groups = {id(g): g for g in alphabets}
    done = {i: tuple(zip(*g.op_table)) for i, g in groups.items()}
    return tuple(done[id(g)] for g in alphabets)


def move_columns(lines: Sequence[tuple], columns: Sequence[Sequence[int]],
                 s: Seq) -> list:
    """Letter columns moved by s, column p through the table line
    lines[p][s_p]: rows a become a*s with transposed tables and s*a with
    the tables.  A column at an identity letter stays; the others are lazy
    maps, one pass each at C speed."""
    return [col if x == 0 else map(line[x].__getitem__, col)
            for line, col, x in zip(lines, columns, s)]


def build_system(window: Tuple[int, int], alphabets: Sequence[FiniteGroup],
                 seeds: Iterable[Seq], name: str = "A",
                 member_cap: int = DEFAULT_MEMBER_CAP) -> GroupSystem:
    """Saturate seed sequences under componentwise products into a system.

    A seed becomes a generator only when it lies outside the closure of the
    generators before it; the closure grows by right multiplication, which
    in a finite group reaches the subgroup the seeds generate -- the set the
    pairwise saturation of both-sided products reaches.  That costs |A| x
    |generators| products, formed as column passes (`_saturate`) through
    the tables `GroupSystem._op_columns` holds.  Seed length and
    letter range are checked on the letter columns; only a seed set that
    fails is walked seed by seed for the witness.  Per-time alphabets are
    restricted to their realized projections.  The closure may pass
    neither `member_cap` members nor `LETTER_CAP` letters (members times
    the window length); either raises BoundExceeded before it grows.

    The system is built `_closed`, so it is not validated again (the
    argument is in `GroupSystem._validate`)."""
    t0, t1 = window
    length = t1 - t0 + 1
    alphabets = tuple(alphabets)
    seeds = [tuple(map(int, s)) for s in seeds]
    if not (all(len(s) == length for s in seeds)
            and all(0 <= min(col) and max(col) < g.order
                    for col, g in zip(zip(*seeds), alphabets))):
        for s in seeds:
            if len(s) != length:
                raise NotAGroupSystem("seed has wrong length", s)
            for x, g in zip(s, alphabets):
                if not 0 <= x < g.order:
                    raise NotAGroupSystem("letter out of range", (s, x))
    members = {(0,) * length}
    by_letters = LETTER_CAP // length
    try:
        _saturate(members, seeds, transposed_tables(alphabets),
                  min(member_cap, by_letters))
    except BoundExceeded:
        if member_cap <= by_letters:
            raise
        raise BoundExceeded(f"build_system saturation: {by_letters + 1} members "
                            f"of {length} letters exceed cap "
                            f"LETTER_CAP={LETTER_CAP} letters") from None
    alphabets, members = realized_alphabets(alphabets, members)
    return GroupSystem(window, alphabets, members, name=name,
                       member_cap=member_cap, _closed=True)


def _saturate(members: set, seeds: Sequence[Seq], lines: Sequence[tuple],
              member_cap: int) -> None:
    """`close_greedily` on sequences, by columns: grow `members` (holding
    the identity) to the subgroup the seeds generate, taking a seed as a
    generator only when it lies outside the closure so far.

    Each breadth-first step moves the frontier's letter columns by each
    generator through the transposed tables `lines` (`move_columns`) and
    keeps the products not yet in the closure.  The generators and the
    closure after each one are those of `close_greedily`, which forms the
    same products one tuple at a time.  A closure that would pass
    `member_cap` raises before it grows."""
    gens: List[Seq] = []
    for g in seeds:
        if g in members:
            continue
        gens.append(g)
        frontier, step = list(members), (g,)
        while frontier:
            cols = list(zip(*frontier))
            found: set = set()
            for s in step:
                found.update(zip(*move_columns(lines, cols, s)))
            found -= members
            if found and len(members) + len(found) > member_cap:
                count = max(len(members), member_cap) + 1
                raise BoundExceeded(f"build_system saturation: {count} "
                                    f"members exceed cap {member_cap}")
            members |= found
            frontier, step = list(found), gens


# -- controllability ------------------------------------------------------

def controllability_index(system: GroupSystem) -> int:
    """Least l with the system [t, t+l)-connectable at every window time.

    [t, t+l)-connectability asks that every (past of a', future of a'')
    pair be realized by one member, which holds iff the number of distinct
    (prefix, suffix) pairs over the members, cut before t and from t+l on,
    equals the number of prefixes times the number of suffixes.  Prefixes
    and suffixes are read as ids, one column per cut computed once: the
    prefix of length c + 1 is the prefix of length c followed by one more
    letter, numbered in mixed radix by the alphabet orders, and suffixes
    likewise from the right.  Equal ids are equal slices, so each (t, l)
    counts distinct id pairs instead of slicing every member.  The index
    is computed once per system and kept on it."""
    if system._controllability is not None:
        return system._controllability
    n, length = len(system.sequences), system.length
    columns, orders = system.columns, [g.order for g in system.alphabets]
    prefixes = [[0] * n]
    for col, q in zip(columns, orders):
        prefixes.append([p * q + x for p, x in zip(prefixes[-1], col)])
    suffixes = [[0] * n]
    for col, q in zip(reversed(columns), reversed(orders)):
        suffixes.append([p * q + x for p, x in zip(suffixes[-1], col)])
    suffixes.reverse()  # suffixes[c]: the ids of the letters from c on
    pre_count = [len(set(ids)) for ids in prefixes]
    suf_count = [len(set(ids)) for ids in suffixes]
    # t runs over the window and one past it: cuts 0..length before t
    for l in range(0, length + 1):
        if all(len(set(zip(prefixes[cut], suffixes[min(cut + l, length)])))
               == pre_count[cut] * suf_count[min(cut + l, length)]
               for cut in range(length + 1)):
            system._controllability = l
            return l
    raise NotControllableOnWindow(system.name)


# -- granules -------------------------------------------------------------

def _normal_product(system: GroupSystem, *subgroups: Iterable[int]) -> List[int]:
    """The product H K ... of member subgroups, each normal in the member
    group, as ascending member indices.

    With K normal, H K = K H is a subgroup, and it is the one H and K
    generate, so the product is the closure of the members: `_saturate` grows
    the identity to it by column passes, taking a member as a generator
    only when it lies outside the closure so far.  The cost is |H K| x
    |generators| letter lookups instead of the |H| |K| tuple products of
    the set product.  Every product subgroup here is of support
    subgroups A^[a, b], and these are normal: conjugation acts letter by
    letter, so it never turns an identity letter into another one."""
    product = {system.identity}
    seqs = system.sequences
    _saturate(product, [seqs[i] for i in itertools.chain(*subgroups)],
              system._op_columns, len(system))
    return sorted(map(system._index.__getitem__, product))


class Granule(NamedTuple):
    """A quotient num / den of member subgroups: its cosets as ascending
    member indices, by least member, and its table on their numbers."""
    cosets: Tuple[Tuple[int, ...], ...]
    quotient: FiniteGroup


def time_granule(system: GroupSystem, i: int, m: int,
                 ell: Optional[int] = None) -> Granule:
    """X^{i+1}(X^i ∩ Y^{i+m}) / X^{i+1}(X^i ∩ Y^{i+m-1}) as a quotient.

    X^i ∩ Y^j is the support subgroup A^[i, j] (`finite_support_indices`).
    Trivial for m < 0 and (given ell) for m > ell; this is asserted.
    """
    t0, t1 = system.window
    if not t0 <= i <= t1 or (m >= 0 and i + m > t1):
        raise OutOfWindow(f"granule interval [{i},{i + m}] escapes [{t0},{t1}]")
    support = system.finite_support_indices
    xi1 = support(i + 1, t1)
    num = _normal_product(system, xi1, support(i, i + m))
    den = _normal_product(system, xi1, support(i, i + m - 1))
    qp = _member_quotient(system, num, den)
    if (m < 0 or (ell is not None and m > ell)) and qp.quotient.order != 1:
        raise NotAGroupSystem("granule case analysis violated", (i, m))
    return qp


def spectral_granule(system: GroupSystem, i: int, m: int) -> Granule:
    """A^[i,i+m] / (A^[i,i+m) A^(i,i+m]) -- the finite-extent granule."""
    t0, t1 = system.window
    if not t0 <= i <= t1 or (m >= 0 and i + m > t1):
        raise OutOfWindow(f"granule interval [{i},{i + m}] escapes [{t0},{t1}]")
    support = system.finite_support_indices
    den = _normal_product(system, support(i, i + m - 1), support(i + 1, i + m))
    return _member_quotient(system, support(i, i + m), den)


def _member_quotient(system: GroupSystem, num, den) -> Granule:
    """num / den for member subgroups den <= num, den normal (products of
    support subgroups), with no table of num: |num| products for the cosets
    (`_cosets`), |Q|^2 for the table, row c the cosets moved by coset c."""
    cls, cosets, seqs = {}, [], system.sequences
    for coset in _cosets(system, num, den):
        cls.update(dict.fromkeys(coset, len(cosets)))
        cosets.append(tuple(sorted(coset)))
    columns = [[col[c[0]] for c in cosets] for col in system.columns]
    table = tuple(tuple(map(cls.__getitem__, system.translate(columns, seqs[c[0]], right=False)))
                  for c in cosets)
    return Granule(tuple(cosets), FiniteGroup(table, name=f"{system.name}|num/H", _validated=True))


# -- generator basis ------------------------------------------------------

@dataclass(frozen=True)
class GeneratorBasis:
    """One granule transversal per (k, t) slot; entry 0 is the identity.
    Row i of `tensors`, the basis chain's last level, is member i's label
    tensor: the entry per slot whose product in slot order (the
    time-domain encoder) is the member."""

    system: GroupSystem
    ell: int
    slots: Tuple[Slot, ...]
    transversals: Dict[Slot, Tuple[Seq, ...]]
    tensors: Tuple[Tuple[int, ...], ...]

    @cached_property
    def slot_pos(self) -> Dict[Slot, int]:
        return {slot: i for i, slot in enumerate(self.slots)}

    @cached_property
    def spectral_order(self) -> Tuple[int, ...]:
        """The slot indices in the order of the `spec_rev` walk."""
        return positions_in(self.slots, walk(self.system.window, self.ell, "spec_rev"))

    def transversal(self, slot: Slot) -> Tuple[Seq, ...]:
        return self.transversals[slot]

    def label_count(self, slot: Slot) -> int:
        return len(self.transversals[slot])


def extract_basis(system: GroupSystem) -> GeneratorBasis:
    """Canonical generator basis: per slot, the least member of each
    finite-extent granule coset (identity first).

    Verifies: granule-order agreement between the time-domain and
    finite-extent forms (`_check_granule`), and that the slot transversals
    chain-generate the whole member set (window completeness).

    Every non-identity entry has span k+1 unchecked: it lies outside den,
    the identity's coset, and a member of A^[t,t+k] that is the identity
    at t or at t+k lies in A^(t,t+k] or A^[t,t+k), inside den.  For the
    same reason the entries of a slot have distinct letters at both ends
    of its span: if g1 and g2 shared their letter at t, g2^-1 g1 in
    A^[t,t+k] would be the identity at t, so in A^(t,t+k] within den, and
    g1, g2 would share a coset; likewise at t+k with A^[t,t+k).  At the
    interior times no certificate needs distinct letters, and a slot's
    entries may share one (Forney and Trott ask only that a shortest
    generator be non-identity at its two ends).

    Member sets are member indices: the numerator A^[t,t+k] is read off
    the extent buckets (`finite_support_indices`), and cosets and chain
    levels are column translates.  The denominator A^[t,t+k) A^(t,t+k] is
    the identity for k = 0, and otherwise the closure of the numerators
    of slots (k-1, t) and (k-1, t+1) (`_normal_product`), which the
    time-reverse fill order has met already.
    """
    ell = controllability_index(system)
    slots = window_slots(system.window, ell)
    nums: Dict[Slot, List[int]] = {}
    transversals: Dict[Slot, Tuple[Seq, ...]] = {}
    for (k, t) in slots:
        num = nums[(k, t)] = system.finite_support_indices(t, t + k)
        den = [system.index_of(system.identity)]
        if k:
            den = _normal_product(system, nums[(k - 1, t)], nums[(k - 1, t + 1)])
        reps = tuple(system.sequences[coset[0]] for coset in _cosets(system, num, den))
        _check_granule(system, (k, t), num, den, reps)
        transversals[(k, t)] = reps

    tensors = _basis_chain(system, slots, transversals)
    return GeneratorBasis(system, ell, slots, transversals, tensors)


def _check_granule(system: GroupSystem, slot: Slot, num: Sequence[int],
                   den: Sequence[int], reps: Tuple[Seq, ...]) -> None:
    """The time-domain granule X^{t+1} num / X^{t+1} den has as many cosets
    as the finite-extent one has representatives.

    X^{t+1} is the kernel of the prefix projection pi onto the times <= t,
    a homomorphism of the member group.  So X^{t+1} H = pi^-1(pi(H)) for
    any member set H, which has |pi(H)| |X^{t+1}| members: the order test
    |X^{t+1} num| // |X^{t+1} den| is |pi(num)| // |pi(den)|.  The cost is
    |num| + |den| prefixes instead of |X^{t+1}| (|num| + |den|) products.

    That the representatives fall into distinct cosets of X^{t+1} den
    needs no test of its own.  `_cosets` gives one member per coset a den,
    so `reps` is a transversal of den in num.  All these subgroups are
    normal, so a den -> a X^{t+1} den maps num / den onto X^{t+1} num /
    X^{t+1} den as a surjective homomorphism.  Once the order test passes,
    both sides have len(reps) elements, the map is a bijection, and
    distinct entries lie in distinct X^{t+1} den cosets.  The pair test
    this replaces is kept in `tests/oracles.check_granule`.
    """
    cut = slot[1] - system.window[0] + 1
    seqs = system.sequences
    pden = {seqs[i][:cut] for i in den}
    if len({seqs[i][:cut] for i in num}) // len(pden) != len(reps):
        raise NotAGroupSystem("time-domain/finite-extent granule mismatch",
                              slot)


def _cosets(system: GroupSystem, num: Sequence[int],
            den: Sequence[int]) -> Iterator[List[int]]:
    """The cosets a den of a subgroup den of num (ascending member indices)
    by least member a, each a first: den's letter columns moved by a
    (`translate`), |den| lookups per time, with a den[0] = a, or [a] with
    no columns when den is the identity alone.  Walking num upward past the
    members of cosets formed meets each at its least."""
    columns = [list(map(col.__getitem__, den)) for col in system.columns if den[1:]]
    seen, seqs = set(), system.sequences
    for a in num:
        if a not in seen:
            coset = system.translate(columns, seqs[a], right=False) if den[1:] else [a]
            seen.update(coset)
            yield coset


def coset_levels(start: Dict, transversals: Iterable[Sequence], mul) -> Iterator[Dict]:
    """The levels of a coset chain, built lazily: level i maps h * g to
    choices(h) + (c,) for h in level i-1 and g the c-th entry of
    transversal i.  Its cosets are disjoint iff no key collides, that is
    iff |level i| = |level i-1| x |transversal i|; callers check that."""
    level = start
    for trans in transversals:
        level = {mul(h, g): choices + (c,)
                 for h, choices in level.items() for c, g in enumerate(trans)}
        yield level


def _basis_chain(system: GroupSystem, slots: Tuple[Slot, ...],
                 transversals: Dict[Slot, Tuple[Seq, ...]]) -> Tuple[Tuple[int, ...], ...]:
    """Ascending member-set chain spanned by slot transversals in order;
    returns its last level, every member's label tensor (its choice per
    slot) in member-index order.

    Each step must multiply the count by the transversal size and the chain
    must end at the full member set; this is the window completeness check
    behind the tensor bijection.

    A level is held as letter columns.  Level i holds, per member h of
    level i-1 and entry g (the c-th) of transversal i, the product h g at
    position pos(h) |T_i| + c: per time, one right translate of level
    i-1's column by each entry's letter (a column at an identity letter
    staying as it is), interleaved.  So the choices of the member at a
    position are its mixed-radix digits, in the order `itertools.product`
    lists them, and no choice tuple is built level by level.  A product
    repeats at level i exactly when two keys of `coset_levels`' level i
    collide, and every repeat lives on into the last level, which holds
    |A| distinct members exactly when the chain spans.  So the members
    are looked up once, at the last level, and only a chain that fails
    there is walked level by level for the first step with a repeat, the
    witness of the level-by-level check.  The cost is two lookups per
    member and time over all levels, and one index lookup per member."""
    lines = system._op_columns
    columns = [[x] for x in system.identity]
    levels = []
    for slot in slots:
        moved = [move_columns(lines, columns, g) for g in transversals[slot]]
        columns = [list(itertools.chain.from_iterable(zip(*per_time)))
                   for per_time in zip(*moved)]
        levels.append(columns)
    members = list(map(system._index.get, zip(*columns)))
    n = len(system.sequences)
    if None in members or len(members) != n or len(set(members)) != n:
        for slot, level in zip(slots, levels):
            rows = list(zip(*level))
            if len(set(rows)) != len(rows):
                raise NotAGroupSystem("chain step not coset-complete", slot)
        raise NotAGroupSystem("slot transversals do not span the system")
    tensors: List[Tuple[int, ...]] = [()] * n
    for m, labels in zip(members, all_tensors(len(transversals[slot]) for slot in slots)):
        tensors[m] = labels
    return tuple(tensors)


# -- tensors and encoders --------------------------------------------------
#
# A label tensor is a tuple of labels in slot order: entry i is the index
# of the chosen generator in the transversal of slot i.

def check_tensor(basis: GeneratorBasis, labels: Sequence[int]) -> Tuple[int, ...]:
    """A label tensor from a caller as a tuple, with its length and every
    label's range checked against the slot table."""
    labels = tuple(labels)
    if len(labels) != len(basis.slots):
        raise OutOfWindow("tensor does not match the slot table")
    for slot, c in zip(basis.slots, labels):
        if not 0 <= c < basis.label_count(slot):
            raise OutOfWindow(f"choice {c} out of range at slot {slot}")
    return labels


def tensor_from_items(basis: GeneratorBasis, items: Dict[Slot, int]) -> Tuple[int, ...]:
    """The label tensor with the given labels at some slots, 0 elsewhere."""
    labels = [0] * len(basis.slots)
    pos = basis.slot_pos
    for slot, c in items.items():
        if slot not in pos:
            raise OutOfWindow(f"slot {slot} not in window")
        labels[pos[slot]] = c
    return check_tensor(basis, labels)


def all_tensors(sizes: Iterable[int]) -> Iterator[Tuple[int, ...]]:
    """Every label tensor over slots with these label counts, in slot
    order, lexicographically (the last slot fastest)."""
    return itertools.product(*map(range, sizes))


def encode_time_domain(basis: GeneratorBasis, r: Sequence[int]) -> Seq:
    """Compose the selected generators along the `time_rev` walk, the slot
    order: start times latest first, each start's spans shortest first."""
    return _compose(basis, r, range(len(basis.slots)))


def encode_spectral_domain(basis: GeneratorBasis, r: Sequence[int]) -> Seq:
    """Compose the selected generators along the `spec_rev` walk: spans
    shortest first, each span's start times latest first."""
    return _compose(basis, r, basis.spectral_order)


def _compose(basis: GeneratorBasis, r: Sequence[int], order: Iterable[int]) -> Seq:
    """The product of the generators a label tensor selects, at the slot
    indices `order` from left to right.  Entry 0 of every transversal is
    the identity (`GeneratorBasis`; a context checks it), so slots with
    label 0 are skipped and only the non-identity entries are multiplied,
    in the same order."""
    system, slots, labels = basis.system, basis.slots, check_tensor(basis, r)
    acc = system.identity
    for i in order:
        if labels[i]:
            acc = system.mul(acc, basis.transversals[slots[i]][labels[i]])
    if acc not in system:
        raise NotAGroupSystem("encoder left the member set", acc)
    return acc


def decode_to_tensor(basis: GeneratorBasis, seq: Seq) -> Tuple[int, ...]:
    """Invert the time-domain encoder: the basis chain recorded each
    member's label tensor as it built the member."""
    return basis.tensors[basis.system.index_of(tuple(seq))]


# -- alphabet matrix -------------------------------------------------------

def alphabet_matrix(basis: GeneratorBasis, r: Sequence[int],
                    t: int) -> Dict[Tuple[int, int], int]:
    """Time-t components of all generators active at t, keyed (j, k):
    column j holds generators starting at t-j, row k the spans k+1.
    Slots outside the window contribute the identity letter."""
    labels = check_tensor(basis, r)
    system = basis.system
    t0, t1 = system.window
    if not t0 <= t <= t1:
        raise OutOfWindow(f"time {t} outside window")
    pos, transversals = basis.slot_pos, basis.transversals
    out = {}
    for j, k in fold_order(basis.ell, "time_rev"):
        slot = (k, t - j)
        out[(j, k)] = (system.letter(transversals[slot][labels[pos[slot]]], t)
                       if slot in pos else 0)
    return out


def fold_time_domain(basis: GeneratorBasis, matrix: Dict[Tuple[int, int], int],
                     t: int) -> int:
    """Column-major product of the alphabet matrix: the per-letter form of
    `encode_time_domain`, which composes along the `time_rev` walk."""
    return _fold(basis, matrix, t, "time_rev")


def fold_spectral_domain(basis: GeneratorBasis, matrix: Dict[Tuple[int, int], int],
                         t: int) -> int:
    """Row-major product of the alphabet matrix: the per-letter form of
    `encode_spectral_domain`, which composes along the `spec_rev` walk."""
    return _fold(basis, matrix, t, "spec_rev")


def _fold(basis: GeneratorBasis, matrix: Dict[Tuple[int, int], int], t: int,
          kind: str) -> int:
    """The time-t product of the matrix entries in the walk `kind`'s fold
    order: the time-t letter of the composition along that walk."""
    return reduce(basis.system.alphabet(t).op,
                  map(matrix.__getitem__, fold_order(basis.ell, kind)), 0)
