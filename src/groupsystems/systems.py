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

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    BoundExceeded,
    NotAGroupSystem,
    NotAMember,
    NotControllableOnWindow,
    OutOfWindow,
)
from .groups import (
    FiniteGroup,
    QuotientPresentation,
    Subgroup,
    quotient,
)

DEFAULT_MEMBER_CAP = 2 ** 16
SEQUENCE_GROUP_TABLE_CAP = 2048

Seq = Tuple[int, ...]
Slot = Tuple[int, int]  # (k, t): generator length k+1 starting at time t


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
        members = sorted(set(tuple(int(x) for x in s) for s in sequences))
        if len(members) > member_cap:
            raise BoundExceeded(f"{len(members)} members exceed cap {member_cap}")
        self.sequences: Tuple[Seq, ...] = tuple(members)
        self.name = name
        self._index = {s: i for i, s in enumerate(self.sequences)}
        self._seq_group: Optional[FiniteGroup] = None
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
        ident = self.identity
        if ident not in self._index:
            raise NotAGroupSystem("identity sequence missing", ident)
        for s in self.sequences:
            for x, g in zip(s, self.alphabets):
                if not 0 <= x < g.order:
                    raise NotAGroupSystem("letter out of range", (s, x))
            if self.inverse(s) not in self._index:
                raise NotAGroupSystem("inverse missing", s)
        if not closed:
            self.verify_closure()
        # every alphabet letter realized at each time
        for t in self.times():
            seen = {self.letter(s, t) for s in self.sequences}
            if len(seen) != self.alphabet(t).order:
                missing = min(set(range(self.alphabet(t).order)) - seen)
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
        """
        index = self._index

        def vet(a: Seq, g: Seq, prod: Seq) -> None:
            if prod not in index:
                raise NotAGroupSystem("product escapes member set", (a, g))

        _close_greedily({self.identity}, self.sequences, self.mul, vet)

    # -- the sequence group as an explicit FiniteGroup ---------------------

    @property
    def sequence_group(self) -> FiniteGroup:
        if self._seq_group is None:
            n = len(self.sequences)
            if n > SEQUENCE_GROUP_TABLE_CAP:
                raise BoundExceeded(
                    f"sequence group table: {n} members exceed "
                    f"SEQUENCE_GROUP_TABLE_CAP={SEQUENCE_GROUP_TABLE_CAP}; only "
                    f"normal chains and subgroup views (X^t, Y^t, granules) "
                    f"need this table")
            idx = self._index
            table = [[idx[self.mul(a, b)] for b in self.sequences]
                     for a in self.sequences]
            self._seq_group = FiniteGroup(table, name=self.name, _validated=True)
        return self._seq_group

    # -- one-sided subgroups ----------------------------------------------

    def _x_members(self, t: int) -> frozenset:
        """Members identity strictly before t (clamped outside the window)."""
        t0 = self.window[0]
        cut = max(0, min(t - t0, self.length))
        return frozenset(s for s in self.sequences
                         if all(x == 0 for x in s[:cut]))

    def _y_members(self, t: int) -> frozenset:
        """Members identity strictly after t (clamped outside the window)."""
        t0 = self.window[0]
        cut = max(0, min(t - t0 + 1, self.length))
        return frozenset(s for s in self.sequences
                         if all(x == 0 for x in s[cut:]))

    def x_subgroup(self, t: int) -> Subgroup:
        t0, t1 = self.window
        if not t0 <= t <= t1 + 1:
            raise OutOfWindow(f"X^t defined for {t0} <= t <= {t1 + 1}")
        members = tuple(sorted(self.index_of(s) for s in self._x_members(t)))
        return Subgroup(self.sequence_group, members)

    def y_subgroup(self, t: int) -> Subgroup:
        t0, t1 = self.window
        if not t0 - 1 <= t <= t1:
            raise OutOfWindow(f"Y^t defined for {t0 - 1} <= t <= {t1}")
        members = tuple(sorted(self.index_of(s) for s in self._y_members(t)))
        return Subgroup(self.sequence_group, members)

    def finite_support_members(self, t_lo: int, t_hi: int) -> frozenset:
        """A^[t_lo, t_hi]: members identity outside the interval."""
        return self._x_members(t_lo) & self._y_members(t_hi)


def realized_alphabets(alphabets: Sequence[FiniteGroup],
                       members: Iterable[Seq]) -> tuple:
    """Shrink each per-time alphabet to its realized projection subgroup.

    Projections of a member group are subgroups, so each realized letter set
    closes; letters are relabeled by rank (identity stays 0).  Returns
    (alphabets, members) unchanged when every letter is already realized.
    """
    members = list(members)
    per_t: List[FiniteGroup] = []
    relabel: List[Optional[dict]] = []
    for pos, g in enumerate(alphabets):
        letters = tuple(sorted({s[pos] for s in members}))
        if len(letters) == g.order:
            per_t.append(g)
            relabel.append(None)
        else:
            sub = Subgroup(g, letters)
            small, embed = sub.as_group(name=g.name)
            per_t.append(small)
            relabel.append({old: i for i, old in enumerate(embed)})
    if all(r is None for r in relabel):
        return tuple(alphabets), members
    new_members = [tuple(x if r is None else r[x] for x, r in zip(s, relabel))
                   for s in members]
    return tuple(per_t), new_members


def _close_greedily(closure: set, candidates: Iterable[Seq], mul, vet) -> None:
    """Grow `closure` (a set holding the identity) to the subgroup generated
    by `candidates`.  A candidate becomes a generator only when it lies
    outside the closure so far; the closure then grows breadth-first by
    right multiplication, old members needing only the new generator and
    members found on the way every generator.  `vet(a, s, a*s)` sees each
    new product before it joins, and may raise."""
    gens: List[Seq] = []
    for g in candidates:
        if g in closure:
            continue
        gens.append(g)
        frontier, step = list(closure), (g,)
        while frontier:
            found = []
            for a in frontier:
                for s in step:
                    prod = mul(a, s)
                    if prod not in closure:
                        vet(a, s, prod)
                        closure.add(prod)
                        found.append(prod)
            frontier, step = found, gens


def build_system(window: Tuple[int, int], alphabets: Sequence[FiniteGroup],
                 seeds: Iterable[Seq], name: str = "A",
                 member_cap: int = DEFAULT_MEMBER_CAP) -> GroupSystem:
    """Saturate seed sequences under componentwise products into a system.

    A seed becomes a generator only when it lies outside the closure of the
    generators before it; the closure grows by right multiplication, which
    in a finite group reaches the subgroup the seeds generate -- the set the
    pairwise saturation of both-sided products reaches.  Seeds that are
    already closed (a tap rule's q^L members) cost |A| x |generators|
    products.  Per-time alphabets are restricted to their realized
    projections."""
    t0, t1 = window
    length = t1 - t0 + 1
    ident = (0,) * length
    alphabets = tuple(alphabets)
    tables = tuple(g.op_table for g in alphabets)

    def mul(a: Seq, b: Seq) -> Seq:
        return tuple(op[x][y] for op, x, y in zip(tables, a, b))

    checked = []
    for s in seeds:
        s = tuple(int(x) for x in s)
        if len(s) != length:
            raise NotAGroupSystem("seed has wrong length", s)
        for x, g in zip(s, alphabets):
            if not 0 <= x < g.order:
                raise NotAGroupSystem("letter out of range", (s, x))
        checked.append(s)

    members = {ident}

    def vet(a: Seq, g: Seq, prod: Seq) -> None:
        if len(members) >= member_cap:
            raise BoundExceeded(f"saturation exceeds member cap {member_cap}")

    _close_greedily(members, checked, mul, vet)
    alphabets, members = realized_alphabets(alphabets, members)
    return GroupSystem(window, alphabets, members, name=name,
                       member_cap=member_cap, _closed=True)


# -- controllability ------------------------------------------------------

def _connectable(system: GroupSystem, t: int, l: int) -> bool:
    """Window form of [t, t+l)-connectability, by a product-count identity.

    Every (past of a', future of a'') pair is realizable iff the set of
    (prefix, suffix) pairs over members is exactly the product of the
    prefix set and the suffix set.
    """
    t0 = system.window[0]
    cut_pre = max(0, t - t0)
    cut_suf = t + l - t0
    pairs = set()
    prefixes = set()
    suffixes = set()
    for s in system.sequences:
        p, q = s[:cut_pre], s[cut_suf:] if cut_suf < system.length else ()
        pairs.add((p, q))
        prefixes.add(p)
        suffixes.add(q)
    return len(pairs) == len(prefixes) * len(suffixes)


def controllability_index(system: GroupSystem) -> int:
    """Least l with the system [t, t+l)-connectable at every window time."""
    t0, t1 = system.window
    for l in range(0, system.length + 1):
        if all(_connectable(system, t, l) for t in range(t0, t1 + 2)):
            return l
    raise NotControllableOnWindow(system.name)


# -- granules -------------------------------------------------------------

def _subgroup_of(system: GroupSystem, members: frozenset) -> Subgroup:
    return Subgroup(system.sequence_group,
                    tuple(sorted(system.index_of(s) for s in members)))


def _set_product(system: GroupSystem, a: frozenset, b: frozenset) -> frozenset:
    return frozenset(system.mul(x, y) for x in a for y in b)


def time_granule(system: GroupSystem, i: int, m: int,
                 ell: Optional[int] = None) -> QuotientPresentation:
    """X^{i+1}(X^i ∩ Y^{i+m}) / X^{i+1}(X^i ∩ Y^{i+m-1}) as a quotient.

    Trivial for m < 0 and (given ell) for m > ell; this is asserted.
    """
    t0, t1 = system.window
    if not t0 <= i <= t1 or (m >= 0 and i + m > t1):
        raise OutOfWindow(f"granule interval [{i},{i + m}] escapes [{t0},{t1}]")
    xi1 = system._x_members(i + 1)
    mid = system._x_members(i) & system._y_members(i + m)
    mid_prev = system._x_members(i) & system._y_members(i + m - 1)
    num = _set_product(system, xi1, mid)
    den = _set_product(system, xi1, mid_prev)
    qp = _quotient_of_member_sets(system, num, den)
    if (m < 0 or (ell is not None and m > ell)) and qp.quotient.order != 1:
        raise NotAGroupSystem("granule case analysis violated", (i, m))
    return qp


def spectral_granule(system: GroupSystem, i: int, m: int) -> QuotientPresentation:
    """A^[i,i+m] / (A^[i,i+m) A^(i,i+m]) -- the finite-extent granule."""
    t0, t1 = system.window
    if not t0 <= i <= t1 or (m >= 0 and i + m > t1):
        raise OutOfWindow(f"granule interval [{i},{i + m}] escapes [{t0},{t1}]")
    num = system._x_members(i) & system._y_members(i + m)
    den = _set_product(system,
                       system._x_members(i) & system._y_members(i + m - 1),
                       system._x_members(i + 1) & system._y_members(i + m))
    return _quotient_of_member_sets(system, num, den)


def _quotient_of_member_sets(system: GroupSystem, num: frozenset,
                             den: frozenset) -> QuotientPresentation:
    num_sub = _subgroup_of(system, num)
    num_group, embed = num_sub.as_group(name=f"{system.name}|num")
    pos = {m: i for i, m in enumerate(embed)}
    den_local = Subgroup(num_group,
                         tuple(sorted(pos[system.index_of(s)] for s in den)))
    return quotient(num_group, den_local)


# -- generator basis ------------------------------------------------------

def window_slots(window: Tuple[int, int], ell: int) -> Tuple[Slot, ...]:
    """All (k, t) with [t, t+k] inside the window, in time-reverse fill order:
    columns of decreasing t, each climbed from k = 0 upward."""
    t0, t1 = window
    return tuple((k, t) for t in range(t1, t0 - 1, -1)
                 for k in range(0, min(ell, t1 - t) + 1))


@dataclass(frozen=True)
class GeneratorBasis:
    """One granule transversal per (k, t) slot; entry 0 is the identity."""

    system: GroupSystem
    ell: int
    slots: Tuple[Slot, ...]
    transversals: Dict[Slot, Tuple[Seq, ...]]
    chain_sets: Tuple[frozenset, ...]  # chain_sets[i] = span of slots[:i]

    @cached_property
    def slot_pos(self) -> Dict[Slot, int]:
        return {slot: i for i, slot in enumerate(self.slots)}

    def transversal(self, slot: Slot) -> Tuple[Seq, ...]:
        return self.transversals[slot]

    def label_count(self, slot: Slot) -> int:
        return len(self.transversals[slot])


def extract_basis(system: GroupSystem) -> GeneratorBasis:
    """Canonical generator basis: per slot, the least member of each
    finite-extent granule coset (identity first).

    Verifies: spans, granule-order agreement between the time-domain and
    finite-extent forms, per-time component distinctness, and that the slot
    transversals chain-generate the whole member set (window completeness).
    """
    ell = controllability_index(system)
    slots = window_slots(system.window, ell)
    t0, _ = system.window
    transversals: Dict[Slot, Tuple[Seq, ...]] = {}
    for (k, t) in slots:
        num = system.finite_support_members(t, t + k)
        den = _set_product(system,
                           system.finite_support_members(t, t + k - 1),
                           system.finite_support_members(t + 1, t + k))
        reps = _least_coset_reps(system, num, den)
        # non-identity representatives have span exactly k+1
        for g in reps[1:]:
            if g[t - t0] == 0 or g[t + k - t0] == 0:
                raise NotAGroupSystem("generator span defect", ((k, t), g))
        # time-domain granule has the same order, and the chosen reps fall
        # into distinct time-domain cosets
        lam_den = _set_product(system, system._x_members(t + 1), den)
        lam_num = _set_product(system, system._x_members(t + 1), num)
        if len(lam_num) // len(lam_den) != len(reps):
            raise NotAGroupSystem("time-domain/finite-extent granule mismatch",
                                  (k, t))
        for g1, g2 in itertools.combinations(reps, 2):
            if system.mul(g1, system.inverse(g2)) in lam_den:
                raise NotAGroupSystem("transversal entries share a coset",
                                      ((k, t), g1, g2))
        # per-time components distinguish the transversal entries
        for j in range(k + 1):
            comps = [g[t + j - t0] for g in reps]
            if len(set(comps)) != len(comps):
                raise NotAGroupSystem("component collision in transversal",
                                      ((k, t), j))
        transversals[(k, t)] = reps

    chain_sets = _basis_chain(system, slots, transversals)
    return GeneratorBasis(system, ell, slots, transversals, chain_sets)


def _least_coset_reps(system: GroupSystem, num: frozenset,
                      den: frozenset) -> Tuple[Seq, ...]:
    seen = set()
    reps = []
    for a in sorted(num):
        if a in seen:
            continue
        coset = {system.mul(a, d) for d in den}
        reps.append(min(coset))
        seen.update(coset)
    return tuple(sorted(reps))


def _basis_chain(system: GroupSystem, slots: Tuple[Slot, ...],
                 transversals: Dict[Slot, Tuple[Seq, ...]]) -> Tuple[frozenset, ...]:
    """Ascending member-set chain spanned by slot transversals in order.

    Each step must multiply the count by the transversal size and the chain
    must end at the full member set; this is the window completeness check
    behind the tensor bijection.
    """
    sets: List[frozenset] = [frozenset({system.identity})]
    for slot in slots:
        prev = sets[-1]
        step = frozenset(system.mul(h, g) for h in prev for g in transversals[slot])
        if len(step) != len(prev) * len(transversals[slot]):
            raise NotAGroupSystem("chain step not coset-complete", slot)
        sets.append(step)
    if sets[-1] != frozenset(system.sequences):
        raise NotAGroupSystem("slot transversals do not span the system")
    return tuple(sets)


# -- tensors and encoders --------------------------------------------------

@dataclass(frozen=True)
class TensorR:
    """A generator selection: one transversal index per (k, t) slot."""

    basis: GeneratorBasis
    choice: Tuple[int, ...]

    def __post_init__(self):
        if len(self.choice) != len(self.basis.slots):
            raise OutOfWindow("tensor does not match the slot table")
        for slot, c in zip(self.basis.slots, self.choice):
            if not 0 <= c < self.basis.label_count(slot):
                raise OutOfWindow(f"choice {c} out of range at slot {slot}")

    def __getitem__(self, slot: Slot) -> int:
        return self.choice[self.basis.slot_pos[slot]]

    def generator(self, slot: Slot) -> Seq:
        return self.basis.transversal(slot)[self[slot]]


def identity_tensor(basis: GeneratorBasis) -> TensorR:
    return TensorR(basis, (0,) * len(basis.slots))


def tensor_from_items(basis: GeneratorBasis, items: Dict[Slot, int]) -> TensorR:
    choice = [0] * len(basis.slots)
    pos = basis.slot_pos
    for slot, c in items.items():
        if slot not in pos:
            raise OutOfWindow(f"slot {slot} not in window")
        choice[pos[slot]] = c
    return TensorR(basis, tuple(choice))


def all_tensors(basis: GeneratorBasis) -> Iterable[TensorR]:
    ranges = [range(basis.label_count(slot)) for slot in basis.slots]
    for choice in itertools.product(*ranges):
        yield TensorR(basis, choice)


def encode_time_domain(basis: GeneratorBasis, r: TensorR) -> Seq:
    """Compose the selected generators column-by-column in reverse time:
    for each start time (latest first) the spans are applied shortest first."""
    system = basis.system
    acc = system.identity
    for slot in basis.slots:  # slots are already in time-reverse fill order
        acc = system.mul(acc, r.generator(slot))
    if acc not in system:
        raise NotAGroupSystem("encoder left the member set", acc)
    return acc


def encode_spectral_domain(basis: GeneratorBasis, r: TensorR) -> Seq:
    """Compose the selected generators span-by-span: all length-1 generators
    (latest start first), then all length-2 generators, and so on."""
    system = basis.system
    t0, t1 = system.window
    acc = system.identity
    for k in range(0, basis.ell + 1):
        for t in range(t1, t0 - 1, -1):
            if (k, t) in basis.transversals:
                acc = system.mul(acc, r.generator((k, t)))
    if acc not in system:
        raise NotAGroupSystem("encoder left the member set", acc)
    return acc


def decode_to_tensor(basis: GeneratorBasis, seq: Seq) -> TensorR:
    """Invert the time-domain encoder by peeling cosets down the slot chain."""
    system = basis.system
    seq = tuple(seq)
    if seq not in system:
        raise NotAMember(f"{seq} is not a member of {system.name}")
    choice = [0] * len(basis.slots)
    residual = seq
    for i in range(len(basis.slots) - 1, -1, -1):
        slot = basis.slots[i]
        prev = basis.chain_sets[i]
        for c, g in enumerate(basis.transversal(slot)):
            candidate = system.mul(residual, system.inverse(g))
            if candidate in prev:
                choice[i] = c
                residual = candidate
                break
        else:
            raise NotAGroupSystem("coset peel failed", (slot, residual))
    return TensorR(basis, tuple(choice))


# -- alphabet matrix -------------------------------------------------------

def alphabet_matrix(basis: GeneratorBasis, r: TensorR, t: int) -> Dict[Tuple[int, int], int]:
    """Time-t components of all generators active at t, keyed (j, k):
    column j holds generators starting at t-j, row k the spans k+1.
    Slots outside the window contribute the identity letter."""
    system = basis.system
    t0, t1 = system.window
    if not t0 <= t <= t1:
        raise OutOfWindow(f"time {t} outside window")
    out = {}
    for j in range(basis.ell + 1):
        for k in range(j, basis.ell + 1):
            slot = (k, t - j)
            if slot in basis.transversals:
                out[(j, k)] = system.letter(r.generator(slot), t)
            else:
                out[(j, k)] = 0
    return out


def fold_time_domain(basis: GeneratorBasis, matrix: Dict[Tuple[int, int], int],
                     t: int) -> int:
    """Column-major product of the alphabet matrix (the per-letter form of
    the time-domain encoder)."""
    g = basis.system.alphabet(t)
    acc = 0
    for j in range(basis.ell + 1):
        for k in range(j, basis.ell + 1):
            acc = g.op(acc, matrix[(j, k)])
    return acc


def fold_spectral_domain(basis: GeneratorBasis, matrix: Dict[Tuple[int, int], int],
                         t: int) -> int:
    """Row-major product of the alphabet matrix (per-letter spectral form)."""
    g = basis.system.alphabet(t)
    acc = 0
    for k in range(basis.ell + 1):
        for j in range(k + 1):
            acc = g.op(acc, matrix[(j, k)])
    return acc
