"""Sawtooth partitions, filling sequences, and normal chains.

The slot table of a window is walked by filling sequences; a walk is normal
when every prefix is a union of lower triangles.  Lower-triangle unions
correspond to normal subgroups of the generator group (tensors supported
inside the union), so a normal walk yields an ascending normal chain whose
step transversals are the single-label generator tensors.  Composing those
transversals in fill order reconstructs the member set; the time-reverse
column walk reproduces the time-domain encoder and the row walk the
span-by-span one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from .errors import (
    NotABlockCode,
    NotNormalFilling,
    OutOfWindow,
    RecoveryMismatch,
    WellDefinednessFailure,
)
from .generators import (
    ElementaryGroupTable,
    GeneratorContext,
    elementary_group,
    lower_elementary_group,
    lower_triangle_positions,
    upper_triangle_positions,
)
from .groups import FiniteGroup, Subgroup, is_normal, product_of_subgroups
from .systems import GroupSystem, Slot, window_slots

Pair = Tuple[int, int]


@dataclass(frozen=True)
class PairedSequence:
    """Anchors of lower triangles, purged of contained ones, stable order."""

    window: Tuple[int, int]
    ell: int
    pairs: Tuple[Pair, ...]

    def covered(self) -> FrozenSet[Slot]:
        out = set()
        for (k, t) in self.pairs:
            out.update(lower_triangle_positions(self.window, self.ell, k, t))
        return frozenset(out)


def lower_contains(outer: Pair, inner: Pair) -> bool:
    """Whether the lower triangle at `outer` contains the one at `inner`."""
    (ko, to), (ki, ti) = outer, inner
    return ki <= ko and to <= ti <= to + ko - ki


def purge(window: Tuple[int, int], ell: int,
          pairs: Iterable[Pair]) -> PairedSequence:
    """Drop every anchor whose lower triangle sits inside another's."""
    slots = set(window_slots(window, ell))
    pairs = list(dict.fromkeys(tuple(p) for p in pairs))
    for p in pairs:
        if p not in slots:
            raise OutOfWindow(f"pair {p} outside the slot table")
    kept = []
    for p in pairs:
        if any(q != p and lower_contains(q, p) for q in pairs):
            continue
        kept.append(p)
    return PairedSequence(window, ell, tuple(kept))


@dataclass(frozen=True)
class UpperPairedSequence:
    """Anchors of upper triangles, purged by clipped-set containment."""

    window: Tuple[int, int]
    ell: int
    pairs: Tuple[Pair, ...]

    def covered(self) -> FrozenSet[Slot]:
        out = set()
        for (k, t) in self.pairs:
            out.update(upper_triangle_positions(self.window, self.ell, k, t))
        return frozenset(out)


def complementary(ps: PairedSequence) -> UpperPairedSequence:
    """The purged upper-triangle sequence covering everything the lower
    teeth miss; the two unions partition the slot table."""
    slots = window_slots(ps.window, ps.ell)
    covered = ps.covered()
    uncovered = [p for p in slots if p not in covered]
    upper_sets = {p: frozenset(upper_triangle_positions(ps.window, ps.ell, *p))
                  for p in uncovered}
    for p, pset in upper_sets.items():
        if pset & covered:
            raise WellDefinednessFailure(
                f"upper triangle at {p} touches the lower teeth")
    kept = []
    for p in uncovered:
        dominated = False
        for q in uncovered:
            if q == p:
                continue
            if upper_sets[p] < upper_sets[q]:
                dominated = True
                break
            if upper_sets[p] == upper_sets[q] and q < p:
                dominated = True
                break
        if not dominated:
            kept.append(p)
    result = UpperPairedSequence(ps.window, ps.ell, tuple(kept))
    union = result.covered()
    if union | covered != set(slots) or union & covered:
        raise WellDefinednessFailure("sawtooth pieces do not partition the slots")
    return result


def support_subgroup(ctx: GeneratorContext, allowed: FrozenSet[Slot]) -> Subgroup:
    """Tensors supported inside `allowed` as a subgroup of the generator group."""
    members = tuple(i for i, lab in enumerate(ctx.tensors)
                    if all(slot in allowed for slot in ctx.support(lab)))
    return Subgroup(ctx.system.sequence_group, members)


def normal_subgroup_from_ps(ctx: GeneratorContext, ps: PairedSequence) -> Subgroup:
    """Product of the lower elementary groups over the paired sequence.

    Checked against both descriptions: tensors supported inside the teeth,
    and tensors that are the identity on the complementary upper teeth.
    """
    group = ctx.system.sequence_group
    covered = ps.covered()
    sub = support_subgroup(ctx, covered)
    # product of the per-anchor lower elementary groups
    prod = Subgroup(group, (0,))
    for p in ps.pairs:
        prod = product_of_subgroups(group, prod, lower_elementary_group(ctx, *p))
    if prod.members != sub.members:
        raise WellDefinednessFailure("tooth product differs from support subgroup")
    comp = complementary(ps)
    upper_union = comp.covered()
    identity_on_upper = tuple(
        i for i, lab in enumerate(ctx.tensors)
        if all(slot not in upper_union for slot in ctx.support(lab)))
    if identity_on_upper != sub.members:
        raise WellDefinednessFailure(
            "identity-on-complement description disagrees")
    if not is_normal(group, sub):
        raise WellDefinednessFailure("tooth subgroup is not normal")
    return sub


@dataclass(frozen=True)
class OplusGroup:
    """Group on tuples of upper-triangle slices over a paired sequence."""

    pairs: Tuple[Pair, ...]
    elements: Tuple[tuple, ...]  # tuples of per-anchor label tuples
    group: FiniteGroup


def oplus_group(ctx: GeneratorContext, ps_u: UpperPairedSequence) -> OplusGroup:
    """Componentwise product of elementary groups over the upper teeth,
    verified isomorphic to the quotient of the generator group by the
    complementary tooth subgroup."""
    anchors = ps_u.pairs
    pos_lists = [[ctx.slot_pos[p] for p in
                  upper_triangle_positions(ctx.system.window, ctx.ell, *a)]
                 for a in anchors]

    def slices(lab: tuple) -> tuple:
        return tuple(tuple(lab[i] for i in idxs) for idxs in pos_lists)

    group = ctx.system.sequence_group
    realized = sorted({slices(lab) for lab in ctx.tensors})
    realized.sort(key=lambda s: (any(any(part) for part in s), s))
    index = {s: i for i, s in enumerate(realized)}
    n = len(realized)
    table: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
    for i in range(len(ctx.tensors)):
        si = index[slices(ctx.tensors[i])]
        for j in range(len(ctx.tensors)):
            sj = index[slices(ctx.tensors[j])]
            prod = index[slices(ctx.tensors[group.op(i, j)])]
            if table[si][sj] is None:
                table[si][sj] = prod
            elif table[si][sj] != prod:
                raise WellDefinednessFailure(
                    f"tooth product depends on the lift at {anchors}")
    fg = FiniteGroup([[int(x) for x in row] for row in table], name="oplus")
    result = OplusGroup(anchors, tuple(realized), fg)

    # quotient isomorphism |U| / |kernel| with the kernel from the partition
    lower_ps = paired_sequence_from_upper_complement(ctx, ps_u)
    kernel = normal_subgroup_from_ps(ctx, lower_ps)
    if kernel.order * fg.order != group.order:
        raise WellDefinednessFailure("tooth group has the wrong quotient order")
    return result


def paired_sequence_from_upper_complement(
        ctx: GeneratorContext, ps_u: UpperPairedSequence) -> PairedSequence:
    """The purged lower sequence covering everything the upper teeth miss."""
    slots = window_slots(ctx.system.window, ctx.ell)
    upper_union = ps_u.covered()
    uncovered = [p for p in slots if p not in upper_union]
    ps = purge(ctx.system.window, ctx.ell, uncovered)
    if ps.covered() != set(slots) - upper_union:
        raise WellDefinednessFailure("lower teeth spill into the upper union")
    return ps


# -- filling sequences ---------------------------------------------------------

@dataclass(frozen=True)
class FillingSequence:
    """A walk visiting every slot of the window exactly once."""

    window: Tuple[int, int]
    ell: int
    pairs: Tuple[Pair, ...]

    def __post_init__(self):
        expected = set(window_slots(self.window, self.ell))
        got = list(self.pairs)
        if len(got) != len(set(got)) or set(got) != expected:
            raise OutOfWindow("walk must cover every slot exactly once")


def is_normal_filling_sequence(f: FillingSequence,
                               base: FrozenSet[Slot] = frozenset()) -> tuple:
    """(True, None) when every prefix is a union of lower triangles on top of
    `base`; otherwise (False, index of the first violating prefix).  Pairs
    already in `base` are skipped.

    A filled set closed under whole-lower-triangle membership stays closed
    when a pair is added iff the new pair's own triangle is filled, so the
    prefix test is incremental.
    """
    filled = set(base)
    for i, (k, t) in enumerate(f.pairs):
        if (k, t) in base:
            continue
        filled.add((k, t))
        tri = lower_triangle_positions(f.window, f.ell, k, t)
        if any(p not in filled for p in tri):
            return False, i + 1
    return True, None


def standard_filling(window: Tuple[int, int], ell: int,
                     kind: str) -> FillingSequence:
    """The four canonical walks: time-domain column walks in reverse or
    forward time and the span-by-span row walks in reverse or forward time."""
    t0, t1 = window
    pairs: List[Pair] = []
    if kind == "time_rev":
        for t in range(t1, t0 - 1, -1):
            for k in range(0, min(ell, t1 - t) + 1):
                pairs.append((k, t))
    elif kind == "time_fwd":
        for d in range(t0, t1 + 1):  # up the diagonals t + k = d
            for k in range(0, min(ell, d - t0) + 1):
                pairs.append((k, d - k))
    elif kind == "spec_rev":
        for k in range(0, ell + 1):
            for t in range(t1 - k, t0 - 1, -1):
                pairs.append((k, t))
    elif kind == "spec_fwd":
        for k in range(0, ell + 1):
            for t in range(t0, t1 - k + 1):
                pairs.append((k, t))
    else:
        raise OutOfWindow(f"unknown filling kind {kind!r}")
    f = FillingSequence(window, ell, tuple(pairs))
    ok, bad = is_normal_filling_sequence(f)
    assert ok, f"standard walk {kind} broke at prefix {bad}"
    return f

STANDARD_FILLINGS = ("time_rev", "time_fwd", "spec_rev", "spec_fwd")


# -- normal chains -------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    pair: Pair
    label_count: int
    subgroup: Tuple[int, ...]           # member indices after this step
    representatives: Tuple[tuple, ...]  # label tensors, one per label


@dataclass(frozen=True)
class NormalChain:
    filling: FillingSequence
    steps: Tuple[ChainStep, ...]
    base: Tuple[int, ...]  # member indices of the seed subgroup


def normal_chain(ctx: GeneratorContext, f: FillingSequence,
                 base_ps: Optional[PairedSequence] = None) -> NormalChain:
    """The ascending chain of tensor-support subgroups along a normal walk.

    Each step's cosets are verified to be exactly the translates of the
    previous subgroup by the generators of the newly filled slot.
    """
    base_cov = base_ps.covered() if base_ps is not None else frozenset()
    ok, bad = is_normal_filling_sequence(f, base_cov)
    if not ok:
        raise NotNormalFilling(f"prefix {bad} is not a union of lower triangles")

    filled = set(base_cov)
    base_sub = support_subgroup(ctx, frozenset(filled))
    current = set(base_sub.members)
    steps: List[ChainStep] = []
    group = ctx.system.sequence_group
    width = len(ctx.slots)
    for (k, t) in (p for p in f.pairs if p not in base_cov):
        filled.add((k, t))
        n_labels = ctx.basis.label_count((k, t))
        pos = ctx.slot_pos[(k, t)]
        reps = [(0,) * pos + (c,) + (0,) * (width - pos - 1)
                for c in range(n_labels)]
        rep_idx = [ctx.tensor_index[lab] for lab in reps]
        new_members = set()
        cosets = []
        for ri in rep_idx:
            coset = {group.op(h, ri) for h in current}
            cosets.append(coset)
            new_members |= coset
        if len(new_members) != len(current) * n_labels:
            raise NotNormalFilling(
                f"step ({k},{t}): generator cosets are not disjoint")
        target = support_subgroup(ctx, frozenset(filled))
        if new_members != set(target.members):
            raise NotNormalFilling(
                f"step ({k},{t}): cosets do not fill the support subgroup")
        if not is_normal(group, target):
            raise NotNormalFilling(f"step ({k},{t}): subgroup not normal")
        steps.append(ChainStep((k, t), n_labels,
                               tuple(sorted(new_members)), tuple(reps)))
        current = new_members
    if len(current) != len(ctx.tensors) and base_ps is None:
        raise NotNormalFilling("chain did not reach the whole group")
    return NormalChain(f, tuple(steps), tuple(sorted(base_sub.members)))


def reconstruct_from_chain(ctx: GeneratorContext, f: FillingSequence) -> GroupSystem:
    """Compose one transversal representative per slot, in fill order, over
    all choices; the result must be the member set exactly."""
    chain = normal_chain(ctx, f)
    system = ctx.system
    rebuilt = {system.identity: ()}
    for step in chain.steps:
        slot = step.pair
        gens = ctx.basis.transversal(slot)
        rebuilt = {system.mul(seq, g): None
                   for seq in rebuilt for g in gens}
    if set(rebuilt) != set(system.sequences):
        raise RecoveryMismatch("chain composition misses members")
    return GroupSystem(system.window, system.alphabets, rebuilt,
                       name=f"{system.name}|chain", _closed=True)


def decompose_along_chain(ctx: GeneratorContext, chain: NormalChain,
                          seq) -> Tuple[tuple, ...]:
    """Peel a member into one representative per chain step (fill order)."""
    system = ctx.system
    idx = system.index_of(tuple(seq))
    group = system.sequence_group
    reps_out: List[tuple] = [()] * len(chain.steps)
    levels = [set(chain.base)]
    for step in chain.steps:
        levels.append(set(step.subgroup))
    residual = idx
    for i in range(len(chain.steps) - 1, -1, -1):
        step = chain.steps[i]
        prev = levels[i]
        for lab in step.representatives:
            cand = group.op(residual, group.inv(ctx.tensor_index[lab]))
            if cand in prev:
                reps_out[i] = lab
                residual = cand
                break
        else:
            raise NotNormalFilling(f"coset peel failed at step {step.pair}")
    if residual != 0:
        raise NotNormalFilling("peel left a nontrivial residual")
    return tuple(reps_out)


# -- eigentriangle expansion -----------------------------------------------------

@dataclass(frozen=True)
class EigenStep:
    position: Pair
    subgroup: Tuple[int, ...]           # element indices in the local group
    representatives: Tuple[int, ...]    # element indices, one per label


@dataclass(frozen=True)
class EigenChain:
    anchor: Pair
    table: ElementaryGroupTable
    steps: Tuple[EigenStep, ...]


def eigentriangle_expansion(ctx: GeneratorContext, t: int) -> EigenChain:
    """Expand the time-t local group along representatives with at most one
    nontrivial entry, one chain step per triangle position."""
    elem = elementary_group(ctx, 0, t)
    positions = elem.positions
    pos_index = {p: i for i, p in enumerate(positions)}
    # fill positions in the time-reverse column order restricted to the slice
    order = [p for p in standard_filling(ctx.system.window, ctx.ell,
                                         "time_rev").pairs if p in pos_index]
    filled: set = set()
    current = {0}
    steps: List[EigenStep] = []
    for pos in order:
        filled.add(pos)
        n_labels = ctx.basis.label_count(pos)
        reps = []
        for c in range(n_labels):
            labels = [0] * len(positions)
            labels[pos_index[pos]] = c
            reps.append(elem._index[tuple(labels)])
        new = set()
        for r in reps:
            coset = {elem.group.op(h, r) for h in current}
            new |= coset
        if len(new) != len(current) * n_labels:
            raise WellDefinednessFailure(
                f"eigentriangle cosets not disjoint at {pos}")
        expected = {i for i, tri in enumerate(elem.elements)
                    if all(lab == 0 or p in filled
                           for p, lab in zip(tri.positions, tri.labels))}
        if new != expected:
            raise WellDefinednessFailure(
                f"eigentriangle step does not match support at {pos}")
        steps.append(EigenStep(pos, tuple(sorted(new)), tuple(reps)))
        current = new
    if current != set(range(elem.group.order)):
        raise WellDefinednessFailure("eigentriangle chain fell short")
    return EigenChain((0, t), elem, tuple(steps))


# -- block codes -----------------------------------------------------------------

def enumerate_normal_fillings(window: Tuple[int, int], ell: int,
                              cap: int) -> tuple:
    """All normal walks of the slot table in deterministic order, capped.

    Returns (fillings, truncated)."""
    slots = window_slots(window, ell)
    out: List[FillingSequence] = []
    truncated = False

    def backtrack(prefix: List[Pair], filled: set, remaining: set) -> bool:
        nonlocal truncated
        if len(out) >= cap:
            truncated = True
            return False
        if not remaining:
            out.append(FillingSequence(window, ell, tuple(prefix)))
            return True
        for p in sorted(remaining):
            tri = lower_triangle_positions(window, ell, *p)
            if any(q != p and q not in filled for q in tri):
                continue
            prefix.append(p)
            filled.add(p)
            remaining.discard(p)
            backtrack(prefix, filled, remaining)
            prefix.pop()
            filled.discard(p)
            remaining.add(p)
            if truncated:
                return False
        return True

    backtrack([], set(), set(slots))
    return tuple(out), truncated


def block_code_chains(ctx: GeneratorContext, max_orderings: int = 720) -> tuple:
    """All normal chains of a block code, one per normal walk (capped).

    A block code here is a system living on its natural window: some member
    is nontrivial at each window end.  Returns (chains, truncated).
    """
    system = ctx.system
    t0, t1 = system.window
    if all(system.letter(s, t0) == 0 for s in system.sequences) or \
            all(system.letter(s, t1) == 0 for s in system.sequences):
        raise NotABlockCode("window padded with dead time")
    fillings, truncated = enumerate_normal_fillings(system.window, ctx.ell,
                                                    max_orderings)
    chains = tuple(normal_chain(ctx, f) for f in fillings)
    return chains, truncated
