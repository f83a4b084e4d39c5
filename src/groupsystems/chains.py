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

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .errors import (
    NotABlockCode,
    NotNormalFilling,
    OutOfWindow,
    WellDefinednessFailure,
)
from .generators import (
    ElementaryGroupTable,
    GeneratorContext,
    elementary_group,
    induced_slice_group,
    lower_elementary_group,
    support_subgroup,
)
from .groups import FiniteGroup, normal_by_cosets
from .slots import (
    Slot,
    fold_slots,
    in_slot_table,
    lower_contains,  # part of this module's interface
    lower_triangle_positions,
    upper_triangle_positions,
    walk,
    window_slots,
)
from .systems import GroupSystem, _normal_product, coset_levels


@dataclass(frozen=True)
class _Teeth:
    """Anchors of triangles of one kind (`triangle`) in the slot table."""

    window: Tuple[int, int]
    ell: int
    pairs: Tuple[Slot, ...]

    def covered(self) -> FrozenSet[Slot]:
        return frozenset(p for a in self.pairs
                         for p in self.triangle(self.window, self.ell, *a))

    @classmethod
    def purged(cls, window: Tuple[int, int], ell: int, pairs: Iterable[Slot]):
        """The slots of `pairs`, without repeats and in their order, whose
        clipped triangle lies inside no other one's.  Each triangle holds
        its own anchor, so distinct slots have distinct triangles, and the
        lower triangles of slots are never clipped: one contains another
        iff `lower_contains` says so."""
        pairs = list(dict.fromkeys(map(tuple, pairs)))
        for p in pairs:
            if not in_slot_table(window, ell, p):
                raise OutOfWindow(f"pair {p} outside the slot table")
        sets = [frozenset(cls.triangle(window, ell, *p)) for p in pairs]
        return cls(window, ell, tuple(p for p, mine in zip(pairs, sets)
                                      if not any(mine < other for other in sets)))


class PairedSequence(_Teeth):
    """Anchors of lower triangles, purged of contained ones, stable order."""

    triangle = staticmethod(lower_triangle_positions)


class UpperPairedSequence(_Teeth):
    """Anchors of upper triangles, purged by clipped-set containment."""

    triangle = staticmethod(upper_triangle_positions)


def purge(window: Tuple[int, int], ell: int,
          pairs: Iterable[Slot]) -> PairedSequence:
    """Drop every anchor whose lower triangle sits inside another's."""
    return PairedSequence.purged(window, ell, pairs)


def _complement(teeth: _Teeth, kind: type, window: Tuple[int, int],
                ell: int) -> _Teeth:
    """The purged teeth of `kind` over the slots `teeth` misses.  A union
    of lower triangles is closed downward and one of upper triangles
    upward, so the two unions partition the slot table; this is checked."""
    slots = window_slots(window, ell)
    covered = teeth.covered()
    result = kind.purged(window, ell, [p for p in slots if p not in covered])
    union = result.covered()
    if union | covered != set(slots) or union & covered:
        raise WellDefinednessFailure("sawtooth pieces do not partition the slots")
    return result


def complementary(ps: PairedSequence) -> UpperPairedSequence:
    """The purged upper-triangle sequence covering everything the lower
    teeth miss; the two unions partition the slot table."""
    return _complement(ps, UpperPairedSequence, ps.window, ps.ell)


def normal_subgroup_from_ps(ctx: GeneratorContext, ps: PairedSequence) -> Tuple[int, ...]:
    """Product of the lower elementary groups over the paired sequence (the
    closure of their members, `systems._normal_product`), checked against
    the tensors supported inside the teeth.

    Those are also the tensors that are the identity on the complementary
    upper teeth: `complementary`, called for that, raises unless the two
    unions partition the slot table, and a tensor's support then lies in
    `ps.covered()` exactly when it misses the upper union.  The result is
    normal with no test of its own, as the product of the teeth's
    A^[t,t+k], each normal (`systems._normal_product`); the tests check it
    with `oracles.is_normal`.
    """
    sub = support_subgroup(ctx, ps.covered())
    teeth = [lower_elementary_group(ctx, *p) for p in ps.pairs]
    if tuple(_normal_product(ctx.system, *teeth)) != sub:
        raise WellDefinednessFailure("tooth product differs from support subgroup")
    complementary(ps)
    return sub


@dataclass(frozen=True)
class OplusGroup:
    """Group on tuples of upper-triangle slices over a paired sequence."""

    pairs: Tuple[Slot, ...]
    elements: Tuple[tuple, ...]  # tuples of per-anchor label tuples
    group: FiniteGroup


def oplus_group(ctx: GeneratorContext, ps_u: UpperPairedSequence) -> OplusGroup:
    """Componentwise product of elementary groups over the upper teeth,
    verified isomorphic to the quotient of the generator group by the
    complementary tooth subgroup.

    The group is the one induced on slices over the teeth's concatenated
    positions (`induced_slice_group`).  Every tooth has a fixed number of
    positions, so the flat slices sort as their per-anchor parts do."""
    anchors = ps_u.pairs
    parts = [upper_triangle_positions(ctx.system.window, ctx.ell, *a)
             for a in anchors]
    flat = [ctx.slot_pos[p] for part in parts for p in part]
    realized, fg, _ = induced_slice_group(ctx, flat, f"teeth {anchors}",
                                         "oplus")
    cuts = list(itertools.accumulate((len(part) for part in parts), initial=0))
    elements = tuple(tuple(s[a:b] for a, b in zip(cuts, cuts[1:]))
                     for s in realized)

    # quotient isomorphism |U| / |kernel| with the kernel from the partition
    lower_ps = paired_sequence_from_upper_complement(ctx, ps_u)
    kernel = normal_subgroup_from_ps(ctx, lower_ps)
    if len(kernel) * fg.order != len(ctx.system):
        raise WellDefinednessFailure("tooth group has the wrong quotient order")
    return OplusGroup(anchors, elements, fg)


def paired_sequence_from_upper_complement(
        ctx: GeneratorContext, ps_u: UpperPairedSequence) -> PairedSequence:
    """The purged lower sequence covering everything the upper teeth miss."""
    return _complement(ps_u, PairedSequence, ctx.system.window, ctx.ell)


# -- filling sequences ---------------------------------------------------------

@dataclass(frozen=True)
class FillingSequence:
    """A walk visiting every slot of the window exactly once."""

    window: Tuple[int, int]
    ell: int
    pairs: Tuple[Slot, ...]

    def __post_init__(self):
        if sorted(self.pairs) != sorted(window_slots(self.window, self.ell)):
            raise OutOfWindow("walk must cover every slot exactly once")


def is_normal_filling_sequence(f: FillingSequence,
                               base: FrozenSet[Slot] = frozenset()) -> tuple:
    """(True, None) when every prefix is a union of lower triangles on top of
    `base`; otherwise (False, index of the first violating prefix).  Pairs
    already in `base` are skipped.

    A filled set closed under whole-lower-triangle membership stays closed
    when a pair is added iff the new pair's own triangle is filled, so the
    prefix test is incremental (`_closes`).
    """
    filled = set(base)
    for i, pair in enumerate(f.pairs):
        if pair in base:
            continue
        if not _closes(f.window, f.ell, filled, pair):
            return False, i + 1
        filled.add(pair)
    return True, None


def _closes(window: Tuple[int, int], ell: int, filled: set, pair: Slot) -> bool:
    """Whether the lower triangle of `pair` lies in `filled` once `pair`
    is added to it."""
    return all(p == pair or p in filled
               for p in lower_triangle_positions(window, ell, *pair))


def standard_filling(window: Tuple[int, int], ell: int,
                     kind: str) -> FillingSequence:
    """The four canonical walks (`slots.walk`): time-domain column walks in
    reverse or forward time and the span-by-span row walks in reverse or
    forward time.

    Each is normal by its order: the lower triangle of (k, t) holds the
    slots (j, s) with t <= s and s + j <= t + k, and each walk visits all
    of them but (k, t) before (k, t).
    - `time_rev` visits every later column, and the lower rows of its
      own column, first.
    - `time_fwd` visits every diagonal s + j < t + k, and the shorter
      spans of its own diagonal, first.
    - `spec_rev` and `spec_fwd` visit every lower row first, and the
      triangle holds no other slot of row k.
    `normal_chain` checks the walk it is given anyway."""
    if kind not in STANDARD_FILLINGS:
        raise OutOfWindow(f"unknown filling kind {kind!r}")
    return FillingSequence(window, ell, walk(window, ell, kind))


STANDARD_FILLINGS = ("time_rev", "time_fwd", "spec_rev", "spec_fwd")


# -- normal chains -------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    pair: Slot
    label_count: int
    subgroup: Tuple[int, ...]           # member indices after this step
    representatives: Tuple[tuple, ...]  # label tensors, one per label


@dataclass(frozen=True)
class NormalChain:
    filling: FillingSequence
    steps: Tuple[ChainStep, ...]
    base: Tuple[int, ...]  # member indices of the seed subgroup
    # the last level: member index -> (its base part, its label per step)
    choices: Dict[int, Tuple[int, ...]] = field(compare=False, repr=False)


def normal_chain(ctx: GeneratorContext, f: FillingSequence,
                 base_ps: Optional[PairedSequence] = None) -> NormalChain:
    """The ascending chain of tensor-support subgroups along a normal walk.

    The levels come from `coset_levels` on member indices: a step multiplies
    the previous level by the members of the new slot's single-label
    tensors (their columns, `ctx.single_labels`).  Each step's cosets are
    verified to be disjoint, and the support subgroup of the filled slots
    normal.

    The union of the cosets is that support subgroup, with no check of its
    own.  The subgroup `target` is closure-checked (`support_subgroup`),
    and it holds the previous level (by induction, the previous support
    subgroup, on fewer slots; at the start the base's) and each new
    single-label member (supported on the new slot), so every product of
    the two: the step lies in `target`.  The count check gives |step| =
    |level| times the new slot's label count, and by the tensor bijection
    (every label tensor is one member's) |target| is the product of the
    label counts of the filled slots, which is the same number.  So the
    step is `target`, and a step's `subgroup` is `target`.  The check this
    replaces is kept in the oracle `tests/oracles.normal_chain`.  The step,
    being those products, is generated by the base and the single-label
    members so far, and `normal_by_cosets` tests it on them and on the
    Cayley graphs of S, one object when the member group is abelian.
    """
    base_cov = base_ps.covered() if base_ps is not None else frozenset()
    ok, bad = is_normal_filling_sequence(f, base_cov)
    if not ok:
        raise NotNormalFilling(f"prefix {bad} is not a union of lower triangles")

    filled = set(base_cov)
    base = support_subgroup(ctx, frozenset(filled))
    path = [p for p in f.pairs if p not in base_cov]
    singles = [ctx.single_labels[p] for p in path]
    level = {b: (b,) for b in base}
    # an entry is its right column: h * g = column[h]
    levels = coset_levels(level, (cols for _, cols in singles), lambda h, col: col[h])
    gens = list(base)
    steps: List[ChainStep] = []
    for (k, t), (members, _), step in zip(path, singles, levels):
        filled.add((k, t))
        if len(step) != len(level) * len(members):
            raise NotNormalFilling(
                f"step ({k},{t}): generator cosets are not disjoint")
        target = support_subgroup(ctx, frozenset(filled))
        gens += members[1:]
        if not normal_by_cosets(target, gens, ctx.right_cayley, ctx.left_cayley):
            raise NotNormalFilling(f"step ({k},{t}): subgroup not normal")
        steps.append(ChainStep((k, t), len(members), target,
                               tuple(map(ctx.tensors.__getitem__, members))))
        level = step
    if len(level) != len(ctx.tensors) and base_ps is None:
        raise NotNormalFilling("chain did not reach the whole group")
    return NormalChain(f, tuple(steps), tuple(base), level)


def reconstruct_from_chain(ctx: GeneratorContext,
                           f: Union[FillingSequence, NormalChain]) -> GroupSystem:
    """The members the chain's last level reaches by composing one
    transversal entry per slot in fill order.  `normal_chain` certified
    that they are the whole member set, so the result is the context's
    validated system under a new name, not sorted or validated again
    (`GroupSystem.renamed`).  Given a walk, the chain is built here; given
    the `NormalChain` of `ctx` along a walk, it is reused."""
    chain = f if isinstance(f, NormalChain) else normal_chain(ctx, f)
    if len(chain.choices) != len(ctx.tensors):
        raise NotNormalFilling("chain did not reach the whole group")
    return ctx.system.renamed(f"{ctx.system.name}|chain")


def decompose_along_chain(ctx: GeneratorContext, chain: NormalChain,
                          seq) -> Tuple[tuple, ...]:
    """Peel a member into one representative per chain step (fill order),
    read from the chain's last level.  In a chain seeded at a base, only
    members whose base part is the identity have such a peel."""
    base_part, *labels = chain.choices[ctx.system.index_of(tuple(seq))]
    if base_part != 0:
        raise NotNormalFilling("peel left a nontrivial residual")
    return tuple(step.representatives[c] for step, c in zip(chain.steps, labels))


# -- eigentriangle expansion -----------------------------------------------------

@dataclass(frozen=True)
class EigenStep:
    position: Slot
    subgroup: Tuple[int, ...]           # element indices in the local group
    representatives: Tuple[int, ...]    # element indices, one per label


@dataclass(frozen=True)
class EigenChain:
    anchor: Slot
    table: ElementaryGroupTable
    steps: Tuple[EigenStep, ...]


def eigentriangle_expansion(ctx: GeneratorContext, t: int) -> EigenChain:
    """Expand the time-t local group along representatives with at most one
    nontrivial entry, one chain step per triangle position."""
    elem = elementary_group(ctx, 0, t)
    positions = elem.positions
    # fill positions in the time_rev fold order, as `_alpha_column` folds
    order = fold_slots(positions, ctx.ell, t)
    transversals = []
    for pos, i in order:
        reps = []
        for c in range(ctx.basis.label_count(pos)):
            labels = [0] * len(positions)
            labels[i] = c
            reps.append(elem._index[tuple(labels)])
        transversals.append(tuple(reps))
    filled: set = set()
    current = {0: ()}
    steps: List[EigenStep] = []
    levels = coset_levels(current, transversals, elem.group.op)
    for (pos, _), reps, new in zip(order, transversals, levels):
        filled.add(pos)
        if len(new) != len(current) * len(reps):
            raise WellDefinednessFailure(
                f"eigentriangle cosets not disjoint at {pos}")
        expected = {i for i, tri in enumerate(elem.elements)
                    if all(lab == 0 or p in filled
                           for p, lab in zip(positions, tri))}
        if new.keys() != expected:
            raise WellDefinednessFailure(
                f"eigentriangle step does not match support at {pos}")
        steps.append(EigenStep(pos, tuple(sorted(new)), reps))
        current = new
    if len(current) != elem.group.order:
        raise WellDefinednessFailure("eigentriangle chain fell short")
    return EigenChain((0, t), elem, tuple(steps))


# -- block codes -----------------------------------------------------------------

def enumerate_normal_fillings(window: Tuple[int, int], ell: int,
                              cap: int) -> tuple:
    """All normal walks of the slot table in deterministic order, capped.

    Returns (fillings, truncated), truncated when more than `cap` exist.
    Every normal prefix extends to a normal walk, so the search stops at
    the first walk past the cap."""
    slots = sorted(window_slots(window, ell))
    out: List[FillingSequence] = []

    def extend(prefix: List[Slot], filled: set) -> bool:
        """Add the walks through `prefix`; False once one is past the cap."""
        if len(prefix) == len(slots):
            out.append(FillingSequence(window, ell, tuple(prefix)))
            return len(out) <= cap
        return all(extend(prefix + [p], filled | {p}) for p in slots
                   if p not in filled and _closes(window, ell, filled, p))

    truncated = not extend([], set())
    return tuple(out[:cap]), truncated


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
