"""The generator group and its triangle-local groups.

The basis chain records every member's label per slot, which identifies
the member set with the set of label tensors.  The decomposition group
(selection tensors under ⋆) and the generator group (label tensors under
∘) are then the member group on member indices, of which no table is
built; a member subgroup is a tuple of ascending member indices.  A label
tensor is a tuple of labels in slot order, and row i of `ctx.tensors` is
member i's.  `star` multiplies two tensors from a caller, after the
encoder checks each one against the slot table.  All the local structure
(triangle slices, elementary groups, nested projections) is computed on
top of that identification.

Tensor slots, labels and triangles follow the one layout of `slots`: a
slot (k, t) holds the label of the span-(k+1) generator starting at t,
label 0 is always the identity generator, and a triangle is the tuple of
its labels, top row first with newer times first inside each row; its
table holds its anchor and positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from .errors import (
    NotASubgroup,
    OutOfWindow,
    RecoveryMismatch,
    ShapeMismatch,
    UnrealizedTriangle,
    WellDefinednessFailure,
)
from .groups import (FiniteGroup, Homomorphism, class_table, closure_generators,
                     compose_columns, greedy_columns)
from .slots import (
    Slot,
    entries_at,
    fold_slots,
    in_slot_table,
    lower_contains,
    lower_triangle_positions,
    positions_in,
    upper_triangle_positions,
)
from .systems import (
    GeneratorBasis,
    GroupSystem,
    check_tensor,
    decode_to_tensor,
    encode_time_domain,
    extract_basis,
)


@dataclass(frozen=True)
class ElementaryGroupTable:
    """All realized triangles at one anchor with their induced operation;
    element i is the label tuple `elements[i]` over `positions`."""

    anchor: Tuple[int, int]
    positions: Tuple[Slot, ...]
    elements: Tuple[Tuple[int, ...], ...]
    group: FiniteGroup

    def index(self, tri: Tuple[int, ...]) -> int:
        try:
            return self._index[tri]
        except KeyError:
            raise UnrealizedTriangle(f"{tri} at anchor {self.anchor}") from None

    @cached_property
    def _index(self) -> Dict[Tuple[int, ...], int]:
        return {tri: i for i, tri in enumerate(self.elements)}


class GeneratorContext:
    """System + basis + the member/tensor identification, with caches.

    Row i of `tensors` is member i's choice per slot, read off the last
    level of the basis chain; it is the only table of the labels.  The
    generating set S and its right and left Cayley graphs over member
    indices are built on first use, once per context, for the checks that
    read them instead of all member pairs; an elementary group certified
    by its counts (`_cuts`) reads none.  Each elementary group built here
    records its slice class per member in `_classes`, each alpha_t column
    (`_alpha_column`) is kept per t in `_alphas`, and each single-label
    member's right column, S's among them, in `_right`.
    Every basis, given or extracted, is certified where it is built
    (`GeneratorBasis`), for its own system, which must be `system`.
    """

    def __init__(self, system: GroupSystem, basis: Optional[GeneratorBasis] = None):
        self.system = system
        self.basis = basis if basis is not None else extract_basis(system)
        if self.basis.system is not system:
            raise ShapeMismatch(f"basis of {self.basis.system!r} given for {system!r}")
        self.ell = self.basis.ell
        self.slots = self.basis.slots
        self.slot_pos = self.basis.slot_pos
        # member index <-> label tensor
        self.tensors = self.basis.tensors
        self._elementary: Dict[Tuple[int, int], ElementaryGroupTable] = {}
        self._classes: Dict[Tuple[int, int], List[int]] = {}
        self._alphas: Dict[int, List[int]] = {}
        self._right: Dict[int, List[int]] = {}

    @cached_property
    def tensor_index(self) -> Dict[Tuple[int, ...], int]:
        """Label tensor -> member index, built on first use."""
        return {lab: i for i, lab in enumerate(self.tensors)}

    @cached_property
    def single_labels(self) -> Dict[Slot, tuple]:
        """Per slot, (members, columns) by label c, built once per context:
        the member whose tensor is c at the slot and 0 elsewhere
        (`tensor_index`), and its right column (`_right_column`)."""
        width, out = len(self.slots), {}
        for pos, slot in enumerate(self.slots):
            members = tuple(self.tensor_index[(0,) * pos + (c,) + (0,) * (width - pos - 1)]
                            for c in range(self.basis.label_count(slot)))
            out[slot] = members, tuple(map(self._right_column, members))
        return out

    def _right_column(self, m: int) -> List[int]:
        """[a] = a * m over member indices, kept in `_right`."""
        if m not in self._right:
            self._right[m] = self.system.translate(self.system.columns, self.system.sequences[m])
        return self._right[m]

    @cached_property
    def generating_set(self) -> Tuple[int, ...]:
        """S as member indices: the identity, then each transversal entry,
        in slot order, outside the closure of those kept before.  They
        generate the entries `_basis_chain` certified, and certificates need
        only <S> = A (Holt, Eick & O'Brien, Handbook of CGT, 2005, 4.1-4.3).
        An elementary group certified by its counts reads none of it."""
        return self._generators[0]

    @cached_property
    def right_cayley(self) -> Tuple[List[int], ...]:
        """right[j][a] = a * s_j over member indices."""
        return self._generators[1]

    @cached_property
    def _generators(self) -> tuple:
        """(S, right Cayley graph of S) in one pass, |A| x |S| list reads:
        the closure grows breadth-first along the kept columns (`greedy_columns`)."""
        system = self.system
        entries = (g for slot in self.slots for g in self.basis.transversal(slot)[1:])
        gens, right = greedy_columns(map(system.index_of, entries), self._right_column)
        # member 0 is the identity, the least sequence
        return (0, *gens), (list(range(len(self.tensors))), *right)

    @cached_property
    def left_cayley(self) -> Tuple[List[int], ...]:
        """left[j][a] = s_j * a over member indices; the right graph itself
        when the generators commute pairwise, as A = <S> is then abelian."""
        system, gens, right = self.system, self.generating_set, self.right_cayley
        if all(right[j][s] == right[i][gens[j]]
               for i, s in enumerate(gens) for j in range(i)):
            return right
        return tuple(system.translate(system.columns, system.sequences[j], False)
                     for j in gens)

    @cached_property
    def _cuts(self) -> Tuple[frozenset, frozenset]:
        """(future, past): the times u where the labels at the slots ending
        at or after u take |A| / |A^[t0, u-1]| values, and those where the
        labels at the slots starting at or before u take |A| / |A^[u+1, t1]|,
        the orders summed off the extent buckets; both empty unless the
        tensors are the basis's own and each transversal entry at slot
        (k, s) is the identity outside [s, s+k], as extracted ones are by
        construction (`elementary_group` gives the argument)."""
        system, count = self.system, self.basis.label_count
        n, length, t0 = len(self.tensors), system.length, system.window[0]
        if self.tensors is not self.basis.tensors or any(
                any(g[:s - t0]) or any(g[s + k - t0 + 1:])
                for k, s in self.slots for g in self.basis.transversal((k, s))):
            return frozenset(), frozenset()
        # label counts by end and start position, bucket sizes by last and first
        ends, starts, lasts, firsts = [1] * length, [1] * length, [0] * length, [0] * length
        for k, s in self.slots:
            ends[s + k - t0] *= count((k, s))
            starts[s - t0] *= count((k, s))
        for (first, last), members in system._extent_buckets.items():
            if last >= 0:  # not the identity
                lasts[last] += len(members)
                firsts[first] += len(members)
        return (frozenset(t0 + p for p in range(length)
                          if n == math.prod(ends[p:]) * (1 + sum(lasts[:p]))),
                frozenset(t0 + p for p in range(length)
                          if n == math.prod(starts[:p + 1]) * (1 + sum(firsts[p + 1:]))))

    def support(self, labels: Tuple[int, ...]) -> Tuple[Slot, ...]:
        """The slots where a label tuple picks a non-identity generator."""
        return tuple(slot for slot, c in zip(self.slots, labels) if c != 0)


def build_context(system: GroupSystem) -> GeneratorContext:
    return GeneratorContext(system)


# -- the transported operation -----------------------------------------------

def star(ctx: GeneratorContext, r1: Sequence[int],
         r2: Sequence[int]) -> Tuple[int, ...]:
    """Product of generator selections, transported from the member product."""
    a = encode_time_domain(ctx.basis, r1)
    b = encode_time_domain(ctx.basis, r2)
    return decode_to_tensor(ctx.basis, ctx.system.mul(a, b))


# -- one-sided tensor subgroups ----------------------------------------------

def support_subgroup(ctx: GeneratorContext, allowed: Collection[Slot]) -> Tuple[int, ...]:
    """The members T whose tensors lie inside `allowed`, ascending, or
    NotASubgroup; the verdict of `Subgroup`, at |T| |E| column reads.

    E, the members with one non-identity label, at a slot of `allowed`,
    lies in T, so a subgroup T has T E <= T, the check.  If T E <= T, then
    <E> <= T.  The products of one member of E or 1 per slot of `allowed`
    in slot order lie in <E>; when they are T, T = <E> is a subgroup.  With
    the basis chain's tensors they are: they encode the tensors inside
    `allowed`.  Only other tensors leave them short, and then T's own
    closure check runs."""
    members = tuple(i for i, lab in enumerate(ctx.tensors)
                    if all(slot in allowed for slot in ctx.support(lab)))
    inside = frozenset(members)
    products = [0]
    for slot in ctx.slots:
        if slot in allowed:
            singles, columns = ctx.single_labels[slot]
            for e, col in zip(singles[1:], columns[1:]):
                if not all(map(inside.__contains__, map(col.__getitem__, members))):
                    a = next(a for a in members if col[a] not in inside)
                    raise NotASubgroup(f"product {a}*{e} escapes")
            if len(columns) > 1:  # the identity's column fixes every product
                products = [b for col in columns for b in map(col.__getitem__, products)]
    if inside != set(products):
        seqs, index, mul = ctx.system.sequences, ctx.system._index, ctx.system.mul
        closure_generators(members, inside, lambda a, b: index[mul(seqs[a], seqs[b])])
    return members


def u_plus_subgroup(ctx: GeneratorContext, t: int) -> Tuple[int, ...]:
    """Tensors supported on slots starting at time >= t (image of X^t)."""
    return support_subgroup(ctx, {(k, s) for k, s in ctx.slots if s >= t})


def u_minus_subgroup(ctx: GeneratorContext, t: int) -> Tuple[int, ...]:
    """Tensors supported on slots ending at time <= t (image of Y^t)."""
    return support_subgroup(ctx, {(k, s) for k, s in ctx.slots if s + k <= t})


# -- triangle slices ----------------------------------------------------------

def triangle(ctx: GeneratorContext, labels: Sequence[int], k: int,
             t: int) -> Tuple[int, ...]:
    """The (k, t) upper-triangle slice of a label tensor (`check_tensor`),
    as the labels at `upper_triangle_positions`."""
    labels = check_tensor(ctx.basis, labels)
    if not in_slot_table(ctx.system.window, ctx.ell, (k, t)):
        raise OutOfWindow(f"anchor ({k},{t}) not in the slot table")
    positions = upper_triangle_positions(ctx.system.window, ctx.ell, k, t)
    return tuple(labels[ctx.slot_pos[pos]] for pos in positions)


def induced_slice_group(ctx: GeneratorContext, pos_idx: Sequence[int],
                        where: str, name: str) -> Tuple[List[tuple], FiniteGroup,
                                                        List[int]]:
    """The group induced on the realized slices of the label tensors at
    tensor positions `pos_idx`, identity slice first: (slices, group,
    classes), where classes[a] is the index of member a's slice; the
    member-level check, for the teeth of `oplus_group` and for the anchors
    whose counts do not hold (`elementary_group`).

    The product of two slices is the slice of the product of any two lifts.
    It is lift independent exactly when the partition of the members by
    their slice is a congruence of the member group, and that is what is
    certified: the partition must be invariant under right and under left
    multiplication by every s in the generating set S.

    Equivalence with checking all member pairs: a congruence is invariant
    under multiplication by anything.  Conversely, write any b as a word
    s_1...s_m in S; right invariance carries a ~ a' to a s_1 ~ a' s_1 and on
    to ab ~ a'b, and left invariance likewise gives ab ~ ab' from b ~ b'.
    Then a ~ a', b ~ b' give ab ~ a'b ~ a'b'.  The check reads 2|A||S|
    Cayley-graph entries instead of |A|^2 products, as one pass over the
    class column per graph column.  The right-side pass leaves, per
    generator s, the column c -> class of rep_c s of the quotient table,
    and `compose_columns` builds the whole table from those columns.
    Abelian A has one graph (`left_cayley`); a quotient needs no validation.
    """
    realized, cls, reps = _slice_classes(
        list(map(entries_at(pos_idx), ctx.tensors)) if pos_idx
        else [()] * len(ctx.tensors))
    n = len(realized)

    # a single class is a congruence
    graphs = [(ctx.right_cayley, "right"), (ctx.left_cayley, "left")] if n > 1 else []
    if graphs and graphs[1][0] is graphs[0][0]:  # abelian
        del graphs[1]
    gen_columns: Dict[int, List[int]] = {}
    for graph, side in graphs:
        # S's first member, the identity, moves no member
        for gen, moved in zip(ctx.generating_set[1:], graph[1:]):
            images = list(map(cls.__getitem__, moved))
            # one image class per class: each member's image class is that
            # of its class representative; the witness is the first member
            # whose is not (a representative is its class's first member)
            rep_images = [images[r] for r in reps]
            if list(map(rep_images.__getitem__, cls)) != images:
                a = next(a for a, c in enumerate(cls) if rep_images[c] != images[a])
                raise WellDefinednessFailure(
                    f"lift choice changes the product at {where}: "
                    f"slice {realized[cls[a]]} times generator "
                    f"{ctx.tensors[gen]} on the {side}")
            if side == "right":
                gen_columns.setdefault(cls[gen], rep_images)
    table = compose_columns(list(gen_columns.values()), n)
    return realized, FiniteGroup(table, name=name, _validated=True), cls


def _slice_classes(slices: List[tuple]) -> Tuple[List[tuple], List[int], List[int]]:
    """The realized slices sorted identity first, the class of each entry
    of `slices`, and the first entry of each class."""
    realized = sorted(set(slices), key=lambda s: (any(s), s))
    index = {s: i for i, s in enumerate(realized)}
    cls = list(map(index.__getitem__, slices))
    # the first entry of each class, by reading the classes backwards
    first = dict(zip(reversed(cls), range(len(cls) - 1, -1, -1)))
    return realized, cls, [first[c] for c in range(len(realized))]


def elementary_group(ctx: GeneratorContext, k: int, t: int) -> ElementaryGroupTable:
    """The induced group on realized triangle slices at anchor (k, t).

    It is certified by three facts that read no member (`_cuts`): (1) the
    tensors are the basis chain's decode, so every label tuple is one
    member's; (2) every transversal entry at slot (k', s) is the identity
    outside [s, s+k']; (3) with U the slots ending at or after t+k and V
    those starting at or before t, the U-labels take |A| / |A^[t0, t+k-1]|
    values and the V-labels |A| / |A^[t+1, t1]|.  The encoder multiplies
    entries letterwise and, by (2), entries off U are the identity at the
    times >= t+k, so there a member's letters are a function of its
    U-labels: the U-label partition refines the kernel partition of the
    projection onto those times.  By (1) it has as many classes as U-label
    tuples, which by (3) is the order of the projection's image, so the
    two partitions are equal; likewise V and the times <= t.  The
    triangle is U ∩ V, and by (1) two members that agree on it are joined
    by the member that agrees with one on U and with the other on V.  So
    the slice partition is the join of the kernel partitions of two
    normal subgroups, A^[t0, t+k-1] and A^[t+1, t1]: the cosets of their
    product, a congruence (Forney and Trott, IEEE Trans. IT 39, 1993; at
    k = 0, the branch group at t).  Where a fact fails, the member-level
    check runs (`induced_slice_group`), with its verdict and message.
    Either way the slices, their order and the classes are those of
    `induced_slice_group`."""
    if (k, t) in ctx._elementary:
        return ctx._elementary[(k, t)]
    if not in_slot_table(ctx.system.window, ctx.ell, (k, t)):
        raise OutOfWindow(f"anchor ({k},{t}) not in the slot table")
    positions = upper_triangle_positions(ctx.system.window, ctx.ell, k, t)
    name, (future, past) = f"E({k},{t})", ctx._cuts
    if t + k in future and t in past:
        realized, table, cls = _quotient_by_cuts(ctx, k, t, positions)
        fg = FiniteGroup(table, name=name, _validated=True)
    else:
        realized, fg, cls = induced_slice_group(
            ctx, [ctx.slot_pos[p] for p in positions], f"anchor ({k},{t})", name)
    result = ElementaryGroupTable((k, t), positions, tuple(realized), fg)
    ctx._elementary[(k, t)] = result
    ctx._classes[(k, t)] = cls
    return result


def _quotient_by_cuts(ctx: GeneratorContext, k: int, t: int, positions: Tuple[Slot, ...]
                      ) -> Tuple[List[tuple], tuple, List[int]]:
    """(slices, table, classes) at an anchor certified by `_cuts`.  For
    k >= 1 whose parent (k-1, t) is certified too, the triangle lies in the
    parent's, so the group is the parent's quotient, and the table and the
    classes are read through the restriction (`class_table`).  Otherwise
    the table is composed (`compose_columns`) from one column per
    transversal entry of a new class, the representatives' letter columns
    translated by the entry (`GroupSystem.translate`), |E| lookups per
    time: the entries generate A, so their classes generate the quotient.
    The table is a quotient of a group, so it is not validated."""
    if k and t + k - 1 in ctx._cuts[0]:
        parent = elementary_group(ctx, k - 1, t)
        get = entries_at(positions_in(parent.positions, positions))
        realized, r, reps = _slice_classes(list(map(get, parent.elements)))
        return (realized, class_table(parent.group.op_table, r, reps),
                list(map(r.__getitem__, ctx._classes[(k - 1, t)])))
    system = ctx.system
    get = entries_at([ctx.slot_pos[p] for p in positions])
    realized, cls, reps = _slice_classes(list(map(get, ctx.tensors)))
    columns = [[col[r] for r in reps] for col in system.columns]
    gens: Dict[int, List[int]] = {}
    for g in (g for slot in ctx.slots for g in ctx.basis.transversal(slot)[1:]):
        c = cls[system.index_of(g)]
        if c and c not in gens:
            gens[c] = list(map(cls.__getitem__, system.translate(columns, g)))
    return realized, compose_columns(list(gens.values()), len(realized)), cls


def slice_classes(ctx: GeneratorContext, k: int, t: int) -> List[int]:
    """Per member index, the element index of its slice in the (k, t)
    elementary group, as recorded when that group was built."""
    elementary_group(ctx, k, t)
    return ctx._classes[(k, t)]


def alpha_t(ctx: GeneratorContext, tri: Tuple[int, ...], t: int) -> int:
    """The letter a realized time-t component triangle of generator labels
    encodes: its entry in the fold of E(0, t) (`_alpha_column`)."""
    positions = upper_triangle_positions(ctx.system.window, ctx.ell, 0, t)
    if len(tri) != len(positions):
        raise ShapeMismatch(f"alpha_t needs an anchor (0,{t}) triangle")
    i = elementary_group(ctx, 0, t).index(tri)  # realized, or UnrealizedTriangle
    return _alpha_column(ctx, t)[i]


def alpha_t_hom(ctx: GeneratorContext, t: int) -> Homomorphism:
    """alpha_t as a verified surjective homomorphism onto the alphabet."""
    elem = elementary_group(ctx, 0, t)
    hom = Homomorphism(elem.group, ctx.system.alphabet(t),
                       tuple(_alpha_column(ctx, t)))
    if not hom.is_surjective():
        raise WellDefinednessFailure(f"alpha at {t} misses alphabet letters")
    return hom


# -- nested projections -------------------------------------------------------

def restriction_images(source: ElementaryGroupTable,
                       target: ElementaryGroupTable) -> Tuple[Optional[int], ...]:
    """Per element of `source`, the index in `target` of its restriction to
    the target's positions; None where that restriction is no element."""
    get = entries_at(positions_in(source.positions, target.positions))
    return tuple(map(target._index.get, map(get, source.elements)))


def triangle_projection(ctx: GeneratorContext, src: Tuple[int, int],
                        dst: Tuple[int, int]) -> Homomorphism:
    """Projection homomorphism between elementary groups of nested anchors."""
    if not lower_contains(dst, src):
        raise ShapeMismatch(f"anchor {dst} is not nested in {src}")
    src_table = elementary_group(ctx, *src)
    dst_table = elementary_group(ctx, *dst)
    return Homomorphism(src_table.group, dst_table.group,
                        restriction_images(src_table, dst_table))


def nested_hom(ctx: GeneratorContext, k: int, t: int, j: int) -> Homomorphism:
    """Projection from the (k, t) elementary group onto the depth-j group
    hugging its left edge, anchored (j, t-(j-k)); j = k is the identity."""
    if not k <= j <= ctx.ell:
        raise ShapeMismatch(f"need {k} <= j <= {ctx.ell}")
    return triangle_projection(ctx, (k, t), (j, t - (j - k)))


def nested_anchors(ctx: GeneratorContext, k: int, t: int) -> Tuple[Tuple[int, int], ...]:
    """All in-window anchors whose triangles nest inside the (k, t) one:
    the positions of its upper triangle, bottom row first, older times
    first inside each row."""
    return upper_triangle_positions(ctx.system.window, ctx.ell, k, t)[::-1]


# -- lower elementary groups ---------------------------------------------------

def lower_elementary_group(ctx: GeneratorContext, k: int, t: int) -> Tuple[int, ...]:
    """A^[t, t+k] (`GroupSystem.x_subgroup`), every member's tensor inside
    the lower triangle of (k, t)."""
    t0, t1 = ctx.system.window
    if not (t0 <= t and t + k <= t1):
        raise OutOfWindow(f"interval [{t},{t + k}] escapes the window")
    members = tuple(ctx.system.finite_support_indices(t, t + k))
    allowed = set(lower_triangle_positions(ctx.system.window, ctx.ell, k, t))
    bad = next((slot for i in members for slot in ctx.support(ctx.tensors[i])
                if slot not in allowed), None)
    if bad is not None:
        raise WellDefinednessFailure(f"member tensor escapes the lower triangle at {bad}")
    return members


# -- recovery ------------------------------------------------------------------

def recover_system_fhgs(ctx: GeneratorContext) -> GroupSystem:
    """Rebuild the member set from per-time homomorphism images and check it
    reproduces the original system exactly.

    alpha_t is folded once per element of each time-t local group
    (`_alpha_column`); a member's letter at t is then the fold of its slice
    there, read through its slice class.  Each recovered column is
    compared with the system's own letter column as it is formed.  When
    every one matches, each member recovers to itself, so the recovered
    rows are the member set, in member order and without repeats;
    otherwise the whole recovered table is formed and its rows are
    compared with the members as sets.
    Either way the recovered system is the original's validated member
    set, and it is returned under the new name without being sorted or
    validated again (`GroupSystem.renamed`)."""
    system = ctx.system

    def column(t: int) -> Tuple[int, ...]:
        return tuple(map(_alpha_column(ctx, t).__getitem__, slice_classes(ctx, 0, t)))
    if any(column(t) != col for t, col in zip(system.times(), system.columns)):
        seqs = list(zip(*map(column, system.times())))
        if set(seqs) != set(system.sequences) or len(set(seqs)) != len(seqs):
            raise RecoveryMismatch("image of the recovery map differs from the system")
    return system.renamed(f"{system.name}|fhgs")


def _alpha_column(ctx: GeneratorContext, t: int) -> List[int]:
    """alpha_t of every element of E(0, t), in element order, folded once
    per context and kept in `ctx._alphas`: its time-t generator letters
    multiplied in the `time_rev` fold order, as column passes.  Per
    position, one line maps the elements' labels to the letters of its
    transversal entries and multiplies them on the right."""
    if t in ctx._alphas:
        return ctx._alphas[t]
    elem = elementary_group(ctx, 0, t)
    system = ctx.system
    op = system.alphabet(t).op_table
    p = t - system.window[0]
    acc = [0] * len(elem.elements)
    for slot, i in fold_slots(elem.positions, ctx.ell, t):
        letter = [g[p] for g in ctx.basis.transversal(slot)]
        acc = [op[a][letter[tri[i]]] for a, tri in zip(acc, elem.elements)]
    ctx._alphas[t] = acc
    return acc
