"""The decomposition group, the generator group, and their local groups.

Decoding every member once identifies the member set with the set of label
tensors; the transported operation makes that set a group isomorphic to the
system.  All the local structure (triangle slices, elementary groups,
component groups, nested projections) is computed on top of that one table.

Tensor slots, labels and triangles follow one layout: a slot (k, t) holds
the label of the span-(k+1) generator starting at t, label 0 is always the
identity generator, and triangles are serialized top row first with newer
times first inside each row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

from .errors import (
    InconsistentStitch,
    OutOfWindow,
    RecoveryMismatch,
    ShapeMismatch,
    UnrealizedTriangle,
    WellDefinednessFailure,
)
from .groups import FiniteGroup, Homomorphism, Subgroup
from .systems import (
    GeneratorBasis,
    GroupSystem,
    Seq,
    Slot,
    TensorR,
    decode_to_tensor,
    encode_time_domain,
    extract_basis,
)

Position = Tuple[int, int]  # same (k, t) addressing as slots


@dataclass(frozen=True)
class TensorU:
    """A tensor of generator labels; numerically the label at slot (k, t) is
    the transversal index of the chosen generator."""

    context: "GeneratorContext"
    labels: Tuple[int, ...]

    def __getitem__(self, slot: Slot) -> int:
        return self.labels[self.context.basis.slot_pos[slot]]

    def support(self) -> Tuple[Slot, ...]:
        return tuple(slot for slot, c in zip(self.context.basis.slots, self.labels)
                     if c != 0)


@dataclass(frozen=True)
class Triangle:
    """Labels on an upper triangle anchored at (k, t), clipped to the window."""

    anchor: Tuple[int, int]
    positions: Tuple[Position, ...]
    labels: Tuple[int, ...]

    def is_identity(self) -> bool:
        return all(x == 0 for x in self.labels)

    def label_at(self, pos: Position) -> int:
        return self.labels[self.positions.index(pos)]


@dataclass(frozen=True)
class ElementaryGroupTable:
    """All realized triangles at one anchor with their induced operation."""

    anchor: Tuple[int, int]
    positions: Tuple[Position, ...]
    elements: Tuple[Triangle, ...]
    group: FiniteGroup

    def index(self, tri: Triangle) -> int:
        try:
            return self._index[tri.labels]
        except KeyError:
            raise UnrealizedTriangle(f"{tri.labels} at anchor {self.anchor}") from None

    @cached_property
    def _index(self) -> Dict[Tuple[int, ...], int]:
        return {t.labels: i for i, t in enumerate(self.elements)}


def upper_triangle_positions(window: Tuple[int, int], ell: int,
                             k: int, t: int) -> Tuple[Position, ...]:
    """In-window positions of the upper triangle with lower vertex (k, t):
    rows kk = ell..k (top first), row kk spanning times t down to t-(kk-k)."""
    t0, t1 = window
    out = []
    for kk in range(ell, k - 1, -1):
        for s in range(t, t - (kk - k) - 1, -1):
            if t0 <= s and s + kk <= t1:
                out.append((kk, s))
    return tuple(out)


def lower_triangle_positions(window: Tuple[int, int], ell: int,
                             k: int, t: int) -> Tuple[Position, ...]:
    """In-window positions of the lower triangle with upper vertex (k, t):
    rows kk = k..0, row kk spanning times t..t+(k-kk)."""
    t0, t1 = window
    out = []
    for kk in range(k, -1, -1):
        for s in range(t, t + (k - kk) + 1):
            if t0 <= s and s + kk <= t1:
                out.append((kk, s))
    return tuple(out)


class GeneratorContext:
    """System + basis + the member/tensor identification, with caches.

    The generating set S and its right and left Cayley graphs over member
    indices are built on first use, once per context; the certificates
    check element x generator pairs on them instead of all member pairs.
    """

    def __init__(self, system: GroupSystem, basis: Optional[GeneratorBasis] = None):
        self.system = system
        self.basis = basis if basis is not None else extract_basis(system)
        self.ell = self.basis.ell
        self.slots = self.basis.slots
        self.slot_pos = self.basis.slot_pos
        # decode every member once: member index <-> label tensor
        self.tensors: Tuple[Tuple[int, ...], ...] = tuple(
            decode_to_tensor(self.basis, s).choice for s in system.sequences)
        self.tensor_index: Dict[Tuple[int, ...], int] = {
            lab: i for i, lab in enumerate(self.tensors)}
        self._u_group: Optional[FiniteGroup] = None
        self._elementary: Dict[Tuple[int, int], ElementaryGroupTable] = {}
        self._component: Dict[int, ElementaryGroupTable] = {}

    # -- the groups on tensors --------------------------------------------

    @property
    def u_group(self) -> FiniteGroup:
        """The generator group as an explicit table over member indices."""
        if self._u_group is None:
            g = self.system.sequence_group
            self._u_group = FiniteGroup(g.op_table, name=f"U({self.system.name})",
                                        _validated=True)
        return self._u_group

    @cached_property
    def generating_set(self) -> Tuple[int, ...]:
        """S as member indices: the identity, then every non-identity
        transversal entry in slot order.  `_basis_chain` certified that
        products of these entries reach every member, and decoding each
        member above wrote it as such a product."""
        index = self.system.index_of
        gens = [index(self.system.identity)]
        for slot in self.slots:
            gens.extend(index(g) for g in self.basis.transversal(slot)[1:])
        return tuple(dict.fromkeys(gens))

    @cached_property
    def right_cayley(self) -> Tuple[Tuple[int, ...], ...]:
        """right[a][j] = a * s_j over member indices (|A| x |S| products)."""
        return self._cayley(right=True)

    @cached_property
    def left_cayley(self) -> Tuple[Tuple[int, ...], ...]:
        """left[a][j] = s_j * a over member indices (|A| x |S| products)."""
        return self._cayley(right=False)

    def _cayley(self, right: bool) -> Tuple[Tuple[int, ...], ...]:
        system = self.system
        seqs, index, mul = system.sequences, system._index, system.mul
        gens = [seqs[j] for j in self.generating_set]
        if right:
            return tuple(tuple(index[mul(a, s)] for s in gens) for a in seqs)
        return tuple(tuple(index[mul(s, a)] for s in gens) for a in seqs)

    def label_sets(self) -> Dict[Slot, int]:
        return {slot: self.basis.label_count(slot) for slot in self.slots}

    def tensor_u(self, labels: Iterable[int]) -> TensorU:
        return TensorU(self, tuple(labels))

    def tensor_u_of_member(self, seq: Seq) -> TensorU:
        return TensorU(self, self.tensors[self.system.index_of(seq)])

    def member_of_tensor_u(self, u: TensorU) -> Seq:
        try:
            return self.system.sequences[self.tensor_index[u.labels]]
        except KeyError:
            raise UnrealizedTriangle(f"tensor {u.labels} not realized") from None

    def identity_u(self) -> TensorU:
        return TensorU(self, (0,) * len(self.slots))

    def generator_u(self, slot: Slot, label: int) -> TensorU:
        labels = [0] * len(self.slots)
        labels[self.slot_pos[slot]] = label
        return TensorU(self, tuple(labels))


def build_context(system: GroupSystem) -> GeneratorContext:
    return GeneratorContext(system)


# -- the transported operations ---------------------------------------------

def star(ctx: GeneratorContext, r1: TensorR, r2: TensorR) -> TensorR:
    """Product of generator selections, transported from the member product."""
    a = encode_time_domain(ctx.basis, r1)
    b = encode_time_domain(ctx.basis, r2)
    return decode_to_tensor(ctx.basis, ctx.system.mul(a, b))


def circ(ctx: GeneratorContext, u1: TensorU, u2: TensorU) -> TensorU:
    """Product of label tensors; same permutation as `star` under relabeling."""
    i = ctx.tensor_index[u1.labels]
    j = ctx.tensor_index[u2.labels]
    return TensorU(ctx, ctx.tensors[ctx.u_group.op(i, j)])


def u_inverse(ctx: GeneratorContext, u: TensorU) -> TensorU:
    i = ctx.tensor_index[u.labels]
    return TensorU(ctx, ctx.tensors[ctx.u_group.inv(i)])


def beta(ctx: GeneratorContext, r: TensorR) -> TensorU:
    return TensorU(ctx, r.choice)


def beta_inv(ctx: GeneratorContext, u: TensorU) -> TensorR:
    return TensorR(ctx.basis, u.labels)


# -- one-sided tensor subgroups ----------------------------------------------

def u_plus_subgroup(ctx: GeneratorContext, t: int) -> Subgroup:
    """Tensors supported on slots starting at time >= t (image of X^t)."""
    members = tuple(i for i, lab in enumerate(ctx.tensors)
                    if all(s >= t for (_, s) in TensorU(ctx, lab).support()))
    return Subgroup(ctx.u_group, members)


def u_minus_subgroup(ctx: GeneratorContext, t: int) -> Subgroup:
    """Tensors supported on slots ending at time <= t (image of Y^t)."""
    members = tuple(i for i, lab in enumerate(ctx.tensors)
                    if all(s + k <= t for (k, s) in TensorU(ctx, lab).support()))
    return Subgroup(ctx.u_group, members)


# -- triangle slices ----------------------------------------------------------

def triangle(ctx: GeneratorContext, u: TensorU, k: int, t: int) -> Triangle:
    positions = upper_triangle_positions(ctx.system.window, ctx.ell, k, t)
    if not 0 <= k <= ctx.ell or (k, t) not in ctx.slot_pos:
        raise OutOfWindow(f"anchor ({k},{t}) not in the slot table")
    return Triangle((k, t), positions, tuple(u[pos] for pos in positions))


def elementary_group(ctx: GeneratorContext, k: int, t: int) -> ElementaryGroupTable:
    """The induced group on realized triangle slices at anchor (k, t).

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
    Cayley-graph entries instead of |A|^2 products; the n x n table is then
    filled from one representative per slice class.
    """
    if (k, t) in ctx._elementary:
        return ctx._elementary[(k, t)]
    if (k, t) not in ctx.slot_pos:
        raise OutOfWindow(f"anchor ({k},{t}) not in the slot table")
    positions = upper_triangle_positions(ctx.system.window, ctx.ell, k, t)
    pos_idx = [ctx.slot_pos[p] for p in positions]

    def slice_of(labels: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(labels[i] for i in pos_idx)

    slices = [slice_of(lab) for lab in ctx.tensors]
    realized = sorted(set(slices), key=lambda s: (any(s), s))  # identity first
    index = {s: i for i, s in enumerate(realized)}
    n = len(realized)
    cls = [index[s] for s in slices]

    for graph, side in ((ctx.right_cayley, "right"), (ctx.left_cayley, "left")):
        for j, gen in enumerate(ctx.generating_set):
            moves = set(zip(cls, [cls[row[j]] for row in graph]))
            if len(moves) == n:
                continue  # one image class per class
            image: Dict[int, int] = {}
            for a, row in enumerate(graph):
                if image.setdefault(cls[a], cls[row[j]]) != cls[row[j]]:
                    raise WellDefinednessFailure(
                        f"lift choice changes the product at anchor ({k},{t}): "
                        f"slice {realized[cls[a]]} times generator "
                        f"{ctx.tensors[gen]} on the {side}")

    first: Dict[int, int] = {}
    for a, c in enumerate(cls):
        first.setdefault(c, a)
    reps = [first[c] for c in range(n)]
    seqs, member, mul = ctx.system.sequences, ctx.system._index, ctx.system.mul
    table = [[cls[member[mul(seqs[r1], seqs[r2])]] for r2 in reps] for r1 in reps]

    elements = tuple(Triangle((k, t), positions, s) for s in realized)
    fg = FiniteGroup(table, name=f"E({k},{t})")
    result = ElementaryGroupTable((k, t), positions, elements, fg)
    ctx._elementary[(k, t)] = result
    return result


def component_group_r(ctx: GeneratorContext, t: int) -> ElementaryGroupTable:
    """The time-t local group on decomposition-tensor triangles.

    Labels of a selection tensor and of its label tensor coincide
    numerically, so the table mirrors the elementary group at (0, t); the
    mirroring bijection is verified to be an isomorphism.
    """
    if t in ctx._component:
        return ctx._component[t]
    elem = elementary_group(ctx, 0, t)
    fg = FiniteGroup(elem.group.op_table, name=f"C({t})", _validated=True)
    result = ElementaryGroupTable(elem.anchor, elem.positions, elem.elements, fg)
    # beta^t is the identity on label tuples; isomorphism is table equality
    if fg.op_table != elem.group.op_table:
        raise WellDefinednessFailure("component group mirror broke")
    ctx._component[t] = result
    return result


def theta_t(ctx: GeneratorContext, k: int, t: int) -> Homomorphism:
    """Projection of the generator group onto the (k, t) elementary group."""
    elem = elementary_group(ctx, k, t)
    pos_idx = [ctx.slot_pos[p] for p in elem.positions]
    idx = elem._index
    images = tuple(idx[tuple(lab[i] for i in pos_idx)] for lab in ctx.tensors)
    return Homomorphism(ctx.u_group, elem.group, images, check=False)


def alpha_t(ctx: GeneratorContext, tri: Triangle, t: int) -> int:
    """Fold a time-t component triangle of generator labels into the letter
    it encodes, multiplying column by column (newest start time first)."""
    if tri.anchor != (0, t):
        raise ShapeMismatch(f"alpha_t needs an anchor (0,{t}) triangle")
    elementary_group(ctx, 0, t).index(tri)  # realized, or UnrealizedTriangle
    system = ctx.system
    g = system.alphabet(t)
    by_pos = dict(zip(tri.positions, tri.labels))
    acc = 0
    for j in range(ctx.ell + 1):
        for k in range(j, ctx.ell + 1):
            slot = (k, t - j)
            label = by_pos.get(slot)
            if label:
                gen = ctx.basis.transversal(slot)[label]
                acc = g.op(acc, system.letter(gen, t))
    return acc


def alpha_t_hom(ctx: GeneratorContext, t: int) -> Homomorphism:
    """alpha_t as a verified surjective homomorphism onto the alphabet."""
    comp = component_group_r(ctx, t)
    images = tuple(alpha_t(ctx, tri, t) for tri in comp.elements)
    hom = Homomorphism(comp.group, ctx.system.alphabet(t), images)
    if not hom.is_surjective():
        raise WellDefinednessFailure(f"alpha at {t} misses alphabet letters")
    return hom


# -- nested projections -------------------------------------------------------

def triangle_projection(ctx: GeneratorContext, src: Tuple[int, int],
                        dst: Tuple[int, int]) -> Homomorphism:
    """Projection homomorphism between elementary groups of nested anchors."""
    ksrc, tsrc = src
    kdst, tdst = dst
    if not (ksrc <= kdst and tsrc - (kdst - ksrc) <= tdst <= tsrc):
        raise ShapeMismatch(f"anchor {dst} is not nested in {src}")
    src_table = elementary_group(ctx, *src)
    dst_table = elementary_group(ctx, *dst)
    src_pos = {p: i for i, p in enumerate(src_table.positions)}
    take = [src_pos[p] for p in dst_table.positions]
    idx = dst_table._index
    images = tuple(idx[tuple(tri.labels[i] for i in take)]
                   for tri in src_table.elements)
    return Homomorphism(src_table.group, dst_table.group, images)


def nested_hom(ctx: GeneratorContext, k: int, t: int, j: int) -> Homomorphism:
    """Projection from the (k, t) elementary group onto the depth-j group
    hugging its left edge, anchored (j, t-(j-k)); j = k is the identity."""
    if not k <= j <= ctx.ell:
        raise ShapeMismatch(f"need {k} <= j <= {ctx.ell}")
    return triangle_projection(ctx, (k, t), (j, t - (j - k)))


def nested_anchors(ctx: GeneratorContext, k: int, t: int) -> Tuple[Tuple[int, int], ...]:
    """All in-window anchors whose triangles nest inside the (k, t) one."""
    out = []
    for kk in range(k, ctx.ell + 1):
        for s in range(t - (kk - k), t + 1):
            if (kk, s) in ctx.slot_pos:
                out.append((kk, s))
    return tuple(out)


# -- products through local tables only ---------------------------------------

def multiply_via_elementary(ctx: GeneratorContext, u1: TensorU,
                            u2: TensorU) -> TensorU:
    """Compute the tensor product using nothing but per-time local tables:
    slice, multiply in each time-t group, and stitch the overlaps."""
    assembled: Dict[Slot, int] = {}
    for t in ctx.system.times():
        elem = elementary_group(ctx, 0, t)
        t1 = triangle(ctx, u1, 0, t)
        t2 = triangle(ctx, u2, 0, t)
        prod = elem.elements[elem.group.op(elem.index(t1), elem.index(t2))]
        for pos, label in zip(prod.positions, prod.labels):
            if pos in assembled and assembled[pos] != label:
                raise InconsistentStitch(f"overlap disagrees at slot {pos}")
            assembled[pos] = label
    if set(assembled) != set(ctx.slots):
        raise InconsistentStitch("stitched tensor does not cover the window")
    return TensorU(ctx, tuple(assembled[slot] for slot in ctx.slots))


# -- lower elementary groups ---------------------------------------------------

def lower_elementary_group(ctx: GeneratorContext, k: int, t: int) -> Subgroup:
    """Image in the generator group of the members supported on [t, t+k]."""
    t0, t1 = ctx.system.window
    if not (t0 <= t and t + k <= t1):
        raise OutOfWindow(f"interval [{t},{t + k}] escapes the window")
    members = tuple(sorted(ctx.system.index_of(s) for s in
                           ctx.system.finite_support_members(t, t + k)))
    sub = Subgroup(ctx.u_group, members)
    allowed = set(lower_triangle_positions(ctx.system.window, ctx.ell, k, t))
    for i in sub.members:
        bad = [slot for slot in TensorU(ctx, ctx.tensors[i]).support()
               if slot not in allowed]
        if bad:
            raise WellDefinednessFailure(
                f"member tensor escapes the lower triangle at {bad[0]}")
    return sub


# -- recovery ------------------------------------------------------------------

def recover_system_fhgs(ctx: GeneratorContext) -> GroupSystem:
    """Rebuild the member set from per-time homomorphism images and check it
    reproduces the original system exactly."""
    seqs = []
    for lab in ctx.tensors:
        u = TensorU(ctx, lab)
        seq = tuple(alpha_t(ctx, triangle(ctx, u, 0, t), t)
                    for t in ctx.system.times())
        seqs.append(seq)
    if set(seqs) != set(ctx.system.sequences) or len(set(seqs)) != len(seqs):
        raise RecoveryMismatch("image of the recovery map differs from the system")
    return GroupSystem(ctx.system.window, ctx.system.alphabets, seqs,
                       name=f"{ctx.system.name}|fhgs", _closed=True)
