"""Elementary systems: local triangle groups plus the projection condition.

An elementary system is the generator group stripped of its global
operation: one group per (k, t) anchor, defined on label triangles, such
that restriction to the two next-nested triangles is a homomorphism.  The
global group reassembles the tensors slice by slice, and its per-time image
is a strongly controllable complete group system again.

Construction goes top row down: each new depth is an extension of the
subdirect product of the two overlapping one-row-shallower groups by a
chosen kernel, replicated over the window (clipped at the edges).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    NoExtensionFound,
    OutOfWindow,
    OverlapInconsistency,
    RecoveryMismatch,
    UnrealizedSlice,
    WellDefinednessFailure,
)
from .extensions import enumerate_extensions, subdirect_product
from .generators import (
    ElementaryGroupTable,
    GeneratorContext,
    Triangle,
    elementary_group,
    recover_system_fhgs,
    upper_triangle_positions,
)
from .groups import FiniteGroup, Homomorphism, Subgroup, direct_product, trivial_group
from .systems import GroupSystem, Slot, controllability_index, window_slots

Anchor = Tuple[int, int]


@dataclass(frozen=True)
class ElementarySystem:
    """Per-anchor triangle groups over label sets, with the projection
    condition between nested anchors as the defining invariant."""

    name: str
    ell: int
    window: Tuple[int, int]
    label_sizes: Dict[Slot, int]
    tables: Dict[Anchor, ElementaryGroupTable]

    @property
    def depth(self) -> int:
        return self.ell + 1

    def slots(self) -> Tuple[Slot, ...]:
        return window_slots(self.window, self.ell)

    def table(self, anchor: Anchor) -> ElementaryGroupTable:
        try:
            return self.tables[anchor]
        except KeyError:
            raise WellDefinednessFailure(
                f"anchor {anchor} has no local group") from None

    def positions(self, anchor: Anchor) -> Tuple[Slot, ...]:
        return self.table(anchor).positions

    @cached_property
    def _product_plan(self) -> tuple:
        """(slots, per time t: anchor (0, t), its slot indices, a getter of
        its slice, label -> element index, element labels, operation table),
        for `global_product` and `global_group_system`."""
        slots = self.slots()
        pos = {slot: i for i, slot in enumerate(slots)}
        plan = []
        for t in range(self.window[0], self.window[1] + 1):
            table = self.table((0, t))
            take = tuple(pos[p] for p in table.positions)
            get = (itemgetter(*take) if len(take) > 1
                   else lambda v, i=take[0]: (v[i],))
            plan.append(((0, t), take, get, table._index,
                         tuple(tri.labels for tri in table.elements),
                         table.group.op_table))
        return slots, tuple(plan)

    def verify(self) -> None:
        """Cartesian element sets plus the projection condition."""
        for anchor in self.slots():
            table = self.table(anchor)
            expected = 1
            for pos in table.positions:
                if pos not in self.label_sizes:
                    raise WellDefinednessFailure(f"slot {pos} has no label count")
                expected *= self.label_sizes[pos]
            if len(table.elements) != expected:
                raise WellDefinednessFailure(
                    f"anchor {anchor}: {len(table.elements)} triangles, "
                    f"Cartesian product needs {expected}")
            seen = {tri.labels for tri in table.elements}
            if len(seen) != len(table.elements):
                raise WellDefinednessFailure(f"anchor {anchor}: duplicate triangle")
        ok, witness = check_homomorphism_condition(self)
        if not ok:
            raise WellDefinednessFailure(f"projection condition fails: {witness}")


def nested_targets(es: ElementarySystem, anchor: Anchor) -> Tuple[Anchor, ...]:
    """The next two largest anchors nested in `anchor`, clipped to the window."""
    k, t = anchor
    t0, t1 = es.window
    out = []
    if k + 1 <= es.ell and t + k + 1 <= t1:
        out.append((k + 1, t))
    if k + 1 <= es.ell and t - 1 >= t0:
        out.append((k + 1, t - 1))
    return tuple(out)


def check_homomorphism_condition(es: ElementarySystem) -> tuple:
    """Exhaustively verify both nested projections at every anchor.

    Returns (True, None) or (False, witness) where the witness names the
    source anchor, target anchor, and the offending element pair.
    """
    for anchor in es.slots():
        for target in nested_targets(es, anchor):
            source = es.table(anchor)
            tgt = es.table(target)
            src_pos = {p: i for i, p in enumerate(source.positions)}
            take = [src_pos[p] for p in tgt.positions]
            idx = {tri.labels: i for i, tri in enumerate(tgt.elements)}
            images = []
            for tri in source.elements:
                restricted = tuple(tri.labels[i] for i in take)
                if restricted not in idx:
                    return False, (anchor, target, tri.labels)
            images = [idx[tuple(tri.labels[i] for i in take)]
                      for tri in source.elements]
            for a in range(source.group.order):
                for b in range(source.group.order):
                    lhs = images[source.group.op(a, b)]
                    rhs = tgt.group.op(images[a], images[b])
                    if lhs != rhs:
                        return False, (anchor, target, (a, b))
    return True, None


# -- extraction ----------------------------------------------------------------

def extract_elementary_system(ctx: GeneratorContext) -> ElementarySystem:
    """Collect every anchor's elementary group and re-verify the projection
    condition; the label sets are the generator label sets."""
    tables = {anchor: elementary_group(ctx, *anchor)
              for anchor in ctx.slots}
    es = ElementarySystem(
        name=f"E({ctx.system.name})",
        ell=ctx.ell,
        window=ctx.system.window,
        label_sizes=dict(ctx.label_sets()),
        tables=tables,
    )
    es.verify()
    return es


# -- the global group -----------------------------------------------------------

def global_tensors(es: ElementarySystem) -> Tuple[Tuple[int, ...], ...]:
    """The full Cartesian product of label sets, in slot order."""
    slots = es.slots()
    ranges = [range(es.label_sizes[slot]) for slot in slots]
    return tuple(itertools.product(*ranges))


def global_product(es: ElementarySystem, v1: Sequence[int],
                   v2: Sequence[int]) -> Tuple[int, ...]:
    """Slicewise product: every time-t triangle of the result is the local
    product of the operands' triangles; overlaps must agree."""
    slots, plan = es._product_plan
    v1, v2 = tuple(v1), tuple(v2)
    if len(v1) != len(slots) or len(v2) != len(slots):
        raise OutOfWindow("tensor length does not match the slot table")
    out: list = [None] * len(slots)
    for anchor, take, get, idx, elements, op in plan:
        i1 = idx.get(get(v1))
        i2 = idx.get(get(v2))
        if i1 is None or i2 is None:
            raise UnrealizedSlice(f"slice at {anchor} not an element")
        for i, label in zip(take, elements[op[i1][i2]]):
            if out[i] is None:
                out[i] = label
            elif out[i] != label:
                raise OverlapInconsistency(f"slices disagree at slot {slots[i]}")
    if None in out:
        raise OverlapInconsistency("slices do not cover the slot table")
    return tuple(out)


def global_group(es: ElementarySystem) -> tuple:
    """(elements, op) of the global group; elements are label tensors."""
    tensors = global_tensors(es)
    index = {v: i for i, v in enumerate(tensors)}
    table = [[index[global_product(es, a, b)] for b in tensors] for a in tensors]
    fg = FiniteGroup(table, name=f"V({es.name})")
    return tensors, fg


def global_group_system(es: ElementarySystem) -> GroupSystem:
    """The per-time image of the global group: letters are time-t triangles,
    alphabets the local groups; verified strongly controllable below its
    depth and complete by construction."""
    _, plan = es._product_plan
    alphabets = [es.table(anchor).group for anchor, *_ in plan]
    members = []
    for v in global_tensors(es):
        seq = tuple(idx[get(v)] for _, _, get, idx, _, _ in plan)
        members.append(seq)
    if len(set(members)) != len(members):
        raise WellDefinednessFailure("slice map is not injective on tensors")
    system = GroupSystem(es.window, alphabets, members, name=f"S({es.name})")
    if controllability_index(system) > es.ell:
        raise WellDefinednessFailure("global system exceeds the seeded depth")
    return system


def _check_product(es: ElementarySystem, lab1: tuple, lab2: tuple,
                   expected: tuple) -> None:
    if global_product(es, lab1, lab2) != expected:
        raise RecoveryMismatch(f"global product deviates at {lab1} * {lab2}")


def recover_original(es: ElementarySystem, ctx: GeneratorContext) -> GroupSystem:
    """For a system-extracted elementary system: check the global product
    agrees with the transported operation, then recover the member set.

    The agreement is checked on element x generator pairs: global_product(a,
    s) must equal a*s for every member a and every s in the generating set
    S.  The identity is in S, so every member's slices are looked up.  Then
    each local table at (0, t) must satisfy (x y) z = x (y z) for realized
    slices x, y and slices z of generators.

    Equivalence with checking all member pairs: write tau_t for the time-t
    slice map.  Agreement on (a, s) says tau_t(a s) = tau_t(a) tau_t(s).
    Write any b as a word in S; if b = w s, then
        tau_t(a w s) = tau_t(a w) tau_t(s) = (tau_t(a) tau_t(w)) tau_t(s)
                     = tau_t(a) (tau_t(w) tau_t(s)) = tau_t(a) tau_t(w s),
    by induction on the word length in the second step and the checked
    associativity in the third.  So each slice map is a homomorphism, every
    slice of the global product of a and b is the slice of a*b, and the two
    products agree on all pairs.  Conversely, agreement on all pairs makes
    the realized part of each table a homomorphic image of the member
    group, hence associative.  When that associativity fails, one of the
    member pairs (a, w) or (a, w s) behind it has a wrong global product,
    and that pair is raised through the same check.  The cost is |A| x |S|
    global products instead of |A|^2.
    """
    slots = es.slots()
    if slots != ctx.slots:
        raise RecoveryMismatch("slot tables differ")
    tensors, gens = ctx.tensors, ctx.generating_set
    for lab, row in zip(tensors, ctx.right_cayley):
        for s, prod in zip(gens, row):
            _check_product(es, lab, tensors[s], tensors[prod])
    _check_local_associativity(es, ctx)
    recovered = recover_system_fhgs(ctx)
    if recovered.sequences != ctx.system.sequences:
        raise RecoveryMismatch("member sets differ")
    return recovered


def _check_local_associativity(es: ElementarySystem, ctx: GeneratorContext) -> None:
    """(x y) z = x (y z) in each time-t table, for x, y slices of members
    and z slices of generators; a failure is reported as a member pair
    whose global product deviates."""
    tensors, seqs = ctx.tensors, ctx.system.sequences
    mul, index = ctx.system.mul, ctx.system._index

    def member_product(a: int, b: int) -> int:
        return index[mul(seqs[a], seqs[b])]

    _, plan = es._product_plan
    for anchor, _, get, idx, _, op in plan:
        lift: Dict[int, int] = {}  # realized element -> least member with it
        for a, lab in enumerate(tensors):
            lift.setdefault(idx[get(lab)], a)
        gen_of: Dict[int, int] = {}
        for s in ctx.generating_set:
            gen_of.setdefault(idx[get(tensors[s])], s)
        for x in lift:
            for y in lift:
                xy = op[x][y]
                for z, s in gen_of.items():
                    if op[xy][z] == op[x][op[y][z]]:
                        continue
                    a, w = lift[x], lift[y]
                    for b in (w, member_product(w, s)):
                        _check_product(es, tensors[a], tensors[b],
                                       tensors[member_product(a, b)])
                    raise RecoveryMismatch(
                        f"local group at {anchor} is not associative")


# -- construction ----------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionStrategy:
    """Kernel choice per depth below the top row, and which extension of the
    subdirect product to take (an index into the deterministic enumeration;
    index 0 always exists).

    Keys are depths k for time-invariant choices; an anchor key (k, t)
    overrides the depth default, which is the time-varying escape hatch."""

    kernels: Dict = None
    extension_indices: Dict = None

    def kernel(self, k: int, t: int) -> FiniteGroup:
        if not self.kernels:
            return trivial_group()
        return self.kernels.get((k, t), self.kernels.get(k, trivial_group()))

    def extension_index(self, k: int, t: int) -> int:
        if not self.extension_indices:
            return 0
        return self.extension_indices.get((k, t),
                                          self.extension_indices.get(k, 0))


def construct_elementary_system(window: Tuple[int, int], ell: int,
                                top: FiniteGroup,
                                strategy: Optional[ConstructionStrategy] = None,
                                name: str = "E") -> ElementarySystem:
    """Build a time-invariant elementary system from a top-row seed group.

    Depth m anchors are extensions of the subdirect product of their two
    depth-(m+1) children (edge anchors have one or no child) by the
    strategy's kernel for that depth.
    """
    strategy = strategy or ConstructionStrategy({})
    t0, t1 = window
    if ell < 0 or t1 - t0 < 0:
        raise OutOfWindow("degenerate construction window")
    slots = set(window_slots(window, ell))
    sizes: Dict[Slot, int] = {}
    tables: Dict[Anchor, ElementaryGroupTable] = {}

    for k in range(ell, -1, -1):
        for t in range(t0, t1 - k + 1):
            anchor = (k, t)
            kernel = top if k == ell else strategy.kernel(k, t)
            positions = upper_triangle_positions(window, ell, k, t)
            right = (k + 1, t) if (k + 1, t) in slots else None
            left = (k + 1, t - 1) if (k + 1, t - 1) in slots else None
            tables[anchor] = _build_anchor(
                tables, anchor, positions, right, left, kernel,
                strategy.extension_index(k, t))
            sizes[anchor] = kernel.order
    es = ElementarySystem(name=name, ell=ell, window=window,
                          label_sizes=sizes, tables=tables)
    es.verify()
    return es


def _build_anchor(tables: Dict[Anchor, ElementaryGroupTable], anchor: Anchor,
                  positions: Tuple[Slot, ...], right: Optional[Anchor],
                  left: Optional[Anchor], kernel: FiniteGroup,
                  extension_index: int) -> ElementaryGroupTable:
    # the base group the new depth extends: subdirect product of the two
    # children over their shared subtriangle (or whatever part exists)
    if right is not None and left is not None:
        base, pair_of = _subdirect_base(tables, right, left)
    elif right is not None or left is not None:
        child = tables[right if right is not None else left]
        base = child.group
        pair_of = [(i, None) if right is not None else (None, i)
                   for i in range(base.order)]
    else:
        base = trivial_group()
        pair_of = [(None, None)]

    nk = kernel.order
    if nk * base.order > 1:
        search = enumerate_extensions(base, kernel,
                                      max_order=max(64, nk * base.order))
        if extension_index >= len(search.extensions):
            raise NoExtensionFound(
                f"extension index {extension_index} out of range "
                f"({len(search.extensions)} found at anchor {anchor})")
        ext, proj = search.extensions[extension_index]
    else:
        ext, proj = trivial_group(), None

    # element e of the extension is the pair (e % nk, e // nk): the kernel
    # part labels the anchor slot, the base part the child triangles
    elements = []
    for e in range(ext.order):
        x, s = e % nk, e // nk
        labels: Dict[Slot, int] = {anchor: x}
        a, b = pair_of[s]
        for child_anchor, child_elt in ((right, a), (left, b)):
            if child_anchor is None or child_elt is None:
                continue
            child = tables[child_anchor]
            tri = child.elements[child_elt]
            for pos, label in zip(tri.positions, tri.labels):
                if pos in labels and labels[pos] != label:
                    raise OverlapInconsistency(
                        f"children disagree at {pos} under anchor {anchor}")
                labels[pos] = label
        elements.append(tuple(labels[pos] for pos in positions))
    if len(set(elements)) != len(elements):
        raise WellDefinednessFailure(f"anchor {anchor}: label map not injective")

    # canonical order: identity triangle first, then lexicographic
    order = sorted(range(len(elements)),
                   key=lambda e: (any(elements[e]), elements[e]))
    rank = {e: i for i, e in enumerate(order)}
    table = [[rank[ext.op(order[i], order[j])] for j in range(ext.order)]
             for i in range(ext.order)]
    tris = tuple(Triangle(anchor, positions, elements[e]) for e in order)
    fg = FiniteGroup(table, name=f"E({anchor[0]},{anchor[1]})", _validated=True)
    return ElementaryGroupTable(anchor, positions, tris, fg)


def _subdirect_base(tables: Dict[Anchor, ElementaryGroupTable],
                    right: Anchor, left: Anchor) -> tuple:
    """Subdirect product of the two child groups over their overlap."""
    rt, lt = tables[right], tables[left]
    overlap = tuple(p for p in rt.positions if p in set(lt.positions))
    if overlap:
        both_anchor = (right[0] + 1, left[1])
        # restrict both children onto the overlap triangle group; build it
        # from the right child's elements if not already present
        target = tables.get(both_anchor)
        if target is None or target.positions != overlap:
            raise WellDefinednessFailure(
                f"missing overlap table at {both_anchor}")
        p_right = _restriction_between(rt, target)
        p_left = _restriction_between(lt, target)
        sub = subdirect_product(rt.group, lt.group, p_right, p_left)
    else:
        prod, _, _ = direct_product(rt.group, lt.group)
        sub = Subgroup(prod, tuple(range(prod.order)))
    base, embed = sub.as_group(name="join")
    pair_of = [divmod(m, lt.group.order) for m in embed]
    return base, pair_of


def _restriction_between(source: ElementaryGroupTable,
                         target: ElementaryGroupTable) -> Homomorphism:
    src_pos = {p: i for i, p in enumerate(source.positions)}
    take = [src_pos[p] for p in target.positions]
    idx = {tri.labels: i for i, tri in enumerate(target.elements)}
    images = tuple(idx[tuple(tri.labels[i] for i in take)]
                   for tri in source.elements)
    return Homomorphism(source.group, target.group, images)


# -- depth restriction -------------------------------------------------------

def depth_restrict(es: ElementarySystem, m: int) -> ElementarySystem:
    """The top m rows as an elementary system in their own right; row
    indices re-base to 0..m-1 and the window shrinks accordingly."""
    if not 1 <= m <= es.depth:
        raise OutOfWindow(f"depth {m} not in 1..{es.depth}")
    if m == es.depth:
        return es
    drop = es.depth - m
    t0, t1 = es.window
    new_window = (t0, t1 - drop)
    sizes = {}
    tables = {}
    for (k, t) in es.slots():
        if k < drop:
            continue
        new_anchor = (k - drop, t)
        old = es.table((k, t))
        positions = tuple((kk - drop, s) for (kk, s) in old.positions)
        tris = tuple(Triangle(new_anchor, positions, tri.labels)
                     for tri in old.elements)
        tables[new_anchor] = ElementaryGroupTable(new_anchor, positions, tris,
                                                  old.group)
        sizes[new_anchor] = es.label_sizes[(k, t)]
    out = ElementarySystem(name=f"{es.name}|top{m}", ell=m - 1,
                           window=new_window, label_sizes=sizes, tables=tables)
    out.verify()
    return out


# -- structural equality -------------------------------------------------------

def structurally_equal(es1: ElementarySystem,
                       es2: ElementarySystem) -> Optional[Dict[Slot, tuple]]:
    """A family of per-slot label bijections carrying one system onto the
    other (entrywise on triangles, preserving every table); None if no
    family exists.  Identity labels must correspond."""
    if es1.ell != es2.ell or es1.window != es2.window:
        return None
    slots = es1.slots()
    if any(es1.label_sizes[s] != es2.label_sizes[s] for s in slots):
        return None
    anchors = sorted(slots, key=lambda p: (-p[0], -p[1]))

    def anchor_ok(anchor, phi) -> bool:
        t1, t2 = es1.tables[anchor], es2.tables[anchor]
        mapped = {}
        idx2 = {tri.labels: i for i, tri in enumerate(t2.elements)}
        for i, tri in enumerate(t1.elements):
            image = tuple(phi[pos][lab]
                          for pos, lab in zip(tri.positions, tri.labels))
            if image not in idx2:
                return False
            mapped[i] = idx2[image]
        if len(set(mapped.values())) != len(mapped):
            return False
        for a in range(t1.group.order):
            for b in range(t1.group.order):
                if mapped[t1.group.op(a, b)] != t2.group.op(mapped[a], mapped[b]):
                    return False
        return True

    def backtrack(i: int, phi: Dict[Slot, tuple]) -> Optional[Dict[Slot, tuple]]:
        if i == len(anchors):
            return dict(phi)
        anchor = anchors[i]
        n = es1.label_sizes[anchor]
        for perm in itertools.permutations(range(1, n)):
            phi[anchor] = (0,) + perm
            if anchor_ok(anchor, phi):
                result = backtrack(i + 1, phi)
                if result is not None:
                    return result
        phi.pop(anchor, None)
        return None

    return backtrack(0, {})
