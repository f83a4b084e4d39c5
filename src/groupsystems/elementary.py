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
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BoundExceeded,
    DomainError,
    NoExtensionFound,
    OutOfWindow,
    OverlapInconsistency,
    RecoveryMismatch,
    UnrealizedSlice,
    WellDefinednessFailure,
    count_text,
)
from .extensions import enumerate_extensions, fibre_product
from .generators import (
    ElementaryGroupTable,
    GeneratorContext,
    _slice_classes,
    elementary_group,
    recover_system_fhgs,
    restriction_images,
    slice_classes,
)
from .groups import (FiniteGroup, class_table, compose_columns,
                     homomorphism_witness, trivial_group)
from .slots import (
    Slot,
    check_slot_table,
    children,
    entries_at,
    in_slot_table,
    iter_window_slots,
    positions_in,
    upper_triangle_positions,
    walk,
    window_slots,
)
from .systems import (
    DEFAULT_MEMBER_CAP,
    GroupSystem,
    all_tensors,
    controllability_index,
)


# the entries of all anchor tables one construction builds: 2^26 of them
# take 0.5 GB as pointers alone, and their dump several times that
ANCHOR_TABLE_CAP = 2 ** 26
# the kernel of an anchor without one, and the overlap of disjoint children
_Z1 = trivial_group()


@dataclass(frozen=True)
class ElementarySystem:
    """Per-anchor triangle groups over label sets, with the projection
    condition between nested anchors as the defining invariant."""

    name: str
    ell: int
    window: Tuple[int, int]
    label_sizes: Dict[Slot, int]
    tables: Dict[Slot, ElementaryGroupTable]

    @property
    def depth(self) -> int:
        return self.ell + 1

    def slots(self) -> Tuple[Slot, ...]:
        return window_slots(self.window, self.ell)

    def table(self, anchor: Slot) -> ElementaryGroupTable:
        try:
            return self.tables[anchor]
        except KeyError:
            raise WellDefinednessFailure(
                f"anchor {anchor} has no local group") from None

    @cached_property
    def _product_plan(self) -> tuple:
        """(slots, per time t: anchor (0, t), its slot indices, a getter of
        its slice, triangle -> element index, elements, operation table),
        for `global_product` and `global_group_system`."""
        slots = self.slots()
        plan = []
        for t in range(self.window[0], self.window[1] + 1):
            table = self.table((0, t))
            take = positions_in(slots, table.positions)
            get = entries_at(take)
            plan.append(((0, t), take, get, table._index, table.elements,
                         table.group.op_table))
        return slots, tuple(plan)

    def verify(self) -> None:
        """Cartesian element sets plus the projection condition.  Anchors
        are visited one at a time, so a window far wider than the tables
        given fails at the first anchor without one."""
        check_slot_table(self.window, self.ell)
        for anchor in iter_window_slots(self.window, self.ell):
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
            if len(set(table.elements)) != len(table.elements):
                raise WellDefinednessFailure(f"anchor {anchor}: duplicate triangle")
            # distinct triangles of labels in range, as many as the product
            for pos, col in zip(table.positions, zip(*table.elements)):
                if min(col) < 0 or max(col) >= self.label_sizes[pos]:
                    raise WellDefinednessFailure(
                        f"anchor {anchor}: a label at slot {pos} is outside "
                        f"0..{self.label_sizes[pos] - 1}")
        ok, witness = check_homomorphism_condition(self)
        if not ok:
            raise WellDefinednessFailure(f"projection condition fails: {witness}")


def nested_targets(es: ElementarySystem, anchor: Slot) -> Tuple[Slot, ...]:
    """The next two largest anchors nested in `anchor`, clipped to the window."""
    return tuple(c for c in children(es.window, es.ell, anchor) if c is not None)


def check_homomorphism_condition(es: ElementarySystem) -> tuple:
    """Verify both nested projections at every anchor.

    Returns (True, None) or (False, witness) where the witness names the
    source anchor, target anchor, and the offending element pair.  Each
    projection is checked on the pairs (a, s) with s the identity or a
    generator of the source group, which `homomorphism_witness` shows is
    equivalent to checking every pair.
    """
    for anchor in es.slots():
        for target in nested_targets(es, anchor):
            source = es.table(anchor)
            tgt = es.table(target)
            images = restriction_images(source, tgt)
            if None in images:
                return False, (anchor, target, source.elements[images.index(None)])
            bad = homomorphism_witness(source.group, tgt.group, images)
            if bad is not None:
                return False, (anchor, target, bad)
    return True, None


# -- extraction ----------------------------------------------------------------

def extract_elementary_system(ctx: GeneratorContext) -> ElementarySystem:
    """Every anchor's elementary group over the generator label sets, not
    verified again: each table is a quotient of A by a certified
    congruence, a nested anchor's coarser, so restriction is a homomorphism,
    and the tensor bijection gives the Cartesian count.  A reload verifies."""
    return ElementarySystem(
        name=f"E({ctx.system.name})",
        ell=ctx.ell,
        window=ctx.system.window,
        label_sizes={slot: ctx.basis.label_count(slot) for slot in ctx.slots},
        tables={anchor: elementary_group(ctx, *anchor) for anchor in ctx.slots},
    )


# -- the global group -----------------------------------------------------------

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


def check_tensor_count(slot_counts: Dict[int, int]) -> None:
    """The global group has one element per label tensor, a label of its
    slot's size at every slot (`slot_counts`: size -> number of slots).
    Above the member cap, raise before any is built.  A count past
    2^(2^16) is not formed; the power of two it reaches is summed size by
    size, so no window is too long to count."""
    bits = sum(n * (size.bit_length() - 1) for size, n in slot_counts.items())
    if bits > DEFAULT_MEMBER_CAP:
        text = f"at least 2^{bits}"
    else:
        count = math.prod(size ** n for size, n in slot_counts.items())
        if count <= DEFAULT_MEMBER_CAP:
            return
        text = count_text(count)
    raise BoundExceeded(f"global group system: {text} label tensors exceed "
                        f"cap {DEFAULT_MEMBER_CAP}")


def global_group_system(es: ElementarySystem) -> GroupSystem:
    """The per-time image of the global group, and its one table: letters
    are time-t triangles, alphabets the local groups; verified strongly
    controllable at exactly its depth and complete by construction.

    Distinct tensors give distinct members: slot (k, s) lies in the (0, s)
    triangle, so two tensors that differ at it differ in their time-s
    slices, which are distinct triangles and so distinct letters.

    The system is built closed, so `GroupSystem` checks only its identity
    and is not validated a second time.  `es` is verified, extracted or
    constructed (an unverified one that misses a slice raises
    WellDefinednessFailure naming its (0, t) anchor), so:
    - the global group, all label tensors under the slicewise product, is
      a group: the projection condition makes the (0, t) tables agree on
      their overlaps;
    - the member letters map it into the product of the E(0, t), one
      letter per time, a homomorphism, and injective by the above;
    - so the members are a subgroup, closed and holding every inverse,
      and each letter is an element index of its table, in range;
    - every triangle is a label tuple and every label tuple is some
      tensor's slice (the Cartesian count), so every letter is realized.
    The oracle `tests/oracles.validate_system` still runs every pass.

    The controllability index is at most `es.ell`: a member is the
    identity at s iff its tensor is 0 on the (0, s) triangle, so
    |A^[a, b]| is the product of the label counts of the slots inside
    [a, b], and the identity |A^[t0, t+l-1]| |A^[t, t1]| = |A| |A^[t, t+l-1]|
    (`controllability_index`) holds at every t once no slot starts before
    t and ends after t+l-1, as at l = `es.ell`.  An index below `es.ell`
    is refused: the re-extraction has a smaller slot table than `es`, so
    the roundtrip would reject the file; a trivial seed group with
    ell >= 1 gives one."""
    sizes = list(map(es.label_sizes.__getitem__, es.slots()))
    check_tensor_count(Counter(sizes))
    _, plan = es._product_plan
    alphabets = [es.table(anchor).group for anchor, *_ in plan]
    try:
        members = [tuple(idx[get(v)] for _, _, get, idx, _, _ in plan)
                   for v in all_tensors(sizes)]
    except KeyError:
        anchor, tri = next((anchor, get(v)) for v in all_tensors(sizes)
                           for anchor, _, get, idx, _, _ in plan if get(v) not in idx)
        raise WellDefinednessFailure(f"anchor {anchor} has no triangle {tri}") from None
    system = GroupSystem(es.window, alphabets, members, name=f"S({es.name})",
                         _closed=True)
    ell = controllability_index(system)
    if ell < es.ell:
        raise WellDefinednessFailure(f"global system realizes ell={ell}, "
                                     f"below the seeded ell={es.ell}")
    return system


def _check_product(es: ElementarySystem, lab1: tuple, lab2: tuple,
                   expected: tuple) -> None:
    if global_product(es, lab1, lab2) != expected:
        raise RecoveryMismatch(f"global product deviates at {lab1} * {lab2}")


def recover_original(es: ElementarySystem, ctx: GeneratorContext) -> GroupSystem:
    """For a system-extracted elementary system: check the global product
    agrees with the member product on every pair of members, then recover
    the member set.

    The check compares each (0, t) table of `es` with the context's own
    certified E(0, t) through the triangles.  Write cls_t for the class map
    of E(0, t): member a -> index of its time-t slice.  Its partition is a
    certified two-sided congruence (`elementary_group`), so cls_t is a
    homomorphism of the member group onto E(0, t), and the time-t slice
    of a b is the triangle own_t[cls_t(a) cls_t(b)].  With phi_t(x) the
    index of triangle own_t[x] in the table of `es` (None if it has none),
    time t passes at the class pair (x, y) when
        elements_t[op_t[phi_t x][phi_t y]] == own_t[x y].
    Where the (0, t) table sits on E(0, t)'s positions, `global_product(a,
    b)` writes at those positions the left side at (cls_t a, cls_t b), or
    raises UnrealizedSlice where phi_t is None; the tensor of a b holds the
    right side there.  So if every time passes at the classes of a and b,
    every time writes the labels of that one tensor, no overlap disagrees,
    and the product is right; if a time fails, a lookup raises or a label
    differs from the tensor's, which either disagrees on an overlap or
    stays in the result.  A pair of members is thus rejected iff its
    classes fail at some time, and since each cls_t is onto, all |A|^2
    pairs are decided by |E(0, t)|^2 class pairs per time.  The first
    rejected pair in member order is the least (first member of class x,
    first member of class y) over the failing class pairs, and it is
    raised through `_check_product`, so the error and its witness are the
    ones the all-pairs loop raises first (`tests/oracles.recover_original`).

    A time whose (0, t) table is the context's own E(0, t) (the same
    object) has phi_t the identity, and its condition is the homomorphism
    property of cls_t, so it is not compared.  A table on other positions
    than E(0, t)'s, or a context whose E(0, t) fails its certificate, has
    no such argument: then every pair of members goes through
    `global_product` until the first one fails.
    """
    if es.slots() != ctx.slots:
        raise RecoveryMismatch("slot tables differ")
    failing: List[Tuple[int, int]] = []
    for t in ctx.system.times():
        table = es.table((0, t))
        try:
            own = elementary_group(ctx, 0, t)
        except WellDefinednessFailure:
            own = None
        if own is table:
            continue
        if own is None or own.positions != table.positions:
            pairs = itertools.product(range(len(ctx.tensors)), repeat=2)
            break
        failing += _failing_pairs(table, own, slice_classes(ctx, 0, t))
    else:
        pairs = [min(failing)] if failing else []
    system, tensors = ctx.system, ctx.tensors
    for a, b in pairs:
        ab = system.index_of(system.mul(system.sequences[a], system.sequences[b]))
        _check_product(es, tensors[a], tensors[b], tensors[ab])
    return recover_system_fhgs(ctx)


def _failing_pairs(table: ElementaryGroupTable, own: ElementaryGroupTable,
                   cls: List[int]) -> List[Tuple[int, int]]:
    """(first member of class x, first member of class y) under `cls` for
    each class pair (x, y) of `own` with elements[op[phi x][phi y]] !=
    own.elements[x y], phi mapping each triangle of `own` to its index in
    `table` (None if it has none)."""
    phi = list(map(table._index.get, own.elements))
    elements, op = table.elements, table.group.op_table
    first = dict(zip(reversed(cls), range(len(cls) - 1, -1, -1)))
    return [(first[x], first[y]) for x, row in enumerate(own.group.op_table)
            for y, xy in enumerate(row)
            if phi[x] is None or phi[y] is None
            or elements[op[phi[x]][phi[y]]] != own.elements[xy]]


# -- construction ----------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionStrategy:
    """Kernel choice per depth below the top row, and which extension of the
    subdirect product to take (an index into the deterministic enumeration;
    index 0 always exists, and one outside it raises NoExtensionFound).

    Keys are depths k for time-invariant choices; an anchor key (k, t)
    overrides the depth default, which is the time-varying escape hatch.
    A key that no anchor reads (kernels are read below the top row only)
    is refused by `construct_elementary_system` as OutOfWindow."""

    kernels: Dict = None
    extension_indices: Dict = None

    def kernel(self, k: int, t: int) -> FiniteGroup:
        if not self.kernels:
            return _Z1
        return self.kernels.get((k, t), self.kernels.get(k, _Z1))

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
    strategy's kernel for that depth.  Extension index 0, the direct
    product, runs no search (`_build_anchor`); anchors with equal base and
    kernel tables share one search, remembered for this call only.
    Tables of more than ANCHOR_TABLE_CAP entries in all raise
    BoundExceeded before any anchor is built.

    The result is not verified again (`ElementarySystem.verify`); its
    build checks certify it, and a reload verifies:
    - Restriction to a child is a homomorphism.  Element e of the
      extension maps to the child triangle that base element e // nk
      names, which is the composite of three homomorphisms: the
      extension's projection e -> e // nk onto the base (the direct
      product's at index 0), the coordinate map of the fibre product onto
      that child, and the ranking of the triangles, an isomorphism.  The
      anchor's labels on the child's positions are copied from that child
      triangle, so this map is exactly the restriction.
    - The Cartesian count holds by induction from the top row.  The
      anchor has |k| |base| elements, its label size is |k|, and the base
      is a child's group or the fibre product R x_O L of the children over
      the overlap table O.  Both projections onto O are verified
      surjective, so each fibre has |R|/|O| or |L|/|O| elements and
      |R x_O L| = |R| |L| / |O|, the product of the label sizes at the
      positions of R or L, which with the anchor are the anchor's.  Each
      label is in range: the anchor's is e % nk < |k|, the others are
      copied from the children.
    - The triangles are distinct and the two children agree on their
      overlap, by the arguments in `_build_anchor`.
    """
    strategy = strategy or ConstructionStrategy({})
    check_slot_table(window, ell)
    t0, t1 = window
    # every key must be read by an anchor, kernels below the top row: a
    # depth key k by anchor (k, t0), since no row up to ell is empty
    for what, keys, k_max, place in (
            ("kernel", strategy.kernels, ell - 1, "below the top row of"),
            ("extension index", strategy.extension_indices, ell, "in")):
        for key in keys or ():
            slot = key if isinstance(key, tuple) else (key, t0)
            if not in_slot_table(window, k_max, slot):
                raise OutOfWindow(f"{what} key {key} names no anchor {place} "
                                  f"the slot table of ell {ell} on [{t0},{t1}]")
    # the row walk backwards: the top row first, children before parents
    anchors = tuple(reversed(walk(window, ell, "spec_rev")))
    kernels = {(k, t): top if k == ell else strategy.kernel(k, t)
               for k, t in anchors}
    positions = {(k, t): upper_triangle_positions(window, ell, k, t)
                 for k, t in anchors}
    # an anchor's group has one element per label triangle (the Cartesian
    # count below), and its table the square of that many entries
    entries = sum(math.prod(kernels[p].order for p in positions[a]) ** 2
                  for a in anchors)
    if entries > ANCHOR_TABLE_CAP:
        raise BoundExceeded(f"construction: {count_text(entries)} anchor table "
                            f"entries exceed cap {ANCHOR_TABLE_CAP}")
    tables: Dict[Slot, ElementaryGroupTable] = {}
    searches: dict = {}  # (base table, kernel table) -> extensions
    for anchor in anchors:
        tables[anchor] = _build_anchor(
            tables, anchor, positions[anchor], *children(window, ell, anchor),
            kernels[anchor], strategy.extension_index(*anchor), searches)
    return ElementarySystem(name=name, ell=ell, window=window,
                            label_sizes={a: g.order for a, g in kernels.items()},
                            tables=tables)


def _build_anchor(tables: Dict[Slot, ElementaryGroupTable], anchor: Slot,
                  positions: Tuple[Slot, ...], right: Optional[Slot],
                  left: Optional[Slot], kernel: FiniteGroup,
                  extension_index: int, searches: dict) -> ElementaryGroupTable:
    """The anchor's table: an extension of the base (the fibre product of
    its children over their shared subtriangle, or whatever part exists)
    by the kernel.  Element e = s |k| + x is base element s with kernel
    label x: it labels the anchor slot x and the child positions with the
    child triangles s names.  The triangles are ranked (`_slice_classes`)
    and the table is written once, in that order.

    - The children agree on their overlap.  A base pair (a, b) has equal
      images in the overlap table, and both maps are restrictions, so a's
      and b's triangles hold one overlap triangle on the shared positions.
    - The triangles are distinct.  Distinct e differ in x, the anchor
      label, or in s, and then in a or in b, whose child triangles are
      distinct elements of a child table and are copied whole.
    - Index 0 is the direct product k × base, which `enumerate_extensions`
      lists first, so it runs no search: its table is composed from the
      columns of the kernel's generators at the identity of the base and
      of the base's generators at the kernel's identity, which generate
      k × base.  A trivial kernel or base has only this extension, and an
      index >= 1 there is out of range.
    - An index >= 1 runs the search on the base table, composed from the
      same columns in base order, and its extension (x, s) at s |k| + x
      is relabeled by the ranks (`class_table`).
    """
    heads, base_columns, base_name = _anchor_base(tables, positions[:-1],
                                                  right, left)
    nk, nb = kernel.order, len(heads)
    ext = None
    if extension_index:
        # a trivial kernel or base has one extension, k x base
        count = 1
        if nk > 1 and nb > 1:
            base = FiniteGroup(compose_columns(base_columns, nb), name=base_name,
                               _validated=True)
            key = (base.op_table, kernel.op_table)
            extensions = searches.get(key)
            if extensions is None:
                search = enumerate_extensions(base, kernel,
                                              max_order=max(64, nk * nb))
                extensions = tuple(group for group, _ in search.extensions)
                searches[key] = extensions
            count = len(extensions)
        if not 0 <= extension_index < count:
            raise NoExtensionFound(
                f"extension index {extension_index} out of range "
                f"({count} found at anchor {anchor})")
        ext = extensions[extension_index]
    # the anchor slot is the last position: the bottom row of its triangle
    realized, rank, order = _slice_classes([head + (x,) for head in heads
                                            for x in range(nk)])
    if ext is not None:
        table = class_table(ext.op_table, rank, order)
    else:
        # columns over e = s nk + x, then read in triangle order
        columns = [[s + y for s in range(0, nb * nk, nk) for y in col]
                   for col in ([row[g] for row in kernel.op_table]
                               for g in kernel.generators)]
        columns += (base_columns if nk == 1 else
                    [[s + x for s in map(nk.__mul__, col) for x in range(nk)]
                     for col in base_columns])
        get = rank.__getitem__
        table = compose_columns([list(map(get, map(col.__getitem__, order)))
                                 for col in columns], nb * nk)
    fg = FiniteGroup(table, name=f"E({anchor[0]},{anchor[1]})", _validated=True)
    return ElementaryGroupTable(anchor, positions, tuple(realized), fg)


def _anchor_base(tables: Dict[Slot, ElementaryGroupTable],
                 positions: Tuple[Slot, ...], right: Optional[Slot],
                 left: Optional[Slot]) -> tuple:
    """The base of an anchor whose child positions are `positions`, as
    (heads, columns, name): heads[s] is base element s's labels at those
    positions, and columns[j][s] is s times the j-th generator of a
    generating set of the base.

    With both children the base is their fibre product over the overlap
    (`fibre_product`; over the trivial group, the direct product, when
    they share no slot).  The children (k+1, t) and (k+1, t-1) of (k, t)
    hold the slots whose spans cover [t, t+k+1] and [t-1, t+k], so their
    overlap holds those covering [t-1, t+k+1]: the triangle of (k+2,
    t-1), in the same order.  It is empty exactly when that anchor is
    outside the slot table, and otherwise its table is built, since rows
    are built deepest first.  Both maps are restrictions of constructed
    anchors to their own child (k+2, t-1), so homomorphisms by the first
    point of `construct_elementary_system`."""
    if right is None or left is None:
        if right is None and left is None:
            return [()], [], "Z1"
        child = tables[right if right is not None else left]
        op = child.group.op_table
        get = entries_at(positions_in(child.positions, positions))
        return (list(map(get, child.elements)),
                [[row[g] for row in op] for g in child.group.generators],
                child.group.name)
    rt, lt = tables[right], tables[left]
    target = tables.get((right[0] + 1, left[1]))
    if target is None:
        q = _Z1
        images = (0,) * rt.group.order, (0,) * lt.group.order
    else:
        q = target.group
        images = restriction_images(rt, target), restriction_images(lt, target)
    pairs, columns = fibre_product(rt.group, lt.group, q, *images)
    get = entries_at(positions_in(rt.positions + lt.positions, positions))
    heads = [get(rt.elements[a] + lt.elements[b]) for a, b in pairs]
    return heads, columns, f"{rt.group.name}x{lt.group.name}"


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
        tables[new_anchor] = ElementaryGroupTable(new_anchor, positions,
                                                  old.elements, old.group)
        sizes[new_anchor] = es.label_sizes[(k, t)]
    out = ElementarySystem(name=f"{es.name}|top{m}", ell=m - 1,
                           window=new_window, label_sizes=sizes, tables=tables)
    out.verify()
    return out


# -- the roundtrip certificate ---------------------------------------------------

def roundtrip_label_maps(es: ElementarySystem,
                         ctx: GeneratorContext) -> Optional[Dict[Slot, tuple]]:
    """The per-slot label bijections that carry `es` onto its
    re-extraction, where `ctx` is the context of `global_group_system(es)`;
    None where the isomorphism of the roundtrip is not one of labels.

    Member m of that system is a label tensor of `es`, and its letter at t
    is its (0, t) triangle.  Each anchor (k, t) has two class maps on the
    members, and both are surjective homomorphisms from the member group:
    - the file's, m -> its (0, t) triangle restricted to (k, t), because
      the member product is letterwise in E(0, t), restriction is a
      homomorphism (the projection condition a reload verifies) and every
      triangle is realized (the Cartesian count);
    - the re-extraction's, `slice_classes(ctx, k, t)`, because its
      partition is a certified congruence (`elementary_group`).
    The label sizes agree, so both groups have one order n by the Cartesian
    count, and the two maps factor through one isomorphism E(k, t) ->
    E'(k, t) exactly when they partition the members alike, that is when
    they take n distinct pairs over the members.  On both sides restriction
    to a nested anchor only reads positions, so these isomorphisms commute
    with every projection and form a natural isomorphism of the two
    diagrams of groups (S. Mac Lane, Categories for the Working
    Mathematician, 1971, I.4).  A member's label at slot p is read off its
    triangle at anchor p on both sides, so the family is induced by label
    bijections exactly when the isomorphism at each anchor p pairs the
    labels at p one to one; it is then returned as {slot: tuple of
    re-extraction labels indexed by the label of `es`}.

    One pass over the members per anchor, with no search and no cap.  A
    slot table or label sizes other than `es`'s raise DomainError; an
    anchor whose partitions differ raises RecoveryMismatch naming it and
    two members that share its triangle in `es` but not in the
    re-extraction.
    """
    if es.label_sizes != {s: ctx.basis.label_count(s) for s in ctx.slots}:
        raise DomainError("re-extracted elementary system differs")
    maps: Dict[Slot, tuple] = {}
    for k, t in ctx.slots:
        table, own = es.table((k, t)), elementary_group(ctx, k, t)
        images = restriction_images(es.table((0, t)), table)
        es_cls = [images[x] for x in ctx.system.columns[t - es.window[0]]]
        ext_cls = slice_classes(ctx, k, t)
        pairs = set(zip(es_cls, ext_cls))
        if len(pairs) != len(table.elements):
            # es_cls is onto the triangles, so there are more pairs than
            # triangles and some triangle has members in two classes
            first: Dict[int, int] = {}
            a, b = next((first[x], m) for m, x in enumerate(es_cls)
                        if ext_cls[first.setdefault(x, m)] != ext_cls[m])
            raise RecoveryMismatch(
                f"re-extracted elementary system differs at anchor {(k, t)}: "
                f"members {a} and {b} share a triangle of the file but not "
                f"of the re-extraction")
        at = table.positions.index((k, t))
        labels = set((table.elements[x][at], own.elements[y][at])
                     for x, y in pairs)
        if len(labels) == es.label_sizes[(k, t)]:
            maps[(k, t)] = tuple(y for _, y in sorted(labels))
    return maps if len(maps) == len(ctx.slots) else None
