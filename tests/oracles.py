"""The exhaustive all-pairs certificates, kept as test oracles.

Each function is the library's earlier implementation, which checked every
pair of members.  The library now checks element x generator pairs; the
differential tests in `test_certificates.py` run both on the same inputs.
Only these things changed on the way here: the functions take their object
as an argument; `elementary_group` no longer writes the context's cache, so
an oracle never feeds the code under test; `decode_to_tensor` rebuilds the
basis chain's member sets with `_basis_chain` instead of reading a basis
field; and `normal_chain` gives its chain an empty `choices` map, which
only the library's peel reads.
"""

from typing import Dict, List, Optional, Tuple

from groupsystems.chains import (
    ChainStep,
    FillingSequence,
    NormalChain,
    OplusGroup,
    PairedSequence,
    UpperPairedSequence,
    is_normal_filling_sequence,
    normal_subgroup_from_ps,
    paired_sequence_from_upper_complement,
    support_subgroup,
)
from groupsystems.elementary import ElementarySystem, global_product
from groupsystems.errors import (
    BoundExceeded,
    NotAGroupSystem,
    NotAMember,
    NotNormalFilling,
    OutOfWindow,
    RecoveryMismatch,
    WellDefinednessFailure,
)
from groupsystems.generators import (
    ElementaryGroupTable,
    GeneratorContext,
    Triangle,
    recover_system_fhgs,
    upper_triangle_positions,
)
from groupsystems.groups import FiniteGroup, is_normal
from groupsystems.systems import (
    DEFAULT_MEMBER_CAP,
    GeneratorBasis,
    GroupSystem,
    Seq,
    Slot,
    TensorR,
    realized_alphabets,
)


def elementary_group(ctx: GeneratorContext, k: int, t: int) -> ElementaryGroupTable:
    """The induced group on realized triangle slices at anchor (k, t).

    The product is computed through lifts; one pass over all tensor pairs
    certifies that it does not depend on the lifts chosen.
    """
    if (k, t) not in ctx.slot_pos:
        raise OutOfWindow(f"anchor ({k},{t}) not in the slot table")
    positions = upper_triangle_positions(ctx.system.window, ctx.ell, k, t)
    pos_idx = [ctx.slot_pos[p] for p in positions]

    def slice_of(labels: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(labels[i] for i in pos_idx)

    realized = sorted({slice_of(lab) for lab in ctx.tensors})
    realized.sort(key=lambda s: (any(s), s))  # identity slice first
    index = {s: i for i, s in enumerate(realized)}
    n = len(realized)

    table: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
    group = ctx.system.sequence_group
    for i, lab1 in enumerate(ctx.tensors):
        s1 = index[slice_of(lab1)]
        for j, lab2 in enumerate(ctx.tensors):
            s2 = index[slice_of(lab2)]
            prod = index[slice_of(ctx.tensors[group.op(i, j)])]
            if table[s1][s2] is None:
                table[s1][s2] = prod
            elif table[s1][s2] != prod:
                raise WellDefinednessFailure(
                    f"lift choice changes the product at anchor ({k},{t}): "
                    f"slices {realized[s1]} * {realized[s2]}")
    if any(x is None for row in table for x in row):
        raise WellDefinednessFailure(f"unreachable slice pair at anchor ({k},{t})")

    elements = tuple(Triangle((k, t), positions, s) for s in realized)
    fg = FiniteGroup([[int(x) for x in row] for row in table],
                     name=f"E({k},{t})")
    return ElementaryGroupTable((k, t), positions, elements, fg)


def recover_original(es: ElementarySystem, ctx: GeneratorContext) -> GroupSystem:
    """For a system-extracted elementary system: check the global product
    agrees with the transported operation, then recover the member set."""
    slots = es.slots()
    if slots != ctx.slots:
        raise RecoveryMismatch("slot tables differ")
    group = ctx.system.sequence_group
    for i, lab1 in enumerate(ctx.tensors):
        for j, lab2 in enumerate(ctx.tensors):
            via_global = global_product(es, lab1, lab2)
            via_circ = ctx.tensors[group.op(i, j)]
            if via_global != via_circ:
                raise RecoveryMismatch(
                    f"global product deviates at {lab1} * {lab2}")
    recovered = recover_system_fhgs(ctx)
    if recovered.sequences != ctx.system.sequences:
        raise RecoveryMismatch("member sets differ")
    return recovered


def build_system(window, alphabets, seeds, name: str = "A",
                 member_cap: int = DEFAULT_MEMBER_CAP) -> GroupSystem:
    """Saturate seed sequences under componentwise products into a system.

    Per-time alphabets are restricted to their realized projections."""
    t0, t1 = window
    length = t1 - t0 + 1
    ident = (0,) * length
    alphabets = tuple(alphabets)

    def mul(a: Seq, b: Seq) -> Seq:
        return tuple(g.op(x, y) for g, x, y in zip(alphabets, a, b))

    members = {ident}
    frontier = [ident]
    for s in seeds:
        s = tuple(int(x) for x in s)
        if len(s) != length:
            raise NotAGroupSystem("seed has wrong length", s)
        for x, g in zip(s, alphabets):
            if not 0 <= x < g.order:
                raise NotAGroupSystem("letter out of range", (s, x))
        if s not in members:
            members.add(s)
            frontier.append(s)
    while frontier:
        new = []
        snapshot = list(members)
        for a in snapshot:
            for b in frontier:
                for prod in (mul(a, b), mul(b, a)):
                    if prod not in members:
                        members.add(prod)
                        new.append(prod)
                        if len(members) > member_cap:
                            raise BoundExceeded(
                                f"saturation exceeds member cap {member_cap}")
        frontier = new
    alphabets, members = realized_alphabets(alphabets, members)
    return GroupSystem(window, alphabets, members, name=name,
                       member_cap=member_cap, _closed=True)


def verify_closure(system: GroupSystem) -> None:
    """Exhaustive componentwise-closure check with a witness pair."""
    for a in system.sequences:
        for b in system.sequences:
            if system.mul(a, b) not in system._index:
                raise NotAGroupSystem("product escapes member set", (a, b))


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


def decode_to_tensor(basis: GeneratorBasis, seq: Seq) -> TensorR:
    """Invert the time-domain encoder by peeling cosets down the slot chain."""
    system = basis.system
    seq = tuple(seq)
    if seq not in system:
        raise NotAMember(f"{seq} is not a member of {system.name}")
    chain_sets = _basis_chain(system, basis.slots, basis.transversals)
    choice = [0] * len(basis.slots)
    residual = seq
    for i in range(len(basis.slots) - 1, -1, -1):
        slot = basis.slots[i]
        prev = chain_sets[i]
        for c, g in enumerate(basis.transversal(slot)):
            candidate = system.mul(residual, system.inverse(g))
            if candidate in prev:
                choice[i] = c
                residual = candidate
                break
        else:
            raise NotAGroupSystem("coset peel failed", (slot, residual))
    return TensorR(basis, tuple(choice))


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
    return NormalChain(f, tuple(steps), tuple(sorted(base_sub.members)), {})


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
