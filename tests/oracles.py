"""The exhaustive all-pairs certificates, kept as test oracles.

Each function is the library's earlier implementation, which checked every
pair of members.  The library now checks element x generator pairs; the
differential tests in `test_certificates.py` run both on the same inputs.
Only two things changed on the way here: the functions take their object
as an argument, and `elementary_group` no longer writes the context's
cache, so an oracle never feeds the code under test.
"""

from typing import List, Optional, Tuple

from groupsystems.elementary import ElementarySystem, global_product
from groupsystems.errors import (
    BoundExceeded,
    NotAGroupSystem,
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
from groupsystems.groups import FiniteGroup
from groupsystems.systems import (
    DEFAULT_MEMBER_CAP,
    GroupSystem,
    Seq,
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
