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

They read the member product on the |A| x |A| table that the library no
longer builds, `sequence_group`, which comes first, built once per system
object, with the subgroup views on it as the library had them before a
member subgroup became a tuple of member indices: `support_subgroup` with
its closure check on the table, `lower_elementary_group`, and
`normal_subgroup_from_ps` by set products of the teeth.

The extract-path routines after those are the per-pair forms that the
column kernels replaced: Cayley graphs built from tuple products, the
granule test through `_set_product` with X^{t+1}, the one-sided member
sets found by scanning every member, and the rule unrolling by nested
loops per member.  Their only change: the granule test reads X^t and Y^t
from this module.  The recovery check has no per-pair form of its own:
the library compares each (0, t) table with the context's own E(0, t),
and the reference for its verdict and witness is `recover_original`
above, one `global_product` per pair of members.

Next come the routines that nested quotients, Light's test and cut ids
replaced: every elementary group certified and tabled on the members
(`induced_slice_group`, `member_elementary_group`), associativity at one
z over a set of elements (`associative_at`) and over all triples
(`is_associative`), and the controllability index by slicing every
member per (t, l).

The construction routines after those are the earlier table validation
(all triples), the all-pairs homomorphism checks, the subdirect product
through the full direct product, the isomorphism search that closes each
partial map under all products, and the extension search that builds and
validates a table for every factor set.  The only change there: the search
validates its candidate tables with the oracle `_validate_table` and
compares groups with the oracle `find_isomorphism`, so it depends on
neither the library's table check nor its isomorphism search.  After
them comes the construction that built each anchor twice: the base table
in pair order, an extension search at every index, then the relabel
into triangle order (`construct_elementary_system`).

Then come the generator basis and the recovery on member sequences:
support sets found by scanning every member, the finite-extent
denominator as the set product of its two factors, each coset formed by
one tuple product per denominator member, the basis chain by one tuple
product per (member, entry) pair, and the recovered member set folded
through `alpha_t` once per element, then sorted and validated as a new
system; that `alpha_t` is the per-triangle fold that the library's column
fold `_alpha_column` replaced.  The only change: `extract_basis` runs the
granule test with X^{t+1} (`check_granule`), so the whole basis depends
on no library routine but the controllability index; `check_basis_granules`
runs that test, pair loop included, on a library basis.  `recover_original`
calls this `recover_system_fhgs`, and `direct_product` is the table
filled entry by entry.

Last are the second copies of the structural checks that `groups.py` now
answers once: the automorphism search with its own backtracking and
all-pairs verification, the structural equality that checks each anchor
map on all pairs, Light's test in its (x y) z form, the table check with
Light's test written out in it (for its witness), the inverse table by
scanning every pair, the subgroup check on all pairs, and the normality
test conjugating every member by every element.  The oracle normal chain
and the oracle quotients decide normality with this `is_normal`, the
oracle extension search finds its automorphisms with this
`automorphisms`, and the oracle subdirect product decides closure with
`subgroup_members`.

Then come the slot-table routines as each module wrote them before the
slot geometry moved into `slots.py`: both triangles, the lower-triangle
containment, the lower purge and the upper one of `complementary`, the
two complements with their own partition checks, the four walk loops,
the span-by-span encoder loop, the alphabet matrix and the two fold
loops, the nested anchors, the nesting test of `triangle_projection`,
the two nested targets and the construction's child lookup.  They take
the window and the depth where the library takes a context.

Then comes `TensorR`, the validating wrapper that label tensors were
before they became plain label tuples.  Its checks are the reference for
the check every tuple from a caller gets.

At the very end are the text readers as each format wrote them before
`io.py` read integers, lines and group tables once: `parse_group`,
`parse_system`, `parse_elementary_system` with their own integer
conversions, group headers and comment stripping, and the command line's
`read_int_lines`.  They call the library only for what did not change:
group names, rule unrolling, saturation, the upper triangle and the
elementary system's checks.

Last of all are the quotients as each site built them before
`groups.class_table` read every table off a class map and
`Subgroup.quotient_by` formed every quotient of nested subgroups:
`quotient` sorting its cosets after finding them, `as_group` by parent
products, `make_group` relabeling through `perm.index`, the granules'
`quotient_of_member_sets`, and `zassenhaus_hom` with its own subgroup
tables and position maps.  They call the library only for the row check
and the subgroup intersections and products.  The oracle extension search
and `parse_group` above build their kernel and relabeled tables with these
`as_group` and `make_group`.

Then comes the generating set the extract path read before it kept
only the entries outside the closure of those before them: the identity
plus every transversal entry, with both Cayley graphs built entry by
entry (`full_generating_set`, `with_full_generating_set`).

The very last are the passes the extract path ran again on what an
earlier step had certified: the validation of a built system (letter
range, inverses, closure and every letter realized, member by member:
`validate_system`), the earlier recovery's agreement pass on element x
generator pairs at every time, the context's own tables included
(`deviating_pairs`), and the dump that
formats every table and triangle list of an elementary system anew
(`dump_elementary_system`).  The fill check of every normal chain step
is with the oracle `normal_chain` above, and also stands alone
(`check_chain_fill`) for the library's chains.
"""

import itertools
import re
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from groupsystems.chains import (
    ChainStep,
    FillingSequence,
    NormalChain,
    OplusGroup,
    PairedSequence,
    UpperPairedSequence,
    complementary,
    is_normal_filling_sequence,
)
from groupsystems.elementary import (
    ConstructionStrategy,
    ElementarySystem,
    global_product,
)
import groupsystems.io as fmt
from groupsystems.io import _TAP_RE
from groupsystems.slots import upper_triangle_positions as library_upper_triangle_positions
from groupsystems.errors import (
    AxiomViolation,
    BoundExceeded,
    DomainError,
    NoExtensionFound,
    NotASubgroup,
    NotNormal,
    NotSurjective,
    NotAGroupSystem,
    ParseError,
    NotAMember,
    NotControllableOnWindow,
    NotNormalFilling,
    OutOfWindow,
    PreconditionViolated,
    RecoveryMismatch,
    ShapeMismatch,
    WellDefinednessFailure,
)
from groupsystems.generators import (
    ElementaryGroupTable,
    GeneratorContext,
    elementary_group as library_elementary_group,
    restriction_images,
    slice_classes,
)
from groupsystems.extensions import (
    AUTOMORPHISM_CANDIDATE_CAP,
    DEFAULT_EXTENSION_ORDER_CAP,
    ExtensionSearch,
)
from groupsystems.groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Homomorphism,
    QuotientPresentation,
    Subgroup,
    _check_row,
    homomorphism_witness,
    intersect_subgroups,
    product_of_subgroups,
)
from groupsystems.systems import (
    DEFAULT_MEMBER_CAP,
    GeneratorBasis,
    GroupSystem,
    Seq,
    Slot,
    build_system as library_build_system,
    controllability_index as library_controllability_index,
    realized_alphabets,
    window_slots,
)


_TABLES: "weakref.WeakKeyDictionary[GroupSystem, FiniteGroup]" = weakref.WeakKeyDictionary()


def sequence_group(system: GroupSystem) -> FiniteGroup:
    """The member group as an explicit |A| x |A| table over member indices,
    built once per system object: row a lists a*b for every member b, one
    left translate of the letter columns per member."""
    if system not in _TABLES:
        table = tuple(tuple(system.translate(system.columns, a, right=False))
                      for a in system.sequences)
        _TABLES[system] = FiniteGroup(table, name=system.name, _validated=True)
    return _TABLES[system]


def support_subgroup(ctx: GeneratorContext, allowed) -> Subgroup:
    """Tensors supported inside `allowed` as a subgroup of the table."""
    members = tuple(i for i, lab in enumerate(ctx.tensors)
                    if all(slot in allowed for slot in ctx.support(lab)))
    return Subgroup(sequence_group(ctx.system), members)


def lower_elementary_group(ctx: GeneratorContext, k: int, t: int) -> Subgroup:
    """Image in the generator group of the members supported on [t, t+k]."""
    t0, t1 = ctx.system.window
    if not (t0 <= t and t + k <= t1):
        raise OutOfWindow(f"interval [{t},{t + k}] escapes the window")
    members = tuple(ctx.system.finite_support_indices(t, t + k))
    sub = Subgroup(sequence_group(ctx.system), members)
    allowed = set(lower_triangle_positions(ctx.system.window, ctx.ell, k, t))
    for i in sub.members:
        bad = [slot for slot in ctx.support(ctx.tensors[i])
               if slot not in allowed]
        if bad:
            raise WellDefinednessFailure(
                f"member tensor escapes the lower triangle at {bad[0]}")
    return sub


def normal_subgroup_from_ps(ctx: GeneratorContext, ps: PairedSequence) -> Subgroup:
    """Product of the lower elementary groups over the paired sequence, by
    set products on the table, checked against the tensors supported
    inside the teeth."""
    group = sequence_group(ctx.system)
    sub = support_subgroup(ctx, ps.covered())
    prod = Subgroup(group, (0,))
    for p in ps.pairs:
        prod = product_of_subgroups(group, prod, lower_elementary_group(ctx, *p))
    if prod.members != sub.members:
        raise WellDefinednessFailure("tooth product differs from support subgroup")
    complementary(ps)
    return sub


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
    group = sequence_group(ctx.system)
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

    fg = FiniteGroup([[int(x) for x in row] for row in table],
                     name=f"E({k},{t})")
    return ElementaryGroupTable((k, t), positions, tuple(realized), fg)


def recover_original(es: ElementarySystem, ctx: GeneratorContext) -> GroupSystem:
    """For a system-extracted elementary system: check the global product
    agrees with the transported operation, then recover the member set."""
    slots = es.slots()
    if slots != ctx.slots:
        raise RecoveryMismatch("slot tables differ")
    group = sequence_group(ctx.system)
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


def decode_to_tensor(basis: GeneratorBasis, seq: Seq) -> Tuple[int, ...]:
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
    return tuple(choice)


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

    group = sequence_group(ctx.system)
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
    lower_ps = paired_sequence_from_upper_complement(ctx.system.window, ctx.ell, ps_u)
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
    group = sequence_group(ctx.system)
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


def check_chain_fill(ctx: GeneratorContext, chain: NormalChain,
                     base_ps: Optional[PairedSequence] = None) -> None:
    """The fill check `normal_chain` made at every step before its
    argument replaced it: the step's members are exactly the support
    subgroup of the slots filled so far."""
    filled = set(base_ps.covered() if base_ps is not None else ())
    for step in chain.steps:
        filled.add(step.pair)
        target = support_subgroup(ctx, frozenset(filled))
        if set(step.subgroup) != set(target.members):
            raise NotNormalFilling(
                f"step {step.pair}: cosets do not fill the support subgroup")


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
    group = sequence_group(system)
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


# -- extract path, per pair -------------------------------------------------

def cayley(ctx: GeneratorContext, right: bool) -> Tuple[Tuple[int, ...], ...]:
    """graph[a][j] = a * s_j (right) or s_j * a (left), one tuple product
    and one index lookup per pair."""
    system = ctx.system
    seqs, index, mul = system.sequences, system._index, system.mul
    gens = [seqs[j] for j in ctx.generating_set]
    if right:
        return tuple(tuple(index[mul(a, s)] for s in gens) for a in seqs)
    return tuple(tuple(index[mul(s, a)] for s in gens) for a in seqs)


def x_members(system: GroupSystem, t: int) -> frozenset:
    """Members identity strictly before t (clamped outside the window)."""
    t0 = system.window[0]
    cut = max(0, min(t - t0, system.length))
    return frozenset(s for s in system.sequences
                     if all(x == 0 for x in s[:cut]))


def y_members(system: GroupSystem, t: int) -> frozenset:
    """Members identity strictly after t (clamped outside the window)."""
    t0 = system.window[0]
    cut = max(0, min(t - t0 + 1, system.length))
    return frozenset(s for s in system.sequences
                     if all(x == 0 for x in s[cut:]))


def _set_product(system: GroupSystem, a: frozenset, b: frozenset) -> frozenset:
    return frozenset(system.mul(x, y) for x in a for y in b)


def check_granule(system: GroupSystem, slot: Slot, num: frozenset,
                  den: frozenset, reps: Tuple[Seq, ...]) -> None:
    """The time-domain granule X^{t+1} num / X^{t+1} den, as member sets:
    its order is the number of representatives, and no two of them share
    a coset of X^{t+1} den."""
    k, t = slot
    lam_den = _set_product(system, x_members(system, t + 1), den)
    lam_num = _set_product(system, x_members(system, t + 1), num)
    if len(lam_num) // len(lam_den) != len(reps):
        raise NotAGroupSystem("time-domain/finite-extent granule mismatch",
                              (k, t))
    for g1, g2 in itertools.combinations(reps, 2):
        if system.mul(g1, system.inverse(g2)) in lam_den:
            raise NotAGroupSystem("transversal entries share a coset",
                                  ((k, t), g1, g2))


def unroll_rule(name: str, window: Tuple[int, int], rule: tuple, lookup,
                member_cap: int) -> GroupSystem:
    """Linear tap rule over a cyclic group: outputs are sums of delayed
    inputs, inputs free over the window with an identity boundary."""
    gname, taps = rule
    base = lookup(gname)
    if not base.is_abelian:
        raise ParseError("rule systems need a cyclic (abelian) group")
    tap_lists = []
    for expr in taps:
        delays = []
        for term in expr.split("+"):
            m = _TAP_RE.match(term)
            if not m:
                raise ParseError(f"bad tap expression {expr!r}")
            delays.append(int(m.group(1)))
        tap_lists.append(tuple(delays))
    alphabet = base
    for _ in range(len(tap_lists) - 1):
        alphabet, _, _ = direct_product(alphabet, base)
    t0, t1 = window
    length = t1 - t0 + 1
    # the walk lists every input word; the member cap is judged on the
    # members they give, in build_system
    if base.order ** length > 2 ** 16:
        raise BoundExceeded("rule unrolling lists at most 2^16 input words")
    members = []
    for inputs in itertools.product(range(base.order), repeat=length):
        seq = []
        for pos in range(length):
            letter = 0
            for delays in tap_lists:
                val = 0
                for d in delays:
                    val = base.op(val, inputs[pos - d] if pos - d >= 0 else 0)
                letter = letter * base.order + val
            seq.append(letter)
        members.append(tuple(seq))
    return library_build_system(window, [alphabet] * length, members,
                                name=name, member_cap=member_cap)


# -- per-anchor groups, local associativity, controllability -----------------

def induced_slice_group(ctx: GeneratorContext, pos_idx, where: str,
                        name: str) -> Tuple[List[tuple], FiniteGroup, List[int]]:
    """The group induced on the realized slices at tensor positions
    `pos_idx`, certified on the members: the slice partition must be
    invariant under right and left multiplication by every generator.  The
    table is filled column by column, each the class representatives
    translated by one representative on the right."""
    columns = ctx.tensor_columns
    slices = (list(zip(*(columns[i] for i in pos_idx))) if pos_idx
              else [()] * len(ctx.tensors))
    realized = sorted(set(slices), key=lambda s: (any(s), s))
    index = {s: i for i, s in enumerate(realized)}
    n = len(realized)
    cls = list(map(index.__getitem__, slices))
    first = dict(zip(reversed(cls), range(len(cls) - 1, -1, -1)))
    reps = [first[c] for c in range(n)]
    graphs = ((ctx.right_cayley, "right"), (ctx.left_cayley, "left")) if n > 1 else ()
    for graph, side in graphs:
        for gen, moved in zip(ctx.generating_set, graph):
            images = list(map(cls.__getitem__, moved))
            image: Dict[int, int] = {}
            for c, d in zip(cls, images):
                if image.setdefault(c, d) != d:
                    raise WellDefinednessFailure(
                        f"lift choice changes the product at {where}: "
                        f"slice {realized[c]} times generator "
                        f"{ctx.tensors[gen]} on the {side}")
    system = ctx.system
    rep_columns = [[col[r] for r in reps] for col in system.columns]
    table = zip(*(map(cls.__getitem__,
                      system.translate(rep_columns, system.sequences[r]))
                  for r in reps))
    return realized, FiniteGroup(table, name=name), cls


def member_elementary_group(ctx: GeneratorContext, k: int,
                            t: int) -> ElementaryGroupTable:
    """The (k, t) elementary group by `induced_slice_group` on the members,
    whatever k is; the context's caches are neither read nor written."""
    if (k, t) not in ctx.slot_pos:
        raise OutOfWindow(f"anchor ({k},{t}) not in the slot table")
    positions = upper_triangle_positions(ctx.system.window, ctx.ell, k, t)
    realized, fg, _ = induced_slice_group(
        ctx, [ctx.slot_pos[p] for p in positions], f"anchor ({k},{t})",
        f"E({k},{t})")
    return ElementaryGroupTable((k, t), positions, tuple(realized), fg)


def associative_at(op: tuple, z: int, ys: List[int]) -> bool:
    """(x y) z = x (y z) for all x, y in ys."""
    col = [row[z] for row in op]
    yz = list(map(col.__getitem__, ys))
    for x in ys:
        row = op[x]
        if (list(map(col.__getitem__, map(row.__getitem__, ys)))
                != list(map(row.__getitem__, yz))):
            return False
    return True


def is_associative(op: tuple) -> bool:
    """(x y) z = x (y z) for all triples."""
    n = len(op)
    return all(op[op[x][y]][z] == op[x][op[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def _connectable(system: GroupSystem, t: int, l: int) -> bool:
    """Window form of [t, t+l)-connectability, by a product-count identity.

    Every (past of a', future of a'') pair is realizable iff the set of
    (prefix, suffix) pairs over members is exactly the product of the
    prefix set and the suffix set.
    """
    t0 = system.window[0]
    cut_pre = max(0, t - t0)
    cut_suf = t + l - t0
    prefixes = [s[:cut_pre] for s in system.sequences]
    suffixes = [s[cut_suf:] for s in system.sequences]
    return (len(set(zip(prefixes, suffixes)))
            == len(set(prefixes)) * len(set(suffixes)))


def controllability_index(system: GroupSystem) -> int:
    """Least l with the system [t, t+l)-connectable at every window time."""
    t0, t1 = system.window
    for l in range(0, system.length + 1):
        if all(_connectable(system, t, l) for t in range(t0, t1 + 2)):
            return l
    raise NotControllableOnWindow(system.name)


# -- construction ------------------------------------------------------------

def _validate_table(table: tuple) -> None:
    n = len(table)
    if n == 0:
        raise AxiomViolation("closure", "empty table")
    for a, row in enumerate(table):
        if len(row) != n:
            raise AxiomViolation("closure", f"row {a} has length {len(row)}")
        for b, x in enumerate(row):
            if not 0 <= x < n:
                raise AxiomViolation("closure", (a, b, x))
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise AxiomViolation("identity", a)
    for a in range(n):
        if 0 not in table[a]:
            raise AxiomViolation("inverse", a)
        b = table[a].index(0)
        if table[b][a] != 0:
            raise AxiomViolation("inverse", (a, b))
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise AxiomViolation("associativity", (a, b, c))


def homomorphism_pair(domain: FiniteGroup, codomain: FiniteGroup,
                      images: tuple) -> Optional[tuple]:
    """The all-pairs loop of the earlier `Homomorphism(check=True)`: the
    first pair (a, b) with images[a*b] != images[a]*images[b], or None."""
    for a in range(domain.order):
        for b in range(domain.order):
            lhs = images[domain.op(a, b)]
            rhs = codomain.op(images[a], images[b])
            if lhs != rhs:
                return a, b
    return None


def check_homomorphism_condition(es: ElementarySystem) -> tuple:
    """Exhaustively verify both nested projections at every anchor.

    Returns (True, None) or (False, witness) where the witness names the
    source anchor, target anchor, and the offending element pair.
    """
    for anchor in es.slots():
        for target in nested_targets(es.window, es.ell, anchor):
            source = es.table(anchor)
            tgt = es.table(target)
            images = restriction_images(source, tgt)
            if None in images:
                return False, (anchor, target, source.elements[images.index(None)])
            for a in range(source.group.order):
                for b in range(source.group.order):
                    lhs = images[source.group.op(a, b)]
                    rhs = tgt.group.op(images[a], images[b])
                    if lhs != rhs:
                        return False, (anchor, target, (a, b))
    return True, None


def subdirect_product(g1: FiniteGroup, g2: FiniteGroup,
                      p1: Homomorphism, p2: Homomorphism) -> Subgroup:
    """{(a,b) : p1(a) = p2(b)} inside g1 × g2.

    Both projections onto the factors are verified surjective.
    """
    if p1.domain is not g1 or p2.domain is not g2:
        raise DomainError("projection domains do not match the factors")
    if p1.codomain is not p2.codomain:
        raise DomainError("projections target different groups")
    if not p1.is_surjective():
        raise NotSurjective("p1 not onto the common quotient")
    if not p2.is_surjective():
        raise NotSurjective("p2 not onto the common quotient")
    prod, _, _ = direct_product(g1, g2)
    members = tuple(a * g2.order + b
                    for a in range(g1.order) for b in range(g2.order)
                    if p1(a) == p2(b))
    subgroup_members(prod, members)
    sub = Subgroup(prod, members)
    firsts = {m // g2.order for m in members}
    seconds = {m % g2.order for m in members}
    if len(firsts) != g1.order or len(seconds) != g2.order:
        raise NotSurjective("subdirect product does not cover a factor")
    return sub


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup,
                     order_cap: int = DEFAULT_ORDER_CAP) -> Optional[tuple]:
    """Exhaustive bijection search, pruned by element orders: each
    generator assignment closes the mapped set under all products, with a
    dict copy per candidate.

    Desk-scale only: raises BoundExceeded above `order_cap`.
    """
    if g1.order != g2.order:
        return None
    if g1.order > order_cap:
        raise BoundExceeded(f"isomorphism search: order {g1.order} "
                            f"exceeds cap {order_cap}")
    n = g1.order
    orders1 = [g1.element_order(a) for a in range(n)]
    orders2 = [g2.element_order(a) for a in range(n)]
    if sorted(orders1) != sorted(orders2):
        return None
    gens = g1.generators
    candidates = {a: [b for b in range(n) if orders2[b] == orders1[a]] for a in gens}

    def extend(mapping: dict, pending: list) -> Optional[dict]:
        if not pending:
            return mapping
        a = pending[0]
        for b in candidates[a]:
            if b in mapping.values():
                continue
            new = dict(mapping)
            new[a] = b
            # close under products, checking consistency
            ok = True
            frontier = list(new.items())
            while frontier and ok:
                nxt = []
                items = list(new.items())
                for x1, y1 in frontier:
                    for x2, y2 in items:
                        for xa, ya in ((g1.op(x1, x2), g2.op(y1, y2)),
                                       (g1.op(x2, x1), g2.op(y2, y1))):
                            got = new.get(xa)
                            if got is None:
                                if ya in new.values():
                                    ok = False
                                    break
                                new[xa] = ya
                                nxt.append((xa, ya))
                            elif got != ya:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                frontier = nxt
            if ok and len(new) <= n:
                result = extend(new, pending[1:])
                if result is not None:
                    return result
        return None

    mapping = extend({0: 0}, gens)
    if mapping is None or len(mapping) != n:
        return None
    images = tuple(mapping[a] for a in range(n))
    if len(set(images)) != n or homomorphism_witness(g1, g2, images) is not None:
        return None
    return images


def enumerate_extensions(q: FiniteGroup, k: FiniteGroup,
                         max_order: int = DEFAULT_EXTENSION_ORDER_CAP) -> ExtensionSearch:
    """Groups E with a surjection onto q whose kernel is isomorphic to k.

    Elements of every candidate are the pairs (x, a) ∈ k × q in lexicographic
    order, the projection is (x, a) ↦ a, and the kernel is k × {1}.  For
    abelian k the search runs over all actions q → Aut(k) and all normalized
    factor sets, which is complete at these orders; otherwise only trivial
    factor sets (semidirect products) are tried and `complete` is False.
    """
    if q.order * k.order > max_order:
        raise BoundExceeded(
            f"extension order {q.order * k.order} exceeds cap {max_order}")
    nq, nk = q.order, k.order
    auts = automorphisms(k)
    aut_index = {imgs: i for i, imgs in enumerate(auts)}
    aut_op = {}
    for i, f in enumerate(auts):
        for j, g in enumerate(auts):
            aut_op[i, j] = aut_index[tuple(f[g[x]] for x in range(nk))]

    # all homomorphisms q -> Aut(k), found by brute force over small q
    actions = []
    for assignment in itertools.product(range(len(auts)), repeat=nq):
        if assignment[0] != 0:
            continue
        if all(assignment[q.op(a, b)] == aut_op[assignment[a], assignment[b]]
               for a in range(nq) for b in range(nq)):
            actions.append(assignment)

    if k.is_abelian:
        free_pairs = [(a, b) for a in range(1, nq) for b in range(1, nq)]
        if nk ** len(free_pairs) > 200000:
            raise BoundExceeded("factor-set search too large")
        complete = True
    else:
        free_pairs = []
        complete = False

    def build(action, fset) -> list:
        f = {(a, b): 0 for a in range(nq) for b in range(nq)}
        for pair, val in zip(free_pairs, fset):
            f[pair] = val
        # element (x, a) sits at index a*nk + x, so the projection is // nk
        table = [[0] * (nk * nq) for _ in range(nk * nq)]
        for a in range(nq):
            act_a = auts[action[a]]
            for x in range(nk):
                for b in range(nq):
                    for y in range(nk):
                        xy = k.op(k.op(x, act_a[y]), f[a, b])
                        table[a * nk + x][b * nk + y] = q.op(a, b) * nk + xy
        return table

    proj_images = tuple(x // nk for x in range(nk * nq))
    found = []
    reps = []  # kept groups, for isomorphism dedup
    for action in actions:
        for fset in itertools.product(range(nk), repeat=len(free_pairs)):
            table = build(action, fset)
            try:
                _validate_table(table)
                ext = FiniteGroup(table, name=f"{k.name}.{q.name}",
                                  _validated=True)
            except AxiomViolation:
                continue  # factor set fails associativity / inverses
            hom = Homomorphism(ext, q, proj_images)
            ker, _ = as_group(hom.kernel())
            if find_isomorphism(ker, k) is None:
                continue
            if any(find_isomorphism(seen, ext) is not None for seen in reps):
                continue
            reps.append(ext)
            found.append((ext, hom))

    if not found:
        raise NoExtensionFound("no extension validated, not even the direct product")
    dp, _, _ = direct_product(q, k)
    if not any(find_isomorphism(dp, ext) is not None for ext, _ in found):
        raise NoExtensionFound("direct product missing from search results")
    return ExtensionSearch(tuple(found), complete)


def construct_elementary_system(window: Tuple[int, int], ell: int,
                                top: FiniteGroup,
                                strategy: Optional[ConstructionStrategy] = None,
                                name: str = "E", search=None) -> ElementarySystem:
    """The earlier construction, anchor by anchor from the top row down:
    the base table in pair order (the `subdirect_product` above on two
    children, a child's own group on one, the trivial group on none), the
    extension at the anchor's index among those `search(base, k,
    max_order)` lists (the `enumerate_extensions` above by default; the
    base itself under a trivial kernel, the kernel over a trivial base),
    and that table relabeled into triangle order, identity triangle
    first.  Element e of the extension labels the anchor slot e % |k|
    and the child positions with the triangles of base pair e // |k|.
    No cap and no strategy key is checked."""
    strategy = strategy or ConstructionStrategy({})
    search = search or enumerate_extensions
    tables: Dict[Slot, ElementaryGroupTable] = {}
    for anchor in reversed(standard_walk(window, ell, "spec_rev")):
        k, t = anchor
        kernel = top if k == ell else strategy.kernel(k, t)
        right, left = children = construction_children(window, ell, anchor)
        if right is not None and left is not None:
            rt, lt = tables[right], tables[left]
            target = tables.get((k + 2, t - 1))
            q = target.group if target is not None else FiniteGroup([[0]], "Z1")

            def onto(child):
                images = (restriction_images(child, target) if target is not None
                          else (0,) * child.group.order)
                return Homomorphism(child.group, q, images, check=False)

            sub = subdirect_product(rt.group, lt.group, onto(rt), onto(lt))
            base, _ = as_group(sub)
            pair_of = [divmod(m, lt.group.order) for m in sub.members]
        elif right is not None:
            base = tables[right].group
            pair_of = [(i, None) for i in range(base.order)]
        elif left is not None:
            base = tables[left].group
            pair_of = [(None, i) for i in range(base.order)]
        else:
            base, pair_of = FiniteGroup([[0]], "Z1"), [(None, None)]
        nk = kernel.order
        if nk == 1:
            exts = [base]
        elif base.order == 1:
            exts = [kernel]
        else:
            exts = [ext for ext, _ in search(base, kernel,
                                             max(64, nk * base.order)).extensions]
        index = strategy.extension_index(k, t)
        if not 0 <= index < len(exts):
            raise NoExtensionFound(f"extension index {index} out of range "
                                   f"({len(exts)} found at anchor {anchor})")
        ext = exts[index]
        positions = upper_triangle_positions(window, ell, k, t)
        elements = []
        for e in range(ext.order):
            labels = {anchor: e % nk}
            for child, elt in zip(children, pair_of[e // nk]):
                if child is not None and elt is not None:
                    labels.update(zip(tables[child].positions,
                                      tables[child].elements[elt]))
            elements.append(tuple(labels[pos] for pos in positions))
        realized = sorted(set(elements), key=lambda tri: (any(tri), tri))
        rank = [realized.index(tri) for tri in elements]
        reps = [rank.index(c) for c in range(len(realized))]
        table = [[rank[ext.op(reps[c], reps[d])] for d in range(len(reps))]
                 for c in range(len(reps))]
        tables[anchor] = ElementaryGroupTable(
            anchor, positions, tuple(realized),
            FiniteGroup(table, name=f"E({k},{t})", _validated=True))
    sizes = {anchor: (top if anchor[0] == ell else strategy.kernel(*anchor)).order
             for anchor in tables}
    return ElementarySystem(name=name, ell=ell, window=window,
                            label_sizes=sizes, tables=tables)


# -- the generator basis and recovery on sequences ----------------------------

def least_coset_reps(system: GroupSystem, num: frozenset,
                     den: frozenset) -> Tuple[Seq, ...]:
    """The least member of each coset a den, one tuple product per
    denominator member."""
    seen = set()
    reps = []
    for a in sorted(num):
        if a in seen:
            continue
        coset = {system.mul(a, d) for d in den}
        reps.append(min(coset))
        seen.update(coset)
    return tuple(sorted(reps))


def basis_chain(system: GroupSystem, slots: Tuple[Slot, ...],
                transversals: Dict[Slot, Tuple[Seq, ...]]) -> Dict[Seq, Tuple[int, ...]]:
    """The basis chain's last level as a dict of member sequences, one
    tuple product per (member, entry) pair."""
    level = {system.identity: ()}
    for slot in slots:
        step = {system.mul(h, g): choices + (c,)
                for h, choices in level.items()
                for c, g in enumerate(transversals[slot])}
        if len(step) != len(level) * len(transversals[slot]):
            raise NotAGroupSystem("chain step not coset-complete", slot)
        level = step
    if level.keys() != system._index.keys():
        raise NotAGroupSystem("slot transversals do not span the system")
    return level


def granule_sets(system: GroupSystem, k: int, t: int) -> Tuple[frozenset, frozenset]:
    """The numerator A^[t,t+k] and the denominator A^[t,t+k) A^(t,t+k] of
    slot (k, t), support sets by scanning every member."""

    def support(lo: int, hi: int) -> frozenset:
        return x_members(system, lo) & y_members(system, hi)

    return support(t, t + k), _set_product(system, support(t, t + k - 1),
                                           support(t + 1, t + k))


def check_basis_granules(basis: GeneratorBasis) -> None:
    """`check_granule`, its pair loop included, on every transversal of a
    basis, over the member sets of `granule_sets`."""
    for (k, t) in basis.slots:
        check_granule(basis.system, (k, t), *granule_sets(basis.system, k, t),
                      basis.transversal((k, t)))


def extract_basis(system: GroupSystem) -> GeneratorBasis:
    """The generator basis on member sequences: support sets by scanning
    every member, the denominator as the set product of its two factors,
    cosets by tuple products, the granule test with X^{t+1}."""
    ell = library_controllability_index(system)
    slots = window_slots(system.window, ell)
    t0 = system.window[0]
    transversals: Dict[Slot, Tuple[Seq, ...]] = {}
    for (k, t) in slots:
        num, den = granule_sets(system, k, t)
        reps = least_coset_reps(system, num, den)
        for g in reps[1:]:
            if g[t - t0] == 0 or g[t + k - t0] == 0:
                raise NotAGroupSystem("generator span defect", ((k, t), g))
        check_granule(system, (k, t), num, den, reps)
        transversals[(k, t)] = reps
    level = basis_chain(system, slots, transversals)
    return GeneratorBasis(system, ell, slots, transversals,
                          tuple(map(level.__getitem__, system.sequences)))


def alpha_t(ctx: GeneratorContext, tri: Tuple[int, ...], t: int) -> int:
    """Fold a time-t component triangle of generator labels into the letter
    it encodes, multiplying column by column (newest start time first),
    one triangle at a time."""
    positions = upper_triangle_positions(ctx.system.window, ctx.ell, 0, t)
    if len(tri) != len(positions):
        raise ShapeMismatch(f"alpha_t needs an anchor (0,{t}) triangle")
    library_elementary_group(ctx, 0, t).index(tri)  # realized, or UnrealizedTriangle
    system = ctx.system
    g = system.alphabet(t)
    by_pos = dict(zip(positions, tri))
    acc = 0
    for j in range(ctx.ell + 1):
        for k in range(j, ctx.ell + 1):
            slot = (k, t - j)
            label = by_pos.get(slot)
            if label:
                gen = ctx.basis.transversal(slot)[label]
                acc = g.op(acc, system.letter(gen, t))
    return acc


def recover_system_fhgs(ctx: GeneratorContext) -> GroupSystem:
    """The member set rebuilt from alpha_t, one call per element of each
    time-t local group, compared with the original as a set and then
    sorted and validated as a new system."""
    columns = []
    for t in ctx.system.times():
        elem = library_elementary_group(ctx, 0, t)
        letters = [alpha_t(ctx, tri, t) for tri in elem.elements]
        columns.append(map(letters.__getitem__, slice_classes(ctx, 0, t)))
    seqs = list(zip(*columns))
    if set(seqs) != set(ctx.system.sequences) or len(set(seqs)) != len(seqs):
        raise RecoveryMismatch("image of the recovery map differs from the system")
    return GroupSystem(ctx.system.window, ctx.system.alphabets, seqs,
                       name=f"{ctx.system.name}|fhgs", _closed=True)


def direct_product(g1: FiniteGroup, g2: FiniteGroup,
                   name: Optional[str] = None) -> tuple:
    """g1 x g2 with lexicographic pair order, filled entry by entry with two
    table lookups each."""
    n1, n2 = g1.order, g2.order
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[a1 * n2 + b1][a2 * n2 + b2] = \
                        g1.op(a1, a2) * n2 + g2.op(b1, b2)
    g = FiniteGroup(table, name=name or f"{g1.name}x{g2.name}", _validated=True)
    proj1 = Homomorphism(g, g1, tuple(x // n2 for x in range(n1 * n2)), check=False)
    proj2 = Homomorphism(g, g2, tuple(x % n2 for x in range(n1 * n2)), check=False)
    return g, proj1, proj2


# -- second copies of the structural checks --------------------------------------

def automorphisms(k: FiniteGroup, cap: int = AUTOMORPHISM_CANDIDATE_CAP) -> List[tuple]:
    """All automorphisms of a small group, as image tuples: a backtracking
    search of its own over order-preserving images, each result then
    verified on all pairs."""
    n = k.order
    auts = []
    orders = [k.element_order(a) for a in range(n)]
    candidates = [[b for b in range(n) if orders[b] == orders[a]] for a in range(n)]
    total = 1
    for c in candidates[1:]:
        total *= max(len(c), 1)
        if total > cap:
            raise BoundExceeded(
                f"extension search: automorphism search too large: at least "
                f"{total} order-preserving image tuples for kernel "
                f"{k.name} of order {n} exceed cap {cap}")

    def backtrack(images: list) -> None:
        a = len(images)
        if a == n:
            if len(set(images)) == n:
                auts.append(tuple(images))
            return
        for b in candidates[a]:
            if b in images:
                continue
            ok = True
            for x in range(a):
                xa = k.op(x, a)
                if xa < a and images[xa] != k.op(images[x], b):
                    ok = False
                    break
                ax = k.op(a, x)
                if ax < a and images[ax] != k.op(b, images[x]):
                    ok = False
                    break
            if ok:
                images.append(b)
                backtrack(images)
                images.pop()

    backtrack([0])
    verified = []
    for imgs in auts:
        if all(imgs[k.op(a, b)] == k.op(imgs[a], imgs[b])
               for a in range(n) for b in range(n)):
            verified.append(imgs)
    identity = tuple(range(n))
    verified.sort(key=lambda imgs: (imgs != identity, imgs))
    return verified


def carries(es1: ElementarySystem, es2: ElementarySystem,
            phi: Dict[Slot, tuple], anchors=None) -> bool:
    """Whether the per-slot label maps `phi` carry each of `anchors` (all
    by default) of es1 onto es2: every triangle to a triangle, injectively,
    and as a homomorphism checked on all pairs of elements."""
    for anchor in es1.slots() if anchors is None else anchors:
        t1, t2 = es1.tables[anchor], es2.tables[anchor]
        mapped = {}
        idx2 = {tri: i for i, tri in enumerate(t2.elements)}
        for i, tri in enumerate(t1.elements):
            image = tuple(phi[pos][lab]
                          for pos, lab in zip(t1.positions, tri))
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


def structurally_equal(es1: ElementarySystem,
                       es2: ElementarySystem) -> Optional[Dict[Slot, tuple]]:
    """Per-slot label bijections carrying es1 onto es2, each fixing label
    0, each anchor's map checked on all pairs of its elements; None if
    there are none."""
    if es1.ell != es2.ell or es1.window != es2.window:
        return None
    slots = es1.slots()
    if any(es1.label_sizes[s] != es2.label_sizes[s] for s in slots):
        return None
    anchors = sorted(slots, key=lambda p: (-p[0], -p[1]))

    def backtrack(i: int, phi: Dict[Slot, tuple]) -> Optional[Dict[Slot, tuple]]:
        if i == len(anchors):
            return dict(phi)
        anchor = anchors[i]
        n = es1.label_sizes[anchor]
        for perm in itertools.permutations(range(1, n)):
            phi[anchor] = (0,) + perm
            if carries(es1, es2, phi, (anchor,)):
                result = backtrack(i + 1, phi)
                if result is not None:
                    return result
        phi.pop(anchor, None)
        return None

    return backtrack(0, {})


def light_associative(op: tuple, gens) -> bool:
    """Light's test in its (x y) z = x (y z) form, for all x, y and for
    z = 0 and every z in `gens`, per z one column read along each row."""
    for z in (0, *gens):
        col = [row[z] for row in op]
        for row in op:
            if list(map(col.__getitem__, row)) != list(map(row.__getitem__, col)):
                return False
    return True


def check_axioms(table: tuple) -> tuple:
    """Identity at 0, inverses and Light's test (x s) y = x (s y) over the
    greedy generators s, written out in the table check itself; raises
    AxiomViolation with the first failing triple (x, s, y)."""
    n = len(table)
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise AxiomViolation("identity", a)
    for a in range(n):
        if 0 not in table[a]:
            raise AxiomViolation("inverse", a)
        b = table[a].index(0)
        if table[b][a] != 0:
            raise AxiomViolation("inverse", (a, b))
    gens = FiniteGroup(table, _validated=True).generators
    for s in gens:
        for x in range(n):
            for y in range(n):
                if table[table[x][s]][y] != table[x][table[s][y]]:
                    raise AxiomViolation("associativity", (x, s, y))
    return gens


def inverses(g: FiniteGroup) -> tuple:
    """Per element, the first y with x y = 1, by scanning every pair."""
    inv = [0] * g.order
    for x in range(g.order):
        for y in range(g.order):
            if g.op_table[x][y] == 0:
                inv[x] = y
                break
    return tuple(inv)


def subgroup_members(parent: FiniteGroup, members) -> tuple:
    """The sorted members of a subgroup of `parent`, checked on all pairs:
    the identity, each inverse and each product; NotASubgroup otherwise."""
    mem = tuple(sorted(set(int(m) for m in members)))
    memset = frozenset(mem)
    if 0 not in memset:
        raise NotASubgroup("identity missing")
    inv = inverses(parent)
    for a in mem:
        if inv[a] not in memset:
            raise NotASubgroup(f"inverse of {a} missing")
        for b in mem:
            if parent.op(a, b) not in memset:
                raise NotASubgroup(f"product {a}*{b} escapes")
    return mem


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """Exhaustive conjugation test: a·x·a^{-1} in h for every a in g and
    every x in h, |G|·|H| conjugates."""
    if h.parent is not g:
        raise NotASubgroup("subgroup of a different parent")
    hset = h.member_set()
    for a in range(g.order):
        for x in h.members:
            if g.op(g.op(a, x), g.inv(a)) not in hset:
                return False
    return True


# -- the slot geometry, written where it was used ---------------------------------

def upper_triangle_positions(window: Tuple[int, int], ell: int,
                             k: int, t: int) -> Tuple[Slot, ...]:
    """In-window positions of the upper triangle with lower vertex (k, t),
    top row first, newer times first inside each row."""
    t0, t1 = window
    out = []
    for kk in range(min(ell, t1 - t0), max(k, 0) - 1, -1):
        for s in range(t, t - (kk - k) - 1, -1):
            if t0 <= s and s + kk <= t1:
                out.append((kk, s))
    return tuple(out)


def lower_triangle_positions(window: Tuple[int, int], ell: int,
                             k: int, t: int) -> Tuple[Slot, ...]:
    """In-window positions of the lower triangle with upper vertex (k, t)."""
    t0, t1 = window
    out = []
    for kk in range(k, -1, -1):
        for s in range(t, t + (k - kk) + 1):
            if t0 <= s and s + kk <= t1:
                out.append((kk, s))
    return tuple(out)


def lower_contains(outer: Slot, inner: Slot) -> bool:
    """Whether the lower triangle at `outer` contains the one at `inner`."""
    (ko, to), (ki, ti) = outer, inner
    return ki <= ko and to <= ti <= to + ko - ki


def purge(window: Tuple[int, int], ell: int, pairs) -> PairedSequence:
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


def purge_upper(window: Tuple[int, int], ell: int, pairs) -> Tuple[Slot, ...]:
    """The upper anchors of `pairs` whose clipped triangle lies strictly
    inside no other one's, the least of equal ones kept."""
    upper_sets = {p: frozenset(upper_triangle_positions(window, ell, *p))
                  for p in pairs}
    kept = []
    for p in pairs:
        dominated = False
        for q in pairs:
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
    return tuple(kept)


def covered(teeth, triangle) -> frozenset:
    out = set()
    for (k, t) in teeth.pairs:
        out.update(triangle(teeth.window, teeth.ell, k, t))
    return frozenset(out)


def complementary(ps: PairedSequence) -> UpperPairedSequence:
    """The purged upper-triangle sequence covering everything the lower
    teeth miss; the two unions partition the slot table."""
    slots = window_slots(ps.window, ps.ell)
    lower = covered(ps, lower_triangle_positions)
    uncovered = [p for p in slots if p not in lower]
    for p in uncovered:
        if set(upper_triangle_positions(ps.window, ps.ell, *p)) & lower:
            raise WellDefinednessFailure(
                f"upper triangle at {p} touches the lower teeth")
    result = UpperPairedSequence(ps.window, ps.ell,
                                 purge_upper(ps.window, ps.ell, uncovered))
    union = covered(result, upper_triangle_positions)
    if union | lower != set(slots) or union & lower:
        raise WellDefinednessFailure("sawtooth pieces do not partition the slots")
    return result


def paired_sequence_from_upper_complement(
        window: Tuple[int, int], ell: int,
        ps_u: UpperPairedSequence) -> PairedSequence:
    """The purged lower sequence covering everything the upper teeth miss."""
    slots = window_slots(window, ell)
    upper_union = covered(ps_u, upper_triangle_positions)
    uncovered = [p for p in slots if p not in upper_union]
    ps = purge(window, ell, uncovered)
    if covered(ps, lower_triangle_positions) != set(slots) - upper_union:
        raise WellDefinednessFailure("lower teeth spill into the upper union")
    return ps


def standard_walk(window: Tuple[int, int], ell: int, kind: str) -> Tuple[Slot, ...]:
    """The four canonical walks, one loop each."""
    t0, t1 = window
    pairs: List[Slot] = []
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
    return tuple(pairs)


def encode_spectral_domain(basis: GeneratorBasis, r) -> Seq:
    """Compose the selected generators span by span: all length-1
    generators (latest start first), then all length-2 generators, and so
    on."""
    system = basis.system
    t0, t1 = system.window
    labels = dict(zip(basis.slots, TensorR(basis, tuple(r)).choice))
    acc = system.identity
    for k in range(0, basis.ell + 1):
        for t in range(t1, t0 - 1, -1):
            if (k, t) in labels:
                acc = system.mul(acc, basis.transversals[(k, t)][labels[(k, t)]])
    if acc not in system:
        raise NotAGroupSystem("encoder left the member set", acc)
    return acc


def alphabet_matrix(basis: GeneratorBasis, r, t: int) -> Dict[Tuple[int, int], int]:
    """Time-t components of all generators active at t, keyed (j, k),
    column by column."""
    labels = dict(zip(basis.slots, TensorR(basis, tuple(r)).choice))
    system = basis.system
    t0, t1 = system.window
    if not t0 <= t <= t1:
        raise OutOfWindow(f"time {t} outside window")
    out = {}
    for j in range(basis.ell + 1):
        for k in range(j, basis.ell + 1):
            slot = (k, t - j)
            if slot in labels:
                out[(j, k)] = system.letter(basis.transversals[slot][labels[slot]], t)
            else:
                out[(j, k)] = 0
    return out


def fold_time_domain(basis: GeneratorBasis, matrix, t: int) -> int:
    """Column-major product of the alphabet matrix."""
    g = basis.system.alphabet(t)
    acc = 0
    for j in range(basis.ell + 1):
        for k in range(j, basis.ell + 1):
            acc = g.op(acc, matrix[(j, k)])
    return acc


def fold_spectral_domain(basis: GeneratorBasis, matrix, t: int) -> int:
    """Row-major product of the alphabet matrix."""
    g = basis.system.alphabet(t)
    acc = 0
    for k in range(basis.ell + 1):
        for j in range(k + 1):
            acc = g.op(acc, matrix[(j, k)])
    return acc


def nested_anchors(window: Tuple[int, int], ell: int, k: int,
                   t: int) -> Tuple[Slot, ...]:
    """All in-window anchors whose triangles nest inside the (k, t) one."""
    slots = set(window_slots(window, ell))
    out = []
    for kk in range(k, ell + 1):
        for s in range(t - (kk - k), t + 1):
            if (kk, s) in slots:
                out.append((kk, s))
    return tuple(out)


def is_nested(src: Slot, dst: Slot) -> bool:
    """`triangle_projection`'s test: the triangle of `dst` lies in that of
    `src`."""
    (ksrc, tsrc), (kdst, tdst) = src, dst
    return ksrc <= kdst and tsrc - (kdst - ksrc) <= tdst <= tsrc


def nested_targets(window: Tuple[int, int], ell: int, anchor: Slot) -> Tuple[Slot, ...]:
    """The next two largest anchors nested in `anchor`, clipped to the window."""
    k, t = anchor
    t0, t1 = window
    out = []
    if k + 1 <= ell and t + k + 1 <= t1:
        out.append((k + 1, t))
    if k + 1 <= ell and t - 1 >= t0:
        out.append((k + 1, t - 1))
    return tuple(out)


def construction_children(window: Tuple[int, int], ell: int,
                          anchor: Slot) -> Tuple[Optional[Slot], Optional[Slot]]:
    """The construction's (right, left) child lookup in the slot set."""
    k, t = anchor
    slots = set(window_slots(window, ell))
    return ((k + 1, t) if (k + 1, t) in slots else None,
            (k + 1, t - 1) if (k + 1, t - 1) in slots else None)


# -- the label tensor wrapper ---------------------------------------------------

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


# -- the text readers, each format on its own ------------------------------------

def _strip_lines(text: str) -> List[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r} in {line!r}") from None


def _int_list(tokens: List[str], line: str) -> List[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        for token in tokens:
            _int(token, line)
        raise


def _ints(parts: List[str], count: int, line: str) -> List[int]:
    if len(parts) < count + 1:
        raise ParseError(f"{parts[0]} line needs {count} integers: {line!r}")
    return [_int(x, line) for x in parts[1:count + 1]]


def parse_group(text: str) -> FiniteGroup:
    return _parse_group_lines(_strip_lines(text))


def _parse_group_lines(lines: List[str]) -> FiniteGroup:
    if not lines or not lines[0].startswith("group "):
        raise ParseError("expected 'group <name> <order>' header")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ParseError(f"malformed group header {lines[0]!r}")
    name, order_s = parts[1], parts[2]
    try:
        order = int(order_s)
    except ValueError:
        raise ParseError(f"bad order {order_s!r}") from None
    rows = []
    for line in lines[1:1 + order]:
        try:
            rows.append(list(map(int, line.split())))
        except ValueError:
            raise ParseError(f"bad table row {line!r}") from None
        if len(rows[-1]) != order:
            raise ParseError(f"table row {len(rows) - 1} of group {name} has "
                             f"{len(rows[-1])} entries, expected {order}: "
                             f"{line!r}")
    if len(rows) != order:
        raise ParseError(f"expected {order} table rows, got {len(rows)}")
    return make_group(rows, name=name)


def parse_system(text: str, search_dir=None,
                 member_cap: int = DEFAULT_MEMBER_CAP) -> GroupSystem:
    lines = _strip_lines(text)
    name = "A"
    window: Optional[Tuple[int, int]] = None
    local_groups: Dict[str, FiniteGroup] = {}
    alphabet_spec: Dict = {}
    seqs: List[tuple] = []
    rule: Optional[tuple] = None
    seen = set()

    i = 0
    while i < len(lines):
        parts = lines[i].split()
        head = parts[0]
        if head in ("system", "window", "rule"):
            if head in seen:
                raise ParseError(f"a second {head} line")
            seen.add(head)
        if head == "system":
            if len(parts) != 2:
                raise ParseError("system line needs a name")
            name = parts[1]
        elif head == "window":
            if len(parts) != 3:
                raise ParseError("window line needs two integers")
            try:
                window = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise ParseError("window bounds must be integers") from None
        elif head == "group":
            if len(parts) != 3:
                raise ParseError("group line needs a name and order")
            order = _int(parts[2], lines[i])
            if parts[1] in local_groups:
                raise ParseError(f"group {parts[1]} defined twice")
            local_groups[parts[1]] = _parse_group_lines(lines[i:i + 1 + order])
            i += order
        elif head == "alphabet":
            if len(parts) != 3:
                raise ParseError("alphabet line needs a time and group name")
            key = parts[1] if parts[1] == "all" else _int(parts[1], lines[i])
            if key in alphabet_spec:
                raise ParseError(f"alphabet {key} given twice")
            alphabet_spec[key] = parts[2]
        elif head == "seq":
            try:
                seqs.append(tuple(int(x) for x in parts[1:]))
            except ValueError:
                raise ParseError(f"bad seq line {lines[i]!r}") from None
        elif head == "rule":
            if len(parts) < 4 or parts[1] != "conv":
                raise ParseError("rule line must be 'rule conv <group> <taps...>'")
            rule = (parts[2], tuple(parts[3:]))
        else:
            raise ParseError(f"unknown stanza {head!r}")
        i += 1

    if window is None:
        raise ParseError("missing window line")
    for t in alphabet_spec:
        if t != "all" and not window[0] <= t <= window[1]:
            raise ParseError(f"alphabet time {t} outside the window "
                             f"[{window[0]},{window[1]}]")
    if rule is not None and seqs:
        raise ParseError("a system is either explicit or rule-built, not both")

    def lookup(gname: str) -> FiniteGroup:
        if gname in local_groups:
            return local_groups[gname]
        return fmt.resolve_group(gname, search_dir)

    if rule is not None:
        return fmt._unroll_rule(name, window, rule, lookup, member_cap)

    if not seqs:
        raise ParseError("no members given")
    length = window[1] - window[0] + 1
    for s in seqs:
        if len(s) != length:
            raise ParseError(f"seq {s} does not span the window")
    resolved: Dict[str, FiniteGroup] = {}
    alphabets = []
    for t in range(window[0], window[1] + 1):
        gname = alphabet_spec.get(t, alphabet_spec.get("all"))
        if gname is None:
            raise ParseError(f"no alphabet for time {t}")
        if gname not in resolved:
            resolved[gname] = lookup(gname)
        alphabets.append(resolved[gname])
    return library_build_system(window, alphabets, seqs, name=name,
                                member_cap=member_cap)


def parse_elementary_system(text: str) -> ElementarySystem:
    lines = _strip_lines(text)
    if not lines or not lines[0].startswith("esys "):
        raise ParseError("expected 'esys <name> depth <d> window <t0> <t1>'")
    head = lines[0].split()
    if len(head) != 7 or head[2] != "depth" or head[4] != "window":
        raise ParseError(f"malformed esys header {lines[0]!r}")
    name = head[1]
    try:
        depth = int(head[3])
        window = (int(head[5]), int(head[6]))
    except ValueError:
        raise ParseError("bad esys header numbers") from None
    ell = depth - 1
    if window[1] - window[0] + 1 > len(lines):
        raise ParseError(f"esys window {window[0]} {window[1]} has more times "
                         f"than the file has lines")

    sizes: Dict[Tuple[int, int], int] = {}
    tables: Dict[Tuple[int, int], ElementaryGroupTable] = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] not in ("labels", "egrp"):
            raise ParseError(f"unknown esys stanza {parts[0]!r}")
        k, t, n = _ints(parts, 3, lines[i])
        anchor = (k, t)
        if not (0 <= k <= ell and window[0] <= t and t + k <= window[1]):
            raise ParseError(f"{parts[0]} anchor ({k},{t}) is not in the slot "
                             f"table of depth {depth} on [{window[0]},{window[1]}]")
        if anchor in (sizes if parts[0] == "labels" else tables):
            raise ParseError(f"{parts[0]} anchor ({k},{t}) given twice")
        if parts[0] == "labels":
            sizes[anchor] = n
            i += 1
            continue
        if n < 0:
            raise ParseError(f"egrp block at {anchor} has a negative size")
        if i + 1 + n >= len(lines):
            raise ParseError(f"egrp block at {anchor} is truncated")
        positions = library_upper_triangle_positions(window, ell, k, t)
        tris = []
        for line in lines[i + 1:i + 1 + n]:
            tparts = line.split()
            if tparts[0] != "tri":
                raise ParseError(f"expected tri line, got {line!r}")
            labels = tuple(_int_list(tparts[1:], line))
            if len(labels) != len(positions):
                raise ParseError(f"triangle at {anchor} has wrong arity")
            tris.append(labels)
        group_header = lines[i + 1 + n].split()
        if group_header[0] != "group" or len(group_header) != 3:
            raise ParseError("expected group block after triangles")
        order = _int(group_header[2], lines[i + 1 + n])
        group = _parse_group_lines(lines[i + 1 + n:i + 2 + n + order])
        if group.order != n:
            raise ParseError(f"table order differs from element count at {anchor}")
        tables[anchor] = ElementaryGroupTable(anchor, positions, tuple(tris), group)
        i += 2 + n + order

    es = ElementarySystem(name=name, ell=ell, window=window,
                          label_sizes=sizes, tables=tables)
    es.verify()
    return es


def read_int_lines(path: str, what: str, form: str) -> List[tuple]:
    rows = []
    for raw in fmt.read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != len(form.split()):
            raise ParseError(f"{what} lines are '{form}', got {raw!r}")
        try:
            rows.append(tuple(int(x) for x in parts))
        except ValueError:
            raise ParseError(f"bad {what} line {raw!r}") from None
    return rows


# -- quotients, each built where it was used ---------------------------------------

def make_group(op_table, name: str = "G") -> FiniteGroup:
    table = tuple(tuple(map(int, row)) for row in op_table)
    n = len(table)
    for a, row in enumerate(table):
        _check_row(a, row, n)
    labels = tuple(range(n))
    ident = next((e for e in range(n) if table[e] == labels
                  and tuple(row[e] for row in table) == labels), None)
    if ident is None:
        raise AxiomViolation("identity", None)
    if ident != 0:
        # swap labels 0 <-> ident
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0
        table = tuple(tuple(perm.index(table[perm[a]][perm[b]]) for b in range(n))
                      for a in range(n))
    return FiniteGroup(table, name=name)


def as_group(sub: Subgroup, name: str = "H") -> tuple:
    embed = list(sub.members)
    pos = {m: i for i, m in enumerate(embed)}
    table = [[pos[sub.parent.op(a, b)] for b in embed] for a in embed]
    return FiniteGroup(table, name=name, _validated=True), embed


def quotient(g: FiniteGroup, h: Subgroup, name: Optional[str] = None) -> QuotientPresentation:
    if h.parent is not g:
        raise NotASubgroup("subgroup of a different parent")
    if not is_normal(g, h):
        raise NotNormal(f"{h.members} is not normal")
    hset = h.member_set()
    seen = {}
    cosets = []
    for a in range(g.order):
        if a in seen:
            continue
        coset = tuple(sorted(g.op(a, x) for x in hset))
        cosets.append(coset)
        for y in coset:
            seen[y] = True
    cosets.sort(key=lambda c: c[0])
    index_of = {}
    for i, coset in enumerate(cosets):
        for y in coset:
            index_of[y] = i
    reps = [c[0] for c in cosets]
    table = [[index_of[g.op(reps[i], reps[j])] for j in range(len(cosets))]
             for i in range(len(cosets))]
    q = FiniteGroup(table, name=name or f"{g.name}/H", _validated=True)
    proj = Homomorphism(g, q, tuple(index_of[a] for a in range(g.order)))
    assert q.order * h.order == g.order
    return QuotientPresentation(g, h, tuple(cosets), q, proj)


def quotient_of_member_sets(system: GroupSystem, num, den) -> QuotientPresentation:
    num_group, embed = as_group(Subgroup(sequence_group(system), tuple(num)),
                                name=f"{system.name}|num")
    pos = {m: i for i, m in enumerate(embed)}
    return quotient(num_group, Subgroup(num_group, tuple(map(pos.__getitem__, den))))


def zassenhaus_hom(g: FiniteGroup, u: Subgroup, ustar: Subgroup,
                   v: Subgroup, vstar: Subgroup) -> Homomorphism:
    for sub, sup, tag in ((u, ustar, "U ⊲ U*"), (v, vstar, "V ⊲ V*")):
        if not sub.member_set() <= sup.member_set():
            raise PreconditionViolated(f"{tag}: not contained")
        sup_group, embed = as_group(sup)
        pos = {m: i for i, m in enumerate(embed)}
        if not is_normal(sup_group, Subgroup(sup_group, tuple(pos[m] for m in sub.members))):
            raise PreconditionViolated(f"{tag}: not normal")

    inter_star = intersect_subgroups(g, ustar, vstar)
    d = product_of_subgroups(g, intersect_subgroups(g, ustar, v),
                             intersect_subgroups(g, u, vstar))
    numerator = product_of_subgroups(g, u, inter_star)
    denominator = product_of_subgroups(g, u, intersect_subgroups(g, ustar, v))

    # codomain presentation (U*∩V*)/D
    star_group, star_embed = as_group(inter_star)
    star_pos = {m: i for i, m in enumerate(star_embed)}
    qp_cod = quotient(star_group, Subgroup(star_group, tuple(star_pos[m] for m in d.members)))

    # domain presentation U(U*∩V*)/U(U*∩V)
    num_group, num_embed = as_group(numerator)
    num_pos = {m: i for i, m in enumerate(num_embed)}
    qp_dom = quotient(num_group,
                      Subgroup(num_group, tuple(num_pos[m] for m in denominator.members)))

    # f on elements: x = u·u* maps to coset D·u*
    uset = u.member_set()
    f_values = []
    for x in numerator.members:
        img = None
        for ustar_elt in inter_star.members:
            if g.op(x, g.inv(ustar_elt)) in uset:
                img = qp_cod.coset_index(star_pos[ustar_elt])
                break
        if img is None:
            raise PreconditionViolated("element of U(U*∩V*) without u·u* factorization")
        f_values.append(img)
    # well-definedness + homomorphism property on the subgroup
    raw = Homomorphism(num_group, qp_cod.quotient,
                       tuple(f_values[num_pos[m]] for m in numerator.members))
    kernel_members = tuple(sorted(num_embed[a] for a in raw.kernel().members))
    if kernel_members != denominator.members:
        raise PreconditionViolated("Zassenhaus kernel mismatch")

    induced = Homomorphism(
        qp_dom.quotient, qp_cod.quotient,
        tuple(raw(qp_dom.cosets[i][0]) for i in range(qp_dom.quotient.order)))
    if not (induced.is_injective() and induced.is_surjective()):
        raise PreconditionViolated("Zassenhaus map not an isomorphism")
    return induced


# -- the generating set before it was made irredundant -----------------------

def full_generating_set(ctx: GeneratorContext) -> Tuple[int, ...]:
    """S as member indices: the identity, then every non-identity
    transversal entry in slot order."""
    index = ctx.system.index_of
    gens = [index(ctx.system.identity)]
    for slot in ctx.slots:
        gens.extend(index(g) for g in ctx.basis.transversal(slot)[1:])
    return tuple(dict.fromkeys(gens))


def with_full_generating_set(ctx: GeneratorContext) -> GeneratorContext:
    """A context over the same system, basis and tensors, with empty
    caches, whose S is `full_generating_set` and whose right and left
    Cayley graphs are one column pass per entry, the left one always
    built."""
    full = GeneratorContext(ctx.system, ctx.basis)
    full.tensors, full.tensor_index = ctx.tensors, ctx.tensor_index
    system = ctx.system
    full.generating_set = gens = full_generating_set(ctx)
    full.right_cayley, full.left_cayley = (
        tuple(system.translate(system.columns, system.sequences[j], right)
              for j in gens) for right in (True, False))
    return full


# -- passes the extract path no longer repeats ------------------------------

def validate_system(system: GroupSystem) -> None:
    """A system's letter range, inverses, closure (all pairs) and realized
    letters, member by member, with the witnesses `GroupSystem` names."""
    for s in system.sequences:
        for x, g in zip(s, system.alphabets):
            if not 0 <= x < g.order:
                raise NotAGroupSystem("letter out of range", (s, x))
        inverse = tuple(next(y for y in g.elements() if g.op(x, y) == 0)
                        for x, g in zip(s, system.alphabets))
        if inverse not in system:
            raise NotAGroupSystem("inverse missing", s)
    verify_closure(system)
    for t, g in zip(system.times(), system.alphabets):
        seen = {system.letter(s, t) for s in system.sequences}
        for x in g.elements():
            if x not in seen:
                raise NotAGroupSystem("alphabet letter unrealized", (t, x))


def deviating_pairs(es: ElementarySystem, ctx: GeneratorContext) -> List[tuple]:
    """The recovery's agreement pass at every time, whatever the table:
    the (member, generator position) pairs (a, j) with
    op_t[cls_t[a]][cls_t[s_j]] != cls_t[a s_j] at some t, ascending.  The
    slice classes are looked up in each (0, t) table, so every slice must
    be one of its elements."""
    tensors, gens = ctx.tensors, ctx.generating_set
    index = ctx.system._index
    seqs = ctx.system.sequences
    out = set()
    for anchor, take, get, idx, _, op in es._product_plan[1]:
        cls = [idx[get(lab)] for lab in tensors]
        for a in range(len(tensors)):
            for j, s in enumerate(gens):
                if op[cls[a]][cls[s]] != cls[index[ctx.system.mul(seqs[a], seqs[s])]]:
                    out.add((a, j))
    return sorted(out)


def dump_elementary_system(es: ElementarySystem) -> str:
    """Header, label counts, then every anchor's block with its triangles
    and table rows formatted anew."""
    lines = [f"esys {es.name} depth {es.depth} window "
             f"{es.window[0]} {es.window[1]}"]
    for slot in es.slots():
        lines.append(f"labels {slot[0]} {slot[1]} {es.label_sizes[slot]}")
    for anchor in es.slots():
        table = es.table(anchor)
        k, t = table.anchor
        lines.append(f"egrp {k} {t} {len(table.elements)}")
        for tri in table.elements:
            lines.append("tri " + " ".join(map(str, tri)))
        g = table.group
        name = re.sub(r"\s+", "_", g.name) or "G"
        lines.append(f"group {name} {g.order}")
        for row in g.op_table:
            lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"
