"""Differential tests: the generator-pair certificates against the all-pairs
oracles in `oracles.py`, on every fixture, on generated systems, and on
injected defects.  Both sides must build the same tables and member sets,
and accept or reject the same inputs with the same error type."""

import ast
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
import groupsystems.elementary as elementary_module
import groupsystems.io as io_module
import groupsystems.systems as systems_module
from groupsystems.chains import (
    complementary,
    decompose_along_chain,
    enumerate_normal_fillings,
    normal_chain,
    normal_subgroup_from_ps,
    oplus_group,
    purge,
    reconstruct_from_chain,
    standard_filling,
)
from groupsystems.elementary import (
    ConstructionStrategy,
    ElementarySystem,
    construct_elementary_system,
    extract_elementary_system,
    global_group_system,
    recover_original,
    roundtrip_label_maps,
)
from groupsystems.errors import (
    AxiomViolation,
    BoundExceeded,
    NotAGroupSystem,
    NotAMember,
    NotASubgroup,
    NotNormal,
    NotNormalFilling,
    OutOfWindow,
    OverlapInconsistency,
    RecoveryMismatch,
    ToolkitError,
    WellDefinednessFailure,
)
from groupsystems.generators import (
    ElementaryGroupTable,
    GeneratorContext,
    _alpha_column,
    _nested_slice_group,
    alpha_t,
    build_context,
    compose_columns,
    elementary_group,
    lower_elementary_group,
    recover_system_fhgs,
    star,
    support_subgroup,
    triangle,
    upper_triangle_positions,
)
from groupsystems.groups import (
    FiniteGroup,
    Subgroup,
    associativity_witness,
    close_greedily,
    cyclic_group,
    direct_product,
    is_normal,
    make_group,
    quotient,
    subgroup_closure,
    symmetric_group_3,
    zassenhaus_hom,
)
from groupsystems.io import (
    _unroll_rule,
    dump_elementary_system,
    parse_elementary_system,
    parse_group,
    parse_system,
    resolve_group,
)
from groupsystems.systems import (
    GeneratorBasis,
    GroupSystem,
    _basis_chain,
    _check_granule,
    _least_coset_reps,
    _normal_product,
    all_tensors,
    alphabet_matrix,
    build_system,
    controllability_index,
    decode_to_tensor,
    encode_spectral_domain,
    encode_time_domain,
    extract_basis,
    spectral_granule,
    tensor_from_items,
    time_granule,
    window_slots,
)

FIXTURES = ["r2", "c2", "s3_rep", "trivial_sys", "parity3"]


def outcome(fn, *args, **kwargs):
    """('ok', value) or ('raise', error type)."""
    try:
        return "ok", fn(*args, **kwargs)
    except ToolkitError as exc:
        return "raise", type(exc)


def table_key(table: ElementaryGroupTable) -> tuple:
    return table.positions, table.elements, table.group.op_table


def system_key(system: GroupSystem) -> tuple:
    return (system.sequences, tuple(g.op_table for g in system.alphabets))


def assert_same(new, old, key=lambda v: v):
    assert new[0] == old[0]
    if new[0] == "ok":
        assert key(new[1]) == key(old[1])
    else:
        assert new[1] is old[1]


def failure(fn, *args):
    """('ok', value) or ('raise', error type, message); the message carries
    the witness."""
    try:
        return "ok", fn(*args)
    except ToolkitError as exc:
        return "raise", type(exc), str(exc)


def same_failure(new, old, key=lambda v: v):
    assert new[0] == old[0]
    if new[0] == "ok":
        assert key(new[1]) == key(old[1])
    else:
        assert new[1:] == old[1:]


def assert_elementary_groups_agree(ctx: GeneratorContext) -> None:
    """Every anchor, in slot order on one context: table, verdict and
    message as certified on the members anchor by anchor, and table and
    error type as the all-pairs oracle gives them."""
    for anchor in ctx.slots:
        new = failure(elementary_group, ctx, *anchor)
        same_failure(new, failure(oracles.member_elementary_group, ctx, *anchor),
                     table_key)
        assert_same(new[:2], outcome(oracles.elementary_group, ctx, *anchor),
                    table_key)


def assert_certificates_agree(system: GroupSystem) -> None:
    """Closure, every elementary group and the recovery on one system."""
    assert_same(outcome(system.verify_closure),
                outcome(oracles.verify_closure, system))
    ctx = build_context(system)
    assert_elementary_groups_agree(ctx)
    es = extract_elementary_system(ctx)
    assert_same(outcome(recover_original, es, ctx),
                outcome(oracles.recover_original, es, ctx), system_key)


@pytest.mark.parametrize("name", FIXTURES + ["s3_square"])
def test_certificates_match_oracles_on_fixtures(request, name):
    assert_certificates_agree(request.getfixturevalue(name))


@pytest.mark.parametrize("name", FIXTURES)
def test_build_system_matches_oracle_on_fixtures(request, name):
    system = request.getfixturevalue(name)
    seed_sets = [system.sequences, system.sequences[1:3], system.sequences[::-1]]
    for seeds in seed_sets:
        assert_same(outcome(build_system, system.window, system.alphabets, seeds),
                    outcome(oracles.build_system, system.window, system.alphabets,
                            seeds), system_key)


GROUPS = {"Z2": cyclic_group(2), "Z3": cyclic_group(3), "S3": symmetric_group_3()}


@st.composite
def seeded_systems(draw):
    """Seeds over Z2, Z3 or S3 on windows of length 1-4 (S3: 1-3, which
    keeps the all-pairs oracles under a second on 216 members)."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    g = GROUPS[name]
    length = draw(st.integers(1, 3 if name == "S3" else 4))
    letter = st.integers(0, g.order - 1)
    seeds = draw(st.lists(st.tuples(*[letter] * length), min_size=1, max_size=5))
    return (0, length - 1), [g] * length, seeds


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seeded_systems())
def test_certificates_match_oracles_on_generated_systems(case):
    window, alphabets, seeds = case
    new = outcome(build_system, window, alphabets, seeds)
    assert_same(new, outcome(oracles.build_system, window, alphabets, seeds),
                system_key)
    if new[0] != "ok":
        return
    # a built system is a subgroup, and every subgroup has a generator
    # basis (`extract_basis`; the census in test_census.py)
    assert_certificates_agree(new[1])


# -- injected defects ------------------------------------------------------------

def test_build_system_rejections_match_oracle(c2):
    cases = [
        dict(seeds=c2.sequences, member_cap=15),            # closure of 16
        dict(seeds=[c2.sequences[5][:-1]]),                 # wrong length
        dict(seeds=[(0, 0, 0, c2.alphabets[3].order)]),     # letter out of range
    ]
    for case in cases:
        new = outcome(build_system, c2.window, c2.alphabets, **case)
        old = outcome(oracles.build_system, c2.window, c2.alphabets, **case)
        assert new[0] == "raise"
        assert_same(new, old)
    assert outcome(build_system, c2.window, c2.alphabets, c2.sequences,
                   member_cap=15)[1] is BoundExceeded


def test_build_system_seed_witnesses_match_oracle(c2):
    """The column pass over the seeds finds a defect; the seed walk then
    names the same first defective seed as the oracle's loop."""
    good = list(c2.sequences[1:6])
    short, wide = good[2][:-1], good[3][:-1] + (c2.alphabets[3].order,)
    for seeds in ([*good[:2], short, *good[2:]], [*good[:3], wide, *good[3:]],
                  [*good[:1], wide, short], [short, wide]):
        new = failure(build_system, c2.window, c2.alphabets, seeds)
        assert new[:2] == ("raise", NotAGroupSystem)
        same_failure(new, failure(oracles.build_system, c2.window,
                                  c2.alphabets, seeds))


@pytest.fixture(scope="module")
def s3_square() -> GroupSystem:
    """All of S3 x S3 on window [0, 1] (36 members)."""
    s3 = GROUPS["S3"]
    flip = next(a for a in s3.elements() if s3.element_order(a) == 2)
    rot = next(a for a in s3.elements() if s3.element_order(a) == 3)
    seeds = [(flip, 0), (rot, 0), (0, flip), (0, rot)]
    return build_system((0, 1), [s3, s3], seeds, name="S3xS3")


@pytest.mark.parametrize("name", ["c2", "parity3", "s3_square"])
def test_verify_closure_names_a_missing_product(request, name):
    """A member set with one product removed.  Removing an involution keeps
    the identity, inverse and letter checks passing, so closure is what
    fails."""
    system = request.getfixturevalue(name)
    rejected = 0
    for m in system.sequences[1:]:
        if system.inverse(m) != m:
            continue
        rest = [s for s in system.sequences if s != m]
        broken = GroupSystem(system.window, system.alphabets, rest, _closed=True)
        new = outcome(broken.verify_closure)
        assert_same(new, outcome(oracles.verify_closure, broken))
        assert new == ("raise", NotAGroupSystem)
        with pytest.raises(NotAGroupSystem) as info:
            broken.verify_closure()
        a, b = info.value.witness
        assert a in broken and b in broken and broken.mul(a, b) not in broken
        # the constructor runs the same check
        with pytest.raises(NotAGroupSystem):
            GroupSystem(system.window, system.alphabets, rest)
        rejected += 1
    assert rejected > 0


@pytest.mark.parametrize("name", ["c2", "parity3", "s3_square"])
def test_column_closure_keeps_the_tuple_loop_witness(request, monkeypatch, name):
    """The column pass decides; a closed member set never reaches the tuple
    loop, and an open one gets the witness the tuple loop alone names."""
    system = request.getfixturevalue(name)
    witnesses = []
    for m in system.sequences[1:]:
        if system.inverse(m) != m:
            continue
        rest = [s for s in system.sequences if s != m]
        broken = GroupSystem(system.window, system.alphabets, rest, _closed=True)
        with pytest.raises(NotAGroupSystem) as info:
            broken.verify_closure()

        def vet(a, g, prod):
            if prod not in broken:
                raise KeyError((a, g))

        with pytest.raises(KeyError) as loop:
            close_greedily({broken.identity}, broken.sequences, broken.mul, vet)
        witnesses.append(info.value.witness)
        assert info.value.witness == loop.value.args[0]
    assert witnesses

    def tuple_loop(*args):
        raise AssertionError("the tuple loop ran on a closed member set")

    monkeypatch.setattr(systems_module, "close_greedily", tuple_loop)
    system.verify_closure()


def with_tensors(ctx: GeneratorContext, tensors) -> GeneratorContext:
    """A context over the same system whose member/tensor identification is
    replaced, with empty caches."""
    bad = GeneratorContext(ctx.system, ctx.basis)
    bad.tensors = tuple(tensors)
    bad.tensor_index = {lab: i for i, lab in enumerate(bad.tensors)}
    return bad


@pytest.mark.parametrize("name", ["c2", "s3_square"])
def test_elementary_group_rejects_a_broken_identification(request, name):
    """Swap the label tensors of two members: the slice partition stops
    being a congruence at some anchor, and both certificates say so."""
    ctx = build_context(request.getfixturevalue(name))
    rejected = 0
    for i, j in itertools.combinations(range(1, min(len(ctx.tensors), 12)), 2):
        tensors = list(ctx.tensors)
        tensors[i], tensors[j] = tensors[j], tensors[i]
        bad = with_tensors(ctx, tensors)
        for anchor in ctx.slots:
            new = outcome(elementary_group, bad, *anchor)
            assert_same(new, outcome(oracles.elementary_group, bad, *anchor),
                        table_key)
            rejected += new == ("raise", WellDefinednessFailure)
    assert rejected > 0


def test_elementary_group_needs_both_sides(s3_square):
    """Label S3 x S3 so that the slice at (0, 0) names the right coset of the
    diagonal, a subgroup that is not normal.  The slice partition is then
    invariant under right multiplication but not under left, so only the
    left Cayley graph exposes the lift dependence."""
    system = s3_square
    ctx = build_context(system)
    s3 = GROUPS["S3"]
    diagonal = [(g, g) for g in s3.elements()]
    cosets = sorted({frozenset(system.mul(k, a) for k in diagonal)
                     for a in system.sequences}, key=min)
    coset_of = {a: i for i, c in enumerate(cosets) for a in c}
    first, second = ctx.slot_pos[(0, 0)], ctx.slot_pos[(0, 1)]
    tensors = []
    for a in system.sequences:
        lab = [0, 0]
        lab[first], lab[second] = coset_of[a], a[1]
        tensors.append(tuple(lab))
    bad = with_tensors(ctx, tensors)
    for s in ctx.generating_set:  # right multiplication respects the cosets
        g = system.sequences[s]
        moves = {(coset_of[a], coset_of[system.mul(a, g)]) for a in system.sequences}
        assert len(moves) == len(cosets)
    new = outcome(elementary_group, bad, 0, 0)
    assert new == ("raise", WellDefinednessFailure)
    assert_same(new, outcome(oracles.elementary_group, bad, 0, 0))


def with_table(es: ElementarySystem, anchor, table: ElementaryGroupTable):
    tables = dict(es.tables)
    tables[anchor] = table
    return ElementarySystem(es.name, es.ell, es.window, es.label_sizes, tables)


@pytest.mark.parametrize("name", ["c2", "s3_rep", "taps_x0_x1+x2"])
def test_recover_original_rejects_swapped_table_entries(request, name):
    """Two entries swapped in one row of one time-t table of an extracted
    elementary system.  The swap breaks the group axioms, so loading the
    dump rejects it; handed over directly, both recovery checks reject it
    with the same error type.  On the tap rule some swaps hit only columns
    that no generator's slice reaches, which the generator pairs alone
    would miss; the associativity step catches them."""
    if name.startswith("taps"):
        system = parse_system("system T\nwindow 0 3\nrule conv Z2 x0 x1+x2\n")
    else:
        system = request.getfixturevalue(name)
    ctx = build_context(system)
    es = extract_elementary_system(ctx)
    rejected = off_generators = 0
    for t in ctx.system.times():
        table = es.tables[(0, t)]
        take = [ctx.slot_pos[p] for p in table.positions]
        gen_slices = {table._index[tuple(ctx.tensors[s][i] for i in take)]
                      for s in ctx.generating_set}
        n = table.group.order
        row = n - 1
        for c1, c2 in itertools.combinations(range(n), 2):
            op = [list(r) for r in table.group.op_table]
            op[row][c1], op[row][c2] = op[row][c2], op[row][c1]
            group = FiniteGroup(op, name=table.group.name, _validated=True)
            bad = with_table(es, (0, t), ElementaryGroupTable(
                table.anchor, table.positions, table.elements, group))
            with pytest.raises(AxiomViolation):
                parse_elementary_system(dump_elementary_system(bad))
            new = outcome(recover_original, bad, ctx)
            assert_same(new, outcome(oracles.recover_original, bad, ctx),
                        system_key)
            same_failure(failure(recover_original, bad, ctx),
                         failure(oracles.recover_original, bad, ctx),
                         system_key)
            rejected += new[0] == "raise"
            off_generators += (new[0] == "raise"
                               and not {c1, c2} & gen_slices)
    assert rejected > 0
    if name.startswith("taps"):
        assert off_generators > 0


def test_recover_original_accepts_what_the_oracle_accepts(c2):
    """A swap in a table the global product never reads (depth 1) changes
    neither verdict."""
    ctx = build_context(c2)
    es = extract_elementary_system(ctx)
    anchor = next(a for a in ctx.slots if a[0] == 1)
    table = es.tables[anchor]
    op = [list(r) for r in table.group.op_table]
    op[1][0], op[1][1] = op[1][1], op[1][0]
    bad = with_table(es, anchor, ElementaryGroupTable(
        anchor, table.positions, table.elements,
        FiniteGroup(op, _validated=True)))
    new = outcome(recover_original, bad, ctx)
    assert new[0] == "ok"
    assert_same(new, outcome(oracles.recover_original, bad, ctx), system_key)


# -- chains, peels, decoding and the tooth group ------------------------------------

def chain_outcomes(ctx: GeneratorContext, f, base_ps=None):
    """Chain, reconstruction and every member's peel, from both sides; an
    accepted chain passes the fill check it no longer makes itself."""
    new = outcome(normal_chain, ctx, f, base_ps)
    old = outcome(oracles.normal_chain, ctx, f, base_ps)
    assert_same(new, old)
    if new[0] == "ok":
        oracles.check_chain_fill(ctx, new[1], base_ps)
        for seq in ctx.system.sequences:
            assert_same(outcome(decompose_along_chain, ctx, new[1], seq),
                        outcome(oracles.decompose_along_chain, ctx, old[1], seq))
    return new, old


def assert_chains_agree(ctx: GeneratorContext, cap: int = 24) -> None:
    """Every normal walk (capped): chain steps, members, peels and the
    reconstruction; then decoding of every member and of a non-member."""
    system = ctx.system
    walks, _ = enumerate_normal_fillings(system.window, ctx.ell, cap)
    for f in walks:
        new, _ = chain_outcomes(ctx, f)
        assert new[0] == "ok"
        assert_same(outcome(reconstruct_from_chain, ctx, f),
                    outcome(oracles.reconstruct_from_chain, ctx, f), system_key)
    for seq in system.sequences:
        new = outcome(decode_to_tensor, ctx.basis, seq)
        old = outcome(oracles.decode_to_tensor, ctx.basis, seq)
        assert_same(new, old)
    outside = next((s for s in itertools.product(
        *[range(g.order) for g in system.alphabets]) if s not in system), None)
    if outside is not None:
        new = outcome(decode_to_tensor, ctx.basis, outside)
        assert new == ("raise", NotAMember)
        assert_same(new, outcome(oracles.decode_to_tensor, ctx.basis, outside))


def oplus_key(op) -> tuple:
    return op.pairs, op.elements, op.group.op_table


@pytest.mark.parametrize("name", FIXTURES)
def test_chains_match_oracles_on_fixtures(request, name):
    ctx = build_context(request.getfixturevalue(name))
    assert_chains_agree(ctx)
    window, ell = ctx.system.window, ctx.ell
    slots = window_slots(window, ell)
    walk = standard_filling(window, ell, "time_rev")
    for r in range(len(slots) + 1):
        for sample in itertools.islice(itertools.combinations(slots, r), 6):
            ps = purge(window, ell, sample)
            chain_outcomes(ctx, walk, ps)  # peels with a nontrivial base part raise
            ps_u = complementary(ps)
            assert_same(outcome(oplus_group, ctx, ps_u),
                        outcome(oracles.oplus_group, ctx, ps_u), oplus_key)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seeded_systems())
def test_chains_match_oracles_on_generated_systems(case):
    window, alphabets, seeds = case
    try:
        ctx = build_context(build_system(window, alphabets, seeds))
    except ToolkitError:
        return  # no generator basis; the certificate test covers these
    assert_chains_agree(ctx, cap=12)


@pytest.mark.parametrize("name", ["c2", "parity3", "s3_rep", "s3_square"])
def test_chain_rejects_swapped_tensors(request, name):
    """Swap the label tensors of two members: both chains reach the same
    verdict with the same error type, and where they accept, the same steps
    and peels.  On the parity code and the S3 repetition system every swap
    relabels consistently and is accepted; on the others some are not."""
    ctx = build_context(request.getfixturevalue(name))
    walks, _ = enumerate_normal_fillings(ctx.system.window, ctx.ell, 6)
    rejected = 0
    for i, j in itertools.combinations(range(1, len(ctx.tensors)), 2):
        tensors = list(ctx.tensors)
        tensors[i], tensors[j] = tensors[j], tensors[i]
        bad = with_tensors(ctx, tensors)
        for f in walks:
            new, _ = chain_outcomes(bad, f)
            rejected += new[0] == "raise"
    assert (rejected > 0) == (name in ("c2", "s3_square"))


def bogus_basis_context(system: GroupSystem, transversals: dict) -> GeneratorContext:
    """A context whose basis takes the given entries per slot.  They span
    the system with disjoint cosets, so the label tensors read off their
    chain agree with every level's support set, but the entries are no
    granule transversals."""
    slots = tuple(transversals)
    basis = GeneratorBasis(system, 0, slots, transversals,
                           _basis_chain(system, slots, transversals))
    return GeneratorContext(system, basis)


def test_chain_rejects_levels_that_are_no_normal_subgroups(s3_square):
    """Levels from a spanning set of entries that is no basis: the first
    level is no subgroup (Z4 x Z4) or a subgroup that is not normal (the
    diagonal of S3 x S3).  The support sets agree with the levels, so only
    the subgroup and normality checks can reject them."""
    z4 = cyclic_group(4)
    square = GroupSystem((0, 1), [z4, z4], itertools.product(range(4), repeat=2))
    not_closed = bogus_basis_context(square, {
        (0, 1): ((0, 0), (0, 1), (1, 0), (1, 1)),
        (0, 0): ((0, 0), (0, 2), (2, 0), (2, 2))})
    s3 = GROUPS["S3"]
    not_normal = bogus_basis_context(s3_square, {
        (0, 1): tuple((g, g) for g in s3.elements()),
        (0, 0): tuple((g, 0) for g in s3.elements())})
    walk = standard_filling((0, 1), 0, "time_rev")
    assert walk.pairs == ((0, 1), (0, 0))
    for bad, error in ((not_closed, NotASubgroup), (not_normal, NotNormalFilling)):
        new, _ = chain_outcomes(bad, walk)
        assert new == ("raise", error)


def test_basis_chain_rejects_colliding_cosets():
    """Entries that span the system but repeat a coset: without the size
    check, the later choice would overwrite the earlier one silently."""
    z4 = cyclic_group(4)
    square = GroupSystem((0, 1), [z4, z4], itertools.product(range(4), repeat=2))
    transversals = {(0, 1): tuple((0, b) for b in range(4)),
                    (0, 0): tuple((a, 0) for a in range(4)) + ((1, 1),)}
    with pytest.raises(NotAGroupSystem) as info:
        _basis_chain(square, tuple(transversals), transversals)
    assert info.value.reason == "chain step not coset-complete"
    assert info.value.witness == (0, 0)


# -- column kernels against their per-pair forms ---------------------------------

def granule_cases(system: GroupSystem):
    """Per basis slot, the granule test's inputs as `extract_basis` forms
    them, followed by two defective transversals: one entry fewer (an order
    mismatch) and the second entry replaced by a member of its coset of
    the first (colliding cosets)."""
    ell = controllability_index(system)
    support = system.finite_support_indices
    for k, t in window_slots(system.window, ell):
        num = support(t, t + k)
        den = _normal_product(system, support(t, t + k - 1), support(t + 1, t + k))
        reps = _least_coset_reps(system, num, den)
        yield (k, t), num, den, reps
        yield (k, t), num, den, reps[:-1]
        if len(reps) > 1:
            twin = system.mul(reps[0], system.sequences[max(den)])
            yield (k, t), num, den, (reps[0], twin) + reps[2:]


def member_set(system: GroupSystem, indices) -> frozenset:
    """The members at ascending member indices, as a set of sequences."""
    assert list(indices) == sorted(set(indices))
    return frozenset(map(system.sequences.__getitem__, indices))


def oracle_granule(system: GroupSystem, slot, num, den, reps) -> None:
    """`oracles.check_granule` on the member sets at these indices."""
    oracles.check_granule(system, slot, member_set(system, num),
                          member_set(system, den), reps)


def assert_column_kernels_agree(system: GroupSystem) -> None:
    """One-sided member sets, granule tests, Cayley graphs and the recovery
    check against their per-pair forms."""
    t0, t1 = system.window
    support = system.finite_support_indices
    for t in range(t0 - 1, t1 + 3):
        assert member_set(system, support(t, t1)) == oracles.x_members(system, t)
        assert member_set(system, support(t0, t)) == oracles.y_members(system, t)
        for hi in range(t - 1, t1 + 2):
            assert member_set(system, support(t, hi)) == (
                oracles.x_members(system, t) & oracles.y_members(system, hi))
    for case in granule_cases(system):
        same_failure(failure(_check_granule, system, *case),
                     failure(oracle_granule, system, *case))
    try:
        ctx = build_context(system)
    except ToolkitError:
        return  # no generator basis, so no graph or recovery to compare
    for right in (True, False):
        graph = ctx.right_cayley if right else ctx.left_cayley
        assert tuple(zip(*graph)) == oracles.cayley(ctx, right)
    es = extract_elementary_system(ctx)
    same_failure(failure(recover_original, es, ctx),
                 failure(oracles.recover_original, es, ctx), system_key)


@pytest.mark.parametrize("name", FIXTURES + ["s3_square"])
def test_column_kernels_match_oracles_on_fixtures(request, name):
    assert_column_kernels_agree(request.getfixturevalue(name))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seeded_systems())
def test_column_kernels_match_oracles_on_generated_systems(case):
    window, alphabets, seeds = case
    assert_column_kernels_agree(build_system(window, alphabets, seeds))


def test_granule_defects_are_rejected_with_witnesses(c2):
    """The defective transversals of `granule_cases` fail both tests alike,
    and each kind of defect occurs."""
    reasons = set()
    for case in granule_cases(c2):
        new = failure(_check_granule, c2, *case)
        same_failure(new, failure(oracle_granule, c2, *case))
        if new[0] == "raise":
            with pytest.raises(NotAGroupSystem) as info:
                _check_granule(c2, *case)
            reasons.add(info.value.reason)
    assert reasons == {"time-domain/finite-extent granule mismatch",
                       "transversal entries share a coset"}


@pytest.mark.parametrize("name", ["c2", "s3_square"])
def test_recovery_rejects_swapped_tensors_like_the_pair_loop(request, name):
    """The elementary system of the true context checked against a context
    with two label tensors swapped: both recovery checks name the same
    deviating pair."""
    ctx = build_context(request.getfixturevalue(name))
    es = extract_elementary_system(ctx)
    rejected = 0
    for i, j in itertools.combinations(range(1, min(len(ctx.tensors), 10)), 2):
        tensors = list(ctx.tensors)
        tensors[i], tensors[j] = tensors[j], tensors[i]
        bad = with_tensors(ctx, tensors)
        new = failure(recover_original, es, bad)
        same_failure(new, failure(oracles.recover_original, es, bad),
                     system_key)
        rejected += new[0] == "raise"
    assert rejected > 0


def test_recovery_rejects_unrealized_and_uncovered_slices_like_the_pair_loop(c2):
    """A time-t table missing an element, one with an element's labels
    repeated, and one whose positions leave its anchor slot uncovered: the
    column pass hands the pairs to the per-pair check, which raises what
    the pair loop raises."""
    ctx = build_context(c2)
    es = extract_elementary_system(ctx)
    table = es.tables[(0, 1)]
    assert table.positions[-1] == (0, 1) and table.group.order > 1

    def variant(positions, elements):
        return ElementaryGroupTable(table.anchor, positions, tuple(
            tri[:len(positions)] for tri in elements), table.group)

    unrealized = (99,) * len(table.positions)
    variants = (variant(table.positions, table.elements[:-1] + (unrealized,)),
                variant(table.positions, table.elements[:-1] + table.elements[:1]),
                variant(table.positions[:-1], table.elements))
    for bad_table in variants:
        bad = with_table(es, (0, 1), bad_table)
        new = failure(recover_original, bad, ctx)
        assert new[0] == "raise"
        same_failure(new, failure(oracles.recover_original, bad, ctx))
    assert new[1] is OverlapInconsistency and "cover" in new[2]


TAP_GROUPS = ("Z2", "Z3", "Z4")


@st.composite
def tap_rules(draw):
    """A tap rule over Z2, Z3 or Z4 with one to three outputs of delays
    0-3, on a window of length 1-4."""
    group = draw(st.sampled_from(TAP_GROUPS))
    length = draw(st.integers(1, 4))
    outputs = draw(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3),
                            min_size=1, max_size=3))
    taps = tuple("+".join(f"x{d}" for d in delays) for delays in outputs)
    return (0, length - 1), (group, taps)


@settings(max_examples=40, deadline=None)
@given(tap_rules(), st.sampled_from([2 ** 16, 64]))
def test_rule_unrolling_matches_the_nested_loops(case, cap):
    window, rule = case
    args = ("R", window, rule, resolve_group, cap)
    new = outcome(_unroll_rule, *args)
    assert_same(new, outcome(oracles.unroll_rule, *args), system_key)


def counted_recovery(es: ElementarySystem, ctx: GeneratorContext) -> tuple:
    """`failure` of `recover_original`, and the number of global products
    it formed."""
    calls = []
    product = elementary_module.global_product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elementary_module, "global_product",
                   lambda *args: calls.append(args) or product(*args))
        return failure(recover_original, es, ctx), len(calls)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tap_rules(), st.data())
def test_recovery_of_a_changed_reload_matches_the_all_pairs_loop(case, data):
    """A reloaded dump of a tap rule's extraction is accepted with the
    original members and no global product.  With one entry of one
    (0, t) table changed, or two entries of one row swapped, the verdict,
    error type and witness are the all-pairs loop's, and the table
    comparison alone decides: a rejection forms one global product, the
    witness pair's.  Rules without a generator basis are skipped."""
    window, rule = case
    system = _unroll_rule("R", window, rule, resolve_group, 2 ** 16)
    built = outcome(build_context, system)
    assume(built[0] == "ok")  # some rules have no generator basis
    ctx = built[1]
    loaded = parse_elementary_system(dump_elementary_system(
        extract_elementary_system(ctx)))
    (verdict, recovered), products = counted_recovery(loaded, ctx)
    assert verdict == "ok" and products == 0
    assert recovered.sequences == system.sequences
    t = data.draw(st.sampled_from(system.times()))
    table = loaded.tables[(0, t)]
    n = table.group.order
    op = [list(row) for row in table.group.op_table]
    x, y, z = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    if data.draw(st.booleans()):
        op[x][y] = z
    else:
        op[x][y], op[x][z] = op[x][z], op[x][y]
    bad = with_table(loaded, (0, t), ElementaryGroupTable(
        table.anchor, table.positions, table.elements,
        FiniteGroup(op, name=table.group.name, _validated=True)))
    new, products = counted_recovery(bad, ctx)
    same_failure(new, failure(oracles.recover_original, bad, ctx), system_key)
    assert (new[0] == "raise") == (op != [list(r) for r in table.group.op_table])
    assert products == (new[0] == "raise")


def test_rule_unrolling_matches_the_nested_loops_on_two_output_rules():
    pairs = [("x0", "x1"), ("x0", "x0+x1"), ("x0", "x2"), ("x0+x1", "x1+x2"),
             ("x0+x2", "x1"), ("x0+x1+x2", "x0+x2")]
    for group in TAP_GROUPS:
        for taps in pairs:
            args = ("R", (0, 3), (group, taps), resolve_group, 2 ** 16)
            assert system_key(_unroll_rule(*args)) == system_key(
                oracles.unroll_rule(*args))


KLEIN_FOUR = "group V 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"


def test_rule_unrolling_over_the_klein_four_group_matches_the_nested_loops():
    """A base with two generators: the seeds are the images of both, at
    every input time, and together they must close to every member the
    nested loops list.  Repeated delays are among the taps."""
    v = parse_group(KLEIN_FOUR)
    assert len(v.generators) == 2 and v.order == 4
    lookup = {"V": v}.__getitem__
    for taps in [("x0",), ("x1",), ("x0+x0",), ("x0+x1",), ("x0+x0+x1",),
                 ("x0", "x0+x1"), ("x0+x1", "x1+x2"), ("x2", "x1+x1")]:
        for length in range(1, 5):
            args = ("R", (0, length - 1), ("V", taps), lookup, 2 ** 16)
            assert system_key(_unroll_rule(*args)) == system_key(
                oracles.unroll_rule(*args))
    inline = parse_system(KLEIN_FOUR + "system K\nwindow 0 3\nrule conv V x0 x0+x1\n")
    oracle = oracles.unroll_rule("K", (0, 3), ("V", ("x0", "x0+x1")), lookup, 2 ** 16)
    assert system_key(inline) == system_key(oracle) and len(inline) == 4 ** 4


# -- nested quotients and Light's test against the per-anchor forms ----------------

@pytest.mark.parametrize("name", ["c2", "parity3", "s3_rep", "s3_square"])
def test_nested_elementary_groups_match_oracles_on_every_swap(request, name):
    """Every swap of two label tensors: where a parent anchor is broken,
    its children fall back to the member-level check, and the results
    still agree anchor by anchor."""
    ctx = build_context(request.getfixturevalue(name))
    rejected = 0
    for i, j in itertools.combinations(range(1, len(ctx.tensors)), 2):
        tensors = list(ctx.tensors)
        tensors[i], tensors[j] = tensors[j], tensors[i]
        bad = with_tensors(ctx, tensors)
        assert_elementary_groups_agree(bad)
        rejected += len(bad._elementary) < len(ctx.slots)
    assert (rejected > 0) == (name in ("c2", "s3_square"))


def test_compose_columns_rebuilds_nonabelian_tables():
    """Given only the identity's and the greedy generators' columns, the
    composed table is the group's own.  These groups are not abelian and
    their greedy generators do not cover them, so columns composed in the
    wrong order would show."""
    s3 = GROUPS["S3"]
    for g in (s3, direct_product(s3, cyclic_group(2))[0], direct_product(s3, s3)[0]):
        op = g.op_table
        assert len(g.generators) + 1 < g.order and not g.is_abelian
        columns = {z: [row[z] for row in op] for z in (0, *g.generators)}
        assert compose_columns(columns, g.order) == op


def test_nested_check_falls_back_when_only_the_child_fails(c2):
    """Label tensors whose (0, t) slices are injective, so E(0, t) is the
    member group itself, while the (1, t) slice singles out one member,
    a partition that is no congruence.  The check on the parent's table
    fails, and the member-level check names the witness."""
    ctx = build_context(c2)
    t = 1
    child, parent = ctx.slot_pos[(1, t)], ctx.slot_pos[(0, t)]
    tensors = []
    for a, lab in enumerate(ctx.tensors):
        lab = list(lab)
        lab[child], lab[parent] = int(a == 5), a
        tensors.append(tuple(lab))
    bad = with_tensors(ctx, tensors)
    assert elementary_group(bad, 0, t).group.order == len(c2)
    positions = upper_triangle_positions(c2.window, ctx.ell, 1, t)
    assert _nested_slice_group(bad, (0, t), positions, "E") is None
    new = failure(elementary_group, bad, 1, t)
    assert new[:2] == ("raise", WellDefinednessFailure)
    same_failure(new, failure(oracles.member_elementary_group, bad, 1, t))
    assert_same(new[:2], outcome(oracles.elementary_group, bad, 1, t))


def test_light_test_matches_full_associativity_on_swapped_rows(c2):
    """Every swap of two entries in any row of every time-t table: Light's
    test on 0 and the greedy generators of the swapped table says exactly
    what the check of all triples says, so where it holds (x y) z =
    x (y z) holds at every z."""
    ctx = build_context(c2)
    es = extract_elementary_system(ctx)
    verdicts = set()
    for t in c2.times():
        op = es.tables[(0, t)].group.op_table
        n = len(op)
        for row, (c1, c2_) in itertools.product(
                range(n), itertools.combinations(range(n), 2)):
            bad = [list(r) for r in op]
            bad[row][c1], bad[row][c2_] = bad[row][c2_], bad[row][c1]
            group = FiniteGroup(bad, _validated=True)
            light = associativity_witness(group.op_table,
                                          (0, *group.generators)) is None
            assert light == oracles.is_associative(group.op_table)
            if light:
                assert all(oracles.associative_at(group.op_table, z, list(range(n)))
                           for z in range(n))
            verdicts.add(light)
    assert verdicts == {True, False}


def test_light_test_matches_full_associativity_on_every_small_table():
    """Every operation table of order 2 or 3, groups or not: Light's test
    on the table's greedy generators and 0 says exactly what the check of
    all triples says.  Some of these tables need z = 0: they are
    associative at every generator but not at 0."""
    needs_zero = 0
    for n in (2, 3):
        for flat in itertools.product(range(n), repeat=n * n):
            op = tuple(flat[i * n:(i + 1) * n] for i in range(n))
            gens = FiniteGroup(op, _validated=True).generators
            full = oracles.is_associative(op)
            assert (associativity_witness(op, (0, *gens)) is None) == full
            needs_zero += not full and 0 not in gens and all(
                oracles.associative_at(op, z, list(range(n))) for z in gens)
    assert needs_zero > 0


def test_recovery_walks_a_table_with_a_corrupted_identity_row():
    """Two entries of the identity row swapped at columns no generator's
    slice reaches: the element x generator pairs never read them, and the
    table is not associative (Light's test fails at z = 0).  The
    comparison with the context's own table decides the verdict and the
    witness, as the all-pairs loop does."""
    system = parse_system("system T\nwindow 0 3\nrule conv Z2 x0 x1+x2\n")
    ctx = build_context(system)
    es = extract_elementary_system(ctx)
    walked = 0
    for t in system.times():
        table = es.tables[(0, t)]
        take = [ctx.slot_pos[p] for p in table.positions]
        gen_slices = {table._index[tuple(ctx.tensors[s][i] for i in take)]
                      for s in ctx.generating_set}
        n = table.group.order
        for c1, c2 in itertools.combinations(range(1, n), 2):
            if {c1, c2} & gen_slices:
                continue
            op = [list(r) for r in table.group.op_table]
            op[0][c1], op[0][c2] = op[0][c2], op[0][c1]
            group = FiniteGroup(op, name=table.group.name, _validated=True)
            assert associativity_witness(group.op_table,
                                         (0, *group.generators)) is not None
            bad = with_table(es, (0, t), ElementaryGroupTable(
                table.anchor, table.positions, table.elements, group))
            same_failure(failure(recover_original, bad, ctx),
                         failure(oracles.recover_original, bad, ctx),
                         system_key)
            walked += 1
    assert walked > 0


# -- controllability from cut ids -------------------------------------------------

@pytest.mark.parametrize("name", FIXTURES + ["s3_square"])
def test_controllability_index_matches_oracle_on_fixtures(request, name):
    system = request.getfixturevalue(name)
    assert controllability_index(system) == oracles.controllability_index(system)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seeded_systems())
def test_controllability_index_matches_oracle_on_generated_systems(case):
    system = build_system(*case)
    assert controllability_index(system) == oracles.controllability_index(system)


# -- the basis on member indices and the recovery on columns ---------------------

def basis_key(basis: GeneratorBasis) -> tuple:
    return basis.ell, basis.slots, basis.transversals, basis.tensors


def recovered_key(system: GroupSystem) -> tuple:
    return (system.name, system.window) + system_key(system)


def assert_basis_and_recovery_agree(system: GroupSystem) -> None:
    """Transversals, label tensors and ell, or the error and its message, as the
    sequence forms give them; then the recovered system from a context on
    that basis."""
    new = failure(extract_basis, system)
    same_failure(new, failure(oracles.extract_basis, system), basis_key)
    if new[0] == "ok":
        ctx = GeneratorContext(system, new[1])
        same_failure(failure(recover_system_fhgs, ctx),
                     failure(oracles.recover_system_fhgs, ctx), recovered_key)
        for t in system.times():  # the column fold, element by element
            elements = elementary_group(ctx, 0, t).elements
            letters = [oracles.alpha_t(ctx, tri, t) for tri in elements]
            assert _alpha_column(ctx, t) == letters
            assert [alpha_t(ctx, tri, t) for tri in elements] == letters
            for bad in (elements[0] + (0,), (-1,) * len(elements[0])):
                assert failure(alpha_t, ctx, bad, t) == failure(
                    oracles.alpha_t, ctx, bad, t)


@pytest.mark.parametrize("name", FIXTURES + ["s3_square", "s3_signs"])
def test_basis_and_recovery_match_oracles_on_fixtures(request, name):
    """The fixtures, S3 x S3, and the pairs of S3 x S3 of equal sign, whose
    letters at time 1 are products of two generators' letters that do not
    commute (a 3-cycle and a transposition)."""
    if name == "s3_signs":
        s3 = GROUPS["S3"]
        rot = next(a for a in s3.elements() if s3.element_order(a) == 3)
        flip = next(a for a in s3.elements() if s3.element_order(a) == 2)
        system = build_system((0, 1), [s3, s3], [(rot, 0), (0, rot), (flip, flip)])
        assert len(system) == 18 and controllability_index(system) == 1
    else:
        system = request.getfixturevalue(name)
    assert_basis_and_recovery_agree(system)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seeded_systems())
def test_basis_and_recovery_match_oracles_on_generated_systems(case):
    assert_basis_and_recovery_agree(build_system(*case))


# Two-output tap rules whose basis, on windows of three or more times, has
# two entries with one letter at an interior time of their span; no
# certificate needs those letters distinct.
SHARED_LETTER_TAP_PAIRS = (
    ("x0", "x2"), ("x0", "x0+x2"), ("x0+x1", "x2"),
    ("x0+x1", "x0+x1+x2"), ("x0+x2", "x2"), ("x0+x1+x2", "x2"),
)


@pytest.mark.parametrize("group", TAP_GROUPS)
def test_basis_with_shared_interior_letters_extracts_like_the_oracle(group):
    """Each pair on [0,1] to [0,5]: the basis is the oracle's, and the
    system recovers from its extraction and from the reloaded dump, whose
    `.esys` roundtrip is label-equal."""
    for taps, last in itertools.product(SHARED_LETTER_TAP_PAIRS, range(1, 6)):
        system = parse_system(f"system R\nwindow 0 {last}\n"
                              f"rule conv {group} {taps[0]} {taps[1]}\n")
        basis = extract_basis(system)
        assert basis_key(basis) == basis_key(oracles.extract_basis(system))
        ctx = GeneratorContext(system, basis)
        es = extract_elementary_system(ctx)
        assert recover_original(es, ctx).sequences == system.sequences
        reloaded = parse_elementary_system(dump_elementary_system(es))
        assert recover_original(reloaded, ctx).sequences == system.sequences
        image = global_group_system(reloaded)
        assert roundtrip_label_maps(reloaded, build_context(image)) is not None


@pytest.mark.parametrize("name", FIXTURES + ["s3_square"])
def test_basis_matches_oracle_on_member_sets_with_one_member_removed(request, name):
    """Each member but the identity left out: as a member set, which the
    system check rejects before any basis is formed, and as seeds, whose
    saturation is the system again or a subsystem."""
    system = request.getfixturevalue(name)

    def basis_of_members(members):
        return extract_basis(GroupSystem(system.window, system.alphabets, members))

    def oracle_of_members(members):
        return oracles.extract_basis(
            GroupSystem(system.window, system.alphabets, members))

    def basis_of_seeds(members):
        return extract_basis(build_system(system.window, system.alphabets, members))

    def oracle_of_seeds(members):
        return oracles.extract_basis(
            build_system(system.window, system.alphabets, members))

    for gone in system.sequences[1:20]:
        members = [s for s in system.sequences if s != gone]
        rejected = failure(basis_of_members, members)
        assert rejected[:2] == ("raise", NotAGroupSystem)
        same_failure(rejected, failure(oracle_of_members, members))
        same_failure(failure(basis_of_seeds, members),
                     failure(oracle_of_seeds, members), basis_key)


def with_entries_swapped(basis: GeneratorBasis, slot, i: int, j: int) -> GeneratorBasis:
    entries = list(basis.transversals[slot])
    entries[i], entries[j] = entries[j], entries[i]
    transversals = dict(basis.transversals)
    transversals[slot] = tuple(entries)
    return GeneratorBasis(basis.system, basis.ell, basis.slots, transversals,
                          basis.tensors)


@pytest.mark.parametrize("name", ["z3_taps", "s3_square"])
def test_recovery_compares_member_sets_where_rows_move(request, name):
    """A context whose transversal entries are relabeled against its label
    tensors: swapping two non-identity entries of a slot recovers members
    in other rows, which both forms accept as the same member set; putting
    the identity in an entry's place repeats a row, which both reject."""
    if name == "z3_taps":
        system = parse_system("system T\nwindow 0 2\nrule conv Z3 x0 x0+x1\n")
    else:
        system = request.getfixturevalue(name)
    basis = extract_basis(system)
    slot = max(basis.slots, key=lambda s: len(basis.transversals[s]))
    swaps = itertools.combinations(range(1, len(basis.transversals[slot])), 2)
    for i, j in itertools.islice(swaps, 4):
        ctx = GeneratorContext(system, with_entries_swapped(basis, slot, i, j))
        new = failure(recover_system_fhgs, ctx)
        assert new[0] == "ok"
        same_failure(new, failure(oracles.recover_system_fhgs, ctx), recovered_key)
        # the rows moved: some member's labels now encode another member
        assert any(encode_time_domain(ctx.basis, decode_to_tensor(ctx.basis, a)) != a
                   for a in system.sequences)
    entries = dict(basis.transversals)
    entries[slot] = (system.identity,) + entries[slot][:1] + entries[slot][2:]
    ctx = GeneratorContext(system, GeneratorBasis(
        system, basis.ell, basis.slots, entries, basis.tensors))
    new = failure(recover_system_fhgs, ctx)
    assert new[:2] == ("raise", RecoveryMismatch)
    same_failure(new, failure(oracles.recover_system_fhgs, ctx))


def test_recovered_system_shares_the_validated_members(c2):
    ctx = build_context(c2)
    recovered = recover_original(extract_elementary_system(ctx), ctx)
    assert recovered.name == "C2|fhgs"
    assert recovered.sequences is c2.sequences
    assert recovered.columns is c2.columns
    assert recovered._index is c2._index
    assert c2.name == "C2"


def test_least_coset_reps_take_left_cosets(s3_square):
    """Over a subgroup of order 2 in the first factor of S3 x S3, which is
    not normal, left and right cosets differ: the representatives are
    those of the left cosets a D that the tuple-product form takes."""
    system = s3_square
    index = system._index
    differ = 0
    for flip in (a for a in GROUPS["S3"].elements() if GROUPS["S3"].element_order(a) == 2):
        sub = frozenset({(0, 0), (flip, 0)})
        left = _least_coset_reps(system, list(range(len(system))),
                                 sorted(map(index.__getitem__, sub)))
        assert left == oracles.least_coset_reps(
            system, frozenset(system.sequences), sub)
        right = {min(system.mul(d, a) for d in sub) for a in system.sequences}
        differ += set(left) != right
    assert differ


def compared_tables(monkeypatch) -> list:
    """Record the (0, t) tables recovery compares with the context's own."""
    calls = []
    compare = elementary_module._failing_pairs

    def counted(table, own, cls):
        calls.append(table)
        return compare(table, own, cls)

    monkeypatch.setattr(elementary_module, "_failing_pairs", counted)
    return calls


@pytest.mark.parametrize("name", ["c2", "s3_square"])
def test_recovery_tests_the_tables_the_context_did_not_build(request, monkeypatch, name):
    """The context's own extraction is accepted without a comparison and
    without the global product's plan.  A reloaded dump holds other
    objects, so each of its (0, t) tables is compared; with one entry of
    one of them changed, the recovery is rejected as the all-pairs loop
    rejects it."""
    system = request.getfixturevalue(name)
    ctx = build_context(system)
    es = extract_elementary_system(ctx)
    calls = compared_tables(monkeypatch)
    recover_original(es, ctx)
    assert calls == [] and "_product_plan" not in vars(es)
    loaded = parse_elementary_system(dump_elementary_system(es))
    recover_original(loaded, ctx)
    assert calls == [loaded.tables[(0, t)] for t in system.times()]
    rejected = 0
    for t in system.times():
        table = loaded.tables[(0, t)]
        n = table.group.order
        if n == 1:
            continue
        op = [list(r) for r in table.group.op_table]
        op[n - 1][n - 1] = (op[n - 1][n - 1] + 1) % n
        bad = with_table(loaded, (0, t), ElementaryGroupTable(
            table.anchor, table.positions, table.elements,
            FiniteGroup(op, name=table.group.name, _validated=True)))
        new = failure(recover_original, bad, ctx)
        assert new[0] == "raise"
        same_failure(new, failure(oracles.recover_original, bad, ctx))
        rejected += 1
    assert rejected


def test_recovery_tests_a_swapped_in_table_and_names_its_witness(monkeypatch):
    """Identity-row entries swapped at columns no generator's slice reaches
    (the element x generator pairs never read them) in a table at an
    anchor the context has built: recovery compares that table and is
    rejected with the witness of the all-pairs loop."""
    system = parse_system("system T\nwindow 0 3\nrule conv Z2 x0 x1+x2\n")
    ctx = build_context(system)
    es = extract_elementary_system(ctx)
    calls = compared_tables(monkeypatch)
    rejected = 0
    for t in system.times():
        table = es.tables[(0, t)]
        take = [ctx.slot_pos[p] for p in table.positions]
        gen_slices = {table._index[tuple(ctx.tensors[s][i] for i in take)]
                      for s in ctx.generating_set}
        free = [c for c in range(1, table.group.order) if c not in gen_slices]
        if len(free) < 2:
            continue
        op = [list(r) for r in table.group.op_table]
        op[0][free[0]], op[0][free[1]] = op[0][free[1]], op[0][free[0]]
        group = FiniteGroup(op, name=table.group.name, _validated=True)
        bad = with_table(es, (0, t), ElementaryGroupTable(
            table.anchor, table.positions, table.elements, group))
        del calls[:]
        new = failure(recover_original, bad, ctx)
        assert calls == [bad.tables[(0, t)]]
        assert new[0] == "raise"
        same_failure(new, failure(oracles.recover_original, bad, ctx))
        rejected += 1
    assert rejected


FIXTURE_GROUPS = [cyclic_group(n) for n in (1, 2, 3, 4)] + [
    symmetric_group_3(), direct_product(cyclic_group(2), cyclic_group(2))[0]]


def test_direct_product_matches_the_entrywise_form(request):
    """Tables and projections of every pair of fixture groups, the fixture
    systems' alphabets included."""
    groups = FIXTURE_GROUPS + [g for name in FIXTURES
                               for g in request.getfixturevalue(name).alphabets]
    for g1, g2 in itertools.product(groups, repeat=2):
        new, old = direct_product(g1, g2), oracles.direct_product(g1, g2)
        assert new[0].op_table == old[0].op_table and new[0].name == old[0].name
        for p_new, p_old in zip(new[1:], old[1:]):
            assert p_new.image_of == p_old.image_of


# -- label tensors as tuples -----------------------------------------------------

def malformed_tensors(basis: GeneratorBasis):
    """A tensor one label short and one label long, and per slot a label
    one past the slot's range and a negative label."""
    n = len(basis.slots)
    yield (0,) * (n - 1)
    yield (0,) * (n + 1)
    for i, slot in enumerate(basis.slots):
        for c in (basis.label_count(slot), -1):
            yield (0,) * i + (c,) + (0,) * (n - i - 1)


@pytest.mark.parametrize("name", FIXTURES + ["s3_square"])
def test_malformed_tensors_raise_the_wrapper_errors(request, name):
    """Every entry point that takes a label tensor from a caller rejects a
    malformed one with the error type and message of the old validating
    wrapper (`oracles.TensorR`)."""
    ctx = build_context(request.getfixturevalue(name))
    basis, t0 = ctx.basis, ctx.system.window[0]
    ident = (0,) * len(basis.slots)
    for bad in malformed_tensors(basis):
        want = failure(oracles.TensorR, basis, bad)
        assert want[:2] == ("raise", OutOfWindow)
        calls = [(encode_time_domain, basis, bad),
                 (encode_spectral_domain, basis, bad),
                 (alphabet_matrix, basis, bad, t0),
                 (star, ctx, bad, ident), (star, ctx, ident, bad),
                 (triangle, ctx, bad, 0, t0)]
        if len(bad) == len(basis.slots):  # as items: the one label set
            items = {slot: c for slot, c in zip(basis.slots, bad) if c}
            calls.append((tensor_from_items, basis, items))
        for fn, *args in calls:
            assert failure(fn, *args) == want


@pytest.mark.parametrize("name", FIXTURES + ["s3_square"])
def test_tensors_decode_to_context_rows_and_encode_to_members(request, name):
    """Each member decodes to its row of `ctx.tensors`; every tensor the
    enumerator lists is accepted by the wrapper and encodes to a member,
    and together they encode to the member set, each member once."""
    system = request.getfixturevalue(name)
    ctx = build_context(system)
    basis = ctx.basis
    assert basis.tensors is ctx.tensors
    for i, seq in enumerate(system.sequences):
        assert decode_to_tensor(basis, seq) == ctx.tensors[i]
        assert oracles.decode_to_tensor(basis, seq) == ctx.tensors[i]
    tensors = list(all_tensors(map(basis.label_count, basis.slots)))
    for r in tensors:
        assert oracles.TensorR(basis, r).choice == r
    members = [encode_time_domain(basis, r) for r in tensors]
    assert sorted(members) == list(system.sequences)


# -- quotients: one induced table, one nested quotient ------------------------------

def all_subgroups(g: FiniteGroup) -> list:
    """Every subgroup of g, sorted by members: each is reached from the
    trivial one by adding its elements one at a time."""
    found, frontier = {}, [subgroup_closure(g, ())]
    while frontier:
        h = frontier.pop()
        if h.members not in found:
            found[h.members] = h
            frontier.extend(subgroup_closure(g, h.members + (a,))
                            for a in g.elements() if a not in h)
    return [found[m] for m in sorted(found)]


def quotient_key(qp) -> tuple:
    return (qp.parent.op_table, qp.normal_subgroup.members, qp.cosets,
            qp.representatives, qp.quotient.op_table, qp.quotient.name,
            qp.projection.image_of)


def relabeled_s3() -> list:
    """The S3 table with labels 0 and 3 swapped, so that its identity
    sits at index 3."""
    perm = [3, 1, 2, 0, 4, 5]
    op = symmetric_group_3().op_table
    return [[perm[op[perm[a]][perm[b]]] for b in range(6)] for a in range(6)]


def quotient_groups() -> list:
    z2 = cyclic_group(2)
    return [cyclic_group(4), cyclic_group(8), direct_product(z2, z2)[0],
            symmetric_group_3(), direct_product(z2, symmetric_group_3())[0],
            make_group(relabeled_s3(), "S3'")]


def test_make_group_relabels_as_before():
    table = relabeled_s3()
    assert table[3][3] == 3 and table[0][0] != 0
    new, old = make_group(table, "S3'"), oracles.make_group(table, "S3'")
    assert new.op_table == old.op_table and new.name == old.name
    for g in quotient_groups():
        assert make_group(g.op_table).op_table == oracles.make_group(g.op_table).op_table


def test_quotients_and_subgroup_tables_match_the_earlier_builds():
    """For every subgroup, normal or not, of each group: the cosets,
    representatives, table and projection of the quotient, or the error
    type and message; and the subgroup's own table and embedding."""
    normal_seen = not_normal_seen = 0
    for g in quotient_groups():
        for h in all_subgroups(g):
            new, old = failure(quotient, g, h), failure(oracles.quotient, g, h)
            same_failure(new, old, quotient_key)
            normal_seen += new[0] == "ok"
            not_normal_seen += new[0] == "raise"
            group, embed = h.as_group("K")
            old_group, old_embed = oracles.as_group(h, "K")
            assert (group.op_table, group.name, embed) == \
                (old_group.op_table, old_group.name, old_embed)
            for inner in all_subgroups(g):
                if inner.member_set() <= h.member_set():
                    qp = failure(lambda: h.quotient_by(inner.members, "K")[0])
                    want = failure(lambda: oracles.quotient(old_group, Subgroup(
                        old_group, tuple(map(embed.index, inner.members)))))
                    same_failure(qp, want, quotient_key)
    assert normal_seen and not_normal_seen


def zassenhaus_key(hom) -> tuple:
    return hom.domain.op_table, hom.codomain.op_table, hom.image_of


@pytest.mark.parametrize("group", [cyclic_group(8), symmetric_group_3()],
                         ids=["Z8", "S3"])
def test_zassenhaus_map_matches_the_earlier_build(group):
    """Every (U, U*, V, V*) with U <= U* and V <= V*: the same map, or the
    same error type and message."""
    subs = all_subgroups(group)
    nested = [(a, b) for a in subs for b in subs if a.member_set() <= b.member_set()]
    outcomes = set()
    for (u, ustar), (v, vstar) in itertools.product(nested, repeat=2):
        new = failure(zassenhaus_hom, group, u, ustar, v, vstar)
        same_failure(new, failure(oracles.zassenhaus_hom, group, u, ustar, v, vstar),
                     zassenhaus_key)
        outcomes.add(new[0] if new[0] == "ok" else new[2])
    assert "ok" in outcomes
    if group.order == 6:
        assert "U ⊲ U*: not normal" in outcomes and "V ⊲ V*: not normal" in outcomes


NORMALITY_GROUPS = {
    "Z4": cyclic_group(4), "Z6": cyclic_group(6), "Z8": cyclic_group(8),
    "S3": GROUPS["S3"], "Z2xZ4": direct_product(GROUPS["Z2"], cyclic_group(4))[0],
    "S3xS3": direct_product(GROUPS["S3"], GROUPS["S3"])[0]}


def normality_verdict(g: FiniteGroup, h: Subgroup) -> bool:
    """The verdict on generators, checked against the exhaustive oracle;
    the generators the closure check kept must generate h."""
    assert subgroup_closure(g, h.generators).members == h.members
    verdict = is_normal(g, h)
    assert verdict == oracles.is_normal(g, h), h.members
    return verdict


@pytest.mark.parametrize("name", sorted(NORMALITY_GROUPS))
def test_is_normal_matches_the_exhaustive_oracle_on_every_subgroup(name):
    """Every subgroup of each group.  The abelian ones have only normal
    subgroups; S3's order-2 subgroups and the diagonal of S3 x S3 are not
    normal, and S3's quotients by them raise NotNormal."""
    g = NORMALITY_GROUPS[name]
    subgroups = all_subgroups(g)
    verdicts = {h.members: normality_verdict(g, h) for h in subgroups}
    assert all(verdicts.values()) == g.is_abelian
    if name == "S3":
        order2 = [h for h in subgroups if h.order == 2]
        assert len(order2) == 3
        for h in order2:
            assert not verdicts[h.members]
            with pytest.raises(NotNormal):
                quotient(g, h)
    if name == "S3xS3":
        diagonal = tuple(a * 6 + a for a in range(6))
        assert not verdicts[diagonal]


@pytest.mark.parametrize("name", FIXTURES + ["s3_square"])
def test_is_normal_matches_the_exhaustive_oracle_on_chain_subgroups(request, name):
    """Every lower elementary group, the support subgroup of every set of
    slots that gives one (every walk prefix among them), and the tooth
    subgroup of each such set's purged paired sequence."""
    ctx = build_context(request.getfixturevalue(name))
    window, ell = ctx.system.window, ctx.ell
    group = ctx.system.sequence_group
    slots = window_slots(window, ell)
    subgroups = [lower_elementary_group(ctx, *slot) for slot in slots]
    for mask in range(2 ** len(slots)):
        chosen = [s for j, s in enumerate(slots) if mask >> j & 1]
        try:
            subgroups.append(support_subgroup(ctx, frozenset(chosen)))
        except NotASubgroup:
            continue
        subgroups.append(normal_subgroup_from_ps(ctx, purge(window, ell, chosen)))
    verdicts = [normality_verdict(group, h) for h in subgroups]
    assert verdicts and all(verdicts)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(NORMALITY_GROUPS)), st.data())
def test_is_normal_matches_the_exhaustive_oracle_on_drawn_subgroups(name, data):
    g = NORMALITY_GROUPS[name]
    seeds = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    normality_verdict(g, subgroup_closure(g, seeds))


@pytest.mark.parametrize("name", FIXTURES + ["s3_square"])
def test_granules_match_the_earlier_quotient_of_member_sets(request, name):
    system = request.getfixturevalue(name)
    support = system.finite_support_indices
    t0, t1 = system.window
    for i in range(t0, t1 + 1):
        xi1 = support(i + 1, t1)
        for m in range(-1, t1 - i + 1):
            for qp, num, den in (
                    (time_granule(system, i, m),
                     _normal_product(system, xi1, support(i, i + m)),
                     _normal_product(system, xi1, support(i, i + m - 1))),
                    (spectral_granule(system, i, m), support(i, i + m),
                     _normal_product(system, support(i, i + m - 1),
                                     support(i + 1, i + m)))):
                old = oracles.quotient_of_member_sets(system, num, den)
                assert quotient_key(qp) == quotient_key(old)


@pytest.mark.parametrize("name", FIXTURES + ["s3_square"])
def test_tooth_subgroups_are_the_identity_on_the_complement(request, name):
    """Every purged paired sequence: its tooth subgroup is the set of
    tensors that are the identity on the complementary upper teeth, the
    description `normal_subgroup_from_ps` no longer compares."""
    ctx = build_context(request.getfixturevalue(name))
    window, ell = ctx.system.window, ctx.ell
    slots = window_slots(window, ell)
    seen = set()
    for mask in range(2 ** len(slots)):
        ps = purge(window, ell, [s for j, s in enumerate(slots) if mask >> j & 1])
        if ps.pairs in seen:
            continue
        seen.add(ps.pairs)
        upper = complementary(ps).covered()
        identity_on_upper = tuple(i for i, lab in enumerate(ctx.tensors)
                                  if not upper & set(ctx.support(lab)))
        assert normal_subgroup_from_ps(ctx, ps).members == identity_on_upper
    assert len(seen) > 1 or len(slots) < 2


# -- the irredundant generating set ---------------------------------------------

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
DATA_FILES = ("s3_rep.gsys", "z2k_w4_l2.gsys", "twisted_w5_l2.gsys")
WITNESS = re.compile(r"slice (\(.*?\)) times generator (\(.*?\)) on the (right|left)$")


def named_system(request, name: str) -> GroupSystem:
    """A fixture, or a file of `perfbench/data` by its file name."""
    if name.endswith(".gsys"):
        return parse_system((DATA / name).read_text())
    return request.getfixturevalue(name)


def assert_generating_set_agrees(ctx: GeneratorContext) -> None:
    """The kept S against the full one: the identity first, a subsequence,
    exactly the entries outside the closure of those before them, the
    whole member group, the same tables and recovery, and one Cayley side
    exactly when the system is abelian."""
    system, kept = ctx.system, ctx.generating_set
    full = oracles.full_generating_set(ctx)
    assert kept[0] == full[0] == system.index_of(system.identity)
    rest = iter(full)
    assert all(j in rest for j in kept)
    seqs = system.sequences
    closure = {system.identity}
    taken = close_greedily(closure, [seqs[j] for j in full[1:]], system.mul,
                           lambda *args: None)
    assert taken == [seqs[j] for j in kept[1:]]
    assert len(closure) == len(system)
    abelian = all(g.is_abelian for g in system.alphabets)  # realized projections
    assert (ctx.left_cayley is ctx.right_cayley) == abelian
    for right in (True, False):
        graph = ctx.right_cayley if right else ctx.left_cayley
        assert tuple(zip(*graph)) == oracles.cayley(ctx, right)
    wide = oracles.with_full_generating_set(ctx)
    es, wide_es = extract_elementary_system(ctx), extract_elementary_system(wide)
    es.verify()
    for anchor in ctx.slots:
        table = es.tables[anchor]
        assert table_key(table) == table_key(wide_es.tables[anchor])
        assert make_group(table.group.op_table).op_table == table.group.op_table
    assert_same(outcome(recover_original, es, ctx),
                outcome(recover_original, wide_es, wide), system_key)


@pytest.mark.parametrize("name", FIXTURES + ["s3_square"] + list(DATA_FILES))
def test_generating_set_matches_the_full_one(request, name):
    assert_generating_set_agrees(build_context(named_system(request, name)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(TAP_GROUPS), st.integers(2, 5),
       st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                min_size=2, max_size=2))
def test_generating_set_matches_the_full_one_on_tap_rules(group, length, outputs):
    taps = " ".join("+".join(f"x{d}" for d in delays) for delays in outputs)
    system = parse_system(f"system T\nwindow 0 {length - 1}\nrule conv {group} {taps}\n")
    try:
        ctx = build_context(system)
    except ToolkitError:
        return  # no generator basis, so no generating set
    assert_generating_set_agrees(ctx)


@pytest.mark.parametrize("name", ["r2", "c2", "parity3", "trivial_sys", "s3_rep",
                                  "s3_square", "z2k_w4_l2.gsys", "twisted_w5_l2.gsys"])
def test_left_cayley_is_the_right_one_exactly_on_abelian_systems(request, name):
    ctx = build_context(named_system(request, name))
    abelian = name in ("r2", "c2", "parity3", "trivial_sys")
    assert (ctx.left_cayley is ctx.right_cayley) == abelian
    assert tuple(zip(*ctx.left_cayley)) == oracles.cayley(ctx, right=False)


def assert_witness_splits_a_class(ctx: GeneratorContext, anchor, message: str) -> None:
    """The slice and generator a WellDefinednessFailure names: that
    generator, on that side, carries the members with that slice into more
    than one slice class."""
    found = WITNESS.search(message)
    assert found, message
    slice_, gen = ast.literal_eval(found[1]), ast.literal_eval(found[2])
    s = ctx.tensor_index[gen]
    assert s in ctx.generating_set
    system = ctx.system
    take = [ctx.slot_pos[p] for p in
            upper_triangle_positions(system.window, ctx.ell, *anchor)]
    images = set()
    for i, seq in enumerate(system.sequences):
        if tuple(ctx.tensors[i][p] for p in take) == slice_:
            prod = (system.mul(seq, system.sequences[s]) if found[3] == "right"
                    else system.mul(system.sequences[s], seq))
            lab = ctx.tensors[system.index_of(prod)]
            images.add(tuple(lab[p] for p in take))
    assert len(images) > 1


def s3_square_depth_one() -> GroupSystem:
    """S3 x S3 as (a, (a, b), b) on [0, 2]: depth 1, with the first factor
    labelling slot (1, 0) and the second slot (1, 1)."""
    s3 = GROUPS["S3"]
    pair = direct_product(s3, s3)[0]
    flip = next(a for a in s3.elements() if s3.element_order(a) == 2)
    rot = next(a for a in s3.elements() if s3.element_order(a) == 3)
    seeds = ([(a, a * s3.order, 0) for a in (flip, rot)]
             + [(0, b, b) for b in (flip, rot)])
    return build_system((0, 2), [s3, pair, s3], seeds, name="S3xS3w3")


def test_nested_elementary_group_needs_both_sides():
    """The depth-1 form of `test_elementary_group_needs_both_sides`: slot
    (1, 1) names the right coset of the diagonal and slot (1, 0) the first
    factor.  E(0, 1) is then discrete, a congruence, so E(1, 1) is
    certified on it (`_nested_slice_group`); its partition, the right
    cosets of a subgroup that is not normal, is right invariant only, and
    only the left side rejects it, on P and then on the members."""
    system = s3_square_depth_one()
    ctx = build_context(system)
    assert ctx.ell == 1 and ctx.left_cayley is not ctx.right_cayley
    diagonal = [seq for seq in system.sequences if seq[0] == seq[-1]]
    cosets = sorted({frozenset(system.mul(d, a) for d in diagonal)
                     for a in system.sequences}, key=min)
    coset_of = {a: i for i, c in enumerate(cosets) for a in c}
    tensors = []
    for a in system.sequences:
        lab = [0] * len(ctx.slots)
        lab[ctx.slot_pos[(1, 1)]], lab[ctx.slot_pos[(1, 0)]] = coset_of[a], a[0]
        tensors.append(tuple(lab))
    bad = with_tensors(ctx, tensors)
    assert len(set(bad.tensors)) == len(system)
    assert elementary_group(bad, 0, 1).group.order == len(system)
    with pytest.raises(WellDefinednessFailure) as info:
        elementary_group(bad, 1, 1)
    assert str(info.value).endswith("on the left")
    assert_witness_splits_a_class(bad, (1, 1), str(info.value))
    for fn, ctx_ in ((elementary_group, oracles.with_full_generating_set(bad)),
                     (oracles.elementary_group, bad)):
        assert outcome(fn, ctx_, 1, 1) == ("raise", WellDefinednessFailure)


@pytest.mark.parametrize("name", ["c2", "s3_square", "depth_one", "z3_taps"])
def test_tampered_contexts_get_the_full_generating_set_verdict(request, name):
    """Two label tensors swapped: every anchor, in slot order, gets the
    verdict type and table that the full S gives, and each named witness
    really splits a class."""
    if name == "depth_one":
        system = s3_square_depth_one()
    elif name == "z3_taps":
        system = parse_system("system T\nwindow 0 2\nrule conv Z3 x0 x0+x1\n")
    else:
        system = request.getfixturevalue(name)
    ctx = build_context(system)
    # on c2 every entry is kept; elsewhere S drops some
    assert ((len(ctx.generating_set) < len(oracles.full_generating_set(ctx)))
            == (name != "c2"))
    rejected = 0
    for i, j in itertools.combinations(range(1, min(len(ctx.tensors), 10)), 2):
        tensors = list(ctx.tensors)
        tensors[i], tensors[j] = tensors[j], tensors[i]
        bad = with_tensors(ctx, tensors)
        wide = oracles.with_full_generating_set(bad)
        for anchor in ctx.slots:
            new = failure(elementary_group, bad, *anchor)
            assert_same(new[:2], outcome(elementary_group, wide, *anchor), table_key)
            if new[0] == "raise" and new[1] is WellDefinednessFailure:
                assert_witness_splits_a_class(bad, anchor, new[2])
                rejected += 1
    assert rejected > 0


# -- certified once, end to end ------------------------------------------------

RULES = {"rule_z2": "system T\nwindow 0 3\nrule conv Z2 x0 x1+x2\n",
         "rule_z3": "system T\nwindow 0 2\nrule conv Z3 x0 x0+x1\n",
         "rule_z4": "system T\nwindow 0 2\nrule conv Z4 x0 x0+x1\n"}
END_TO_END = FIXTURES + ["s3_square", *DATA_FILES, *RULES]


def end_to_end_system(request, name: str) -> GroupSystem:
    """A fixture, a file of `perfbench/data`, or a tap rule of `RULES`."""
    if name in RULES:
        return parse_system(RULES[name])
    return named_system(request, name)


def assert_built_system_valid(system: GroupSystem) -> None:
    """The passes a `_closed` system skips, as the oracle and as the
    unflagged constructor runs them, accept it unchanged."""
    oracles.validate_system(system)
    again = GroupSystem(system.window, system.alphabets, system.sequences)
    assert system_key(again) == system_key(system)


@pytest.mark.parametrize("name", END_TO_END)
def test_built_systems_pass_the_validation_they_skip(request, name):
    """Letter range, inverses, closure and realized letters hold on every
    `build_system` output, from the whole member set, from two members and
    from the members in reverse order."""
    system = end_to_end_system(request, name)
    assert_built_system_valid(system)
    for seeds in (system.sequences, system.sequences[1:3], system.sequences[::-1]):
        assert_built_system_valid(build_system(system.window, system.alphabets, seeds))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seeded_systems())
def test_built_systems_pass_the_validation_they_skip_on_generated_seeds(case):
    new = outcome(build_system, *case)
    if new[0] == "ok":
        assert_built_system_valid(new[1])


@pytest.mark.parametrize("name", END_TO_END)
def test_agreement_pass_finds_nothing_on_the_contexts_own_tables(request, name):
    """Recovery compares no time whose table the context built; the
    earlier agreement pass on element x generator pairs, run at every
    time, finds no deviating pair there."""
    ctx = build_context(end_to_end_system(request, name))
    es = extract_elementary_system(ctx)
    assert all(ctx._elementary[(0, t)] is es.tables[(0, t)]
               for t in ctx.system.times())
    assert oracles.deviating_pairs(es, ctx) == []
    same_failure(failure(recover_original, es, ctx),
                 failure(oracles.recover_original, es, ctx), system_key)


@pytest.mark.parametrize("name", ["s3_rep", "s3_square", "rule_z3", "rule_z4"])
def test_a_swapped_in_table_is_still_compared(request, name):
    """A (0, t) table the context did not build is compared.  A copy of its
    own table is accepted.  The same table with two non-identity elements
    relabeled is still a group, so only the comparison with the context's
    own table can reject it; where the relabel is no automorphism it does,
    naming the pair the all-pairs loop names first.  Since the table is a
    group, the earlier agreement pass on element x generator pairs gives
    the same verdict."""
    ctx = build_context(end_to_end_system(request, name))
    es = extract_elementary_system(ctx)
    rejected = 0
    for t in ctx.system.times():
        table = es.tables[(0, t)]
        copy = ElementaryGroupTable(table.anchor, table.positions, table.elements,
                                    table.group.renamed(table.group.name))
        assert outcome(recover_original, with_table(es, (0, t), copy), ctx)[0] == "ok"
        op, n = table.group.op_table, table.group.order
        for c1, c2 in itertools.islice(itertools.combinations(range(1, n), 2), 30):
            perm = list(range(n))
            perm[c1], perm[c2] = c2, c1
            relabeled = FiniteGroup([[perm[op[perm[x]][perm[y]]] for y in range(n)]
                                     for x in range(n)], name=table.group.name)
            bad = with_table(es, (0, t), ElementaryGroupTable(
                table.anchor, table.positions, table.elements, relabeled))
            new = failure(recover_original, bad, ctx)
            same_failure(new, failure(oracles.recover_original, bad, ctx),
                         system_key)
            assert (new[0] == "raise") == bool(oracles.deviating_pairs(bad, ctx))
            rejected += new[0] == "raise"
    assert rejected > 0


@pytest.mark.parametrize("name", END_TO_END + ["twisted_w5_l2.esys", "construct"])
def test_dump_formats_each_table_once_and_writes_the_same_bytes(request, name,
                                                                monkeypatch):
    """The dump equals the one that formats every block anew, and formats
    each distinct table and triangle list once."""
    if name == "twisted_w5_l2.esys":
        es = parse_elementary_system((DATA / name).read_text())
    elif name == "construct":
        es = construct_elementary_system((0, 5), 3, cyclic_group(2),
                                         ConstructionStrategy({2: cyclic_group(2)}))
    else:
        es = extract_elementary_system(build_context(end_to_end_system(request, name)))
    assert dump_elementary_system(es) == oracles.dump_elementary_system(es)
    formatted = []
    lines = io_module._lines
    monkeypatch.setattr(io_module, "_lines",
                        lambda rows, prefix="": formatted.append(rows) or lines(rows, prefix))
    dump_elementary_system(es)
    tables = list(es.tables.values())
    assert len(formatted) == (len({t.group.op_table for t in tables})
                              + len({t.elements for t in tables}))
