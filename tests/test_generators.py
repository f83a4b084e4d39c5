import dataclasses
import itertools
import random
import re

import pytest

import oracles
from groupsystems.elementary import extract_elementary_system, global_product
from groupsystems.errors import DomainError, ShapeMismatch, UnrealizedTriangle
from groupsystems.generators import (
    GeneratorContext,
    alpha_t,
    alpha_t_hom,
    build_context,
    elementary_group,
    lower_elementary_group,
    nested_anchors,
    nested_hom,
    recover_system_fhgs,
    slice_classes,
    star,
    triangle,
    triangle_projection,
    u_minus_subgroup,
    u_plus_subgroup,
)
from groupsystems.groups import (Homomorphism, Subgroup, is_normal,
                                 product_of_subgroups, quotient)
from groupsystems.io import parse_system
from groupsystems.systems import all_tensors, extract_basis, tensor_from_items


@pytest.fixture(scope="module")
def ctx_r2(r2):
    return build_context(r2)


@pytest.fixture(scope="module")
def ctx_c2(c2):
    return build_context(c2)


@pytest.fixture(scope="module")
def ctx_s3(s3_rep):
    return build_context(s3_rep)


def test_star_identity_and_involution(ctx_r2):
    basis = ctx_r2.basis
    ident = (0,) * len(basis.slots)
    nontriv = tensor_from_items(basis, {(1, 0): 1})
    assert star(ctx_r2, nontriv, ident) == nontriv
    # 11 * 11 = 00
    assert star(ctx_r2, nontriv, nontriv) == ident


def test_star_associative_exhaustive(ctx_r2, ctx_c2):
    for ctx in (ctx_r2, ctx_c2):
        tensors = list(all_tensors(map(ctx.basis.label_count, ctx.slots)))
        if len(tensors) > 8:
            tensors = tensors[:8]
        for a, b, c in itertools.product(tensors, repeat=3):
            lhs = star(ctx, star(ctx, a, b), c)
            rhs = star(ctx, a, star(ctx, b, c))
            assert lhs == rhs


def test_u_group_is_a_group(ctx_r2, ctx_c2, ctx_s3):
    for ctx in (ctx_r2, ctx_c2, ctx_s3):
        group = oracles.sequence_group(ctx.system)
        assert group.order == len(ctx.system)
        # table validated exhaustively (axioms checked on construction)
        from groupsystems.groups import FiniteGroup
        FiniteGroup(group.op_table, name="check")


def test_member_subgroups_are_index_tuples_on_the_members(c2, s3_rep):
    """Lower elementary groups and slice classes read member indices, so
    they mix with the system's subgroup views on the member table."""
    for system in (c2, s3_rep):
        ctx = build_context(system)
        group = oracles.sequence_group(system)
        for (k, t) in ctx.slots:
            members = lower_elementary_group(ctx, k, t)
            assert members == oracles.lower_elementary_group(ctx, k, t).members
            sub = Subgroup(group, members)
            assert is_normal(group, sub)
            assert quotient(group, sub).quotient.order * len(members) == group.order
        for t in system.times():
            assert len(slice_classes(ctx, 0, t)) == group.order


def test_triangle_shapes(ctx_c2):
    u = (0,) * len(ctx_c2.slots)
    tri = triangle(ctx_c2, u, 0, 1)
    assert elementary_group(ctx_c2, 0, 1).positions == ((1, 1), (1, 0), (0, 1))
    assert tri == (0, 0, 0)
    top = triangle(ctx_c2, u, 1, 1)
    assert elementary_group(ctx_c2, 1, 1).positions == ((1, 1),)
    assert top == (0,)
    # each label is read at its position of the triangle
    for lab in ctx_c2.tensors:
        assert triangle(ctx_c2, lab, 0, 1) == tuple(
            lab[ctx_c2.slot_pos[p]] for p in ((1, 1), (1, 0), (0, 1)))


def test_elementary_groups_c2(ctx_c2):
    # interior anchors carry two independent span-2 labels: order 4
    for t in (1, 2):
        elem = elementary_group(ctx_c2, 0, t)
        assert elem.group.order == 4
    assert elementary_group(ctx_c2, 0, 0).group.order == 2
    assert elementary_group(ctx_c2, 0, 3).group.order == 4  # clipped tail slot


def test_elementary_groups_r2(ctx_r2):
    assert elementary_group(ctx_r2, 0, 0).group.order == 2
    assert elementary_group(ctx_r2, 1, 0).group.order == 2


def test_elementary_group_trivial_system(trivial_sys):
    ctx = build_context(trivial_sys)
    for (k, t) in ctx.slots:
        assert elementary_group(ctx, k, t).group.order == 1


def test_slice_classes_are_a_surjection_with_one_sided_kernel(ctx_r2, ctx_c2):
    """The slice classes at (0, t) are a homomorphism of the member group
    onto E(0, t) whose kernel is the product of the images of X^{t+1} and
    Y^{t-1}."""
    for ctx in (ctx_r2, ctx_c2):
        group = oracles.sequence_group(ctx.system)
        for t in ctx.system.times():
            hom = Homomorphism(group, elementary_group(ctx, 0, t).group,
                               slice_classes(ctx, 0, t))
            assert hom.is_surjective()
            prod = product_of_subgroups(
                group,
                Subgroup(group, u_plus_subgroup(ctx, t + 1)),
                Subgroup(group, u_minus_subgroup(ctx, t - 1)))
            assert hom.kernel().members == prod.members


def test_alpha_t_homomorphism_and_surjectivity(ctx_r2, ctx_c2, ctx_s3):
    for ctx in (ctx_r2, ctx_c2, ctx_s3):
        for t in ctx.system.times():
            alpha_t_hom(ctx, t)  # raises if not a surjective homomorphism


def test_alpha_t_r2_values(ctx_r2):
    comp = elementary_group(ctx_r2, 0, 0)
    letters = sorted(alpha_t(ctx_r2, tri, 0) for tri in comp.elements)
    assert letters == [0, 1]


def test_alpha_t_rejects_wrong_anchor(ctx_c2):
    tri = triangle(ctx_c2, (0,) * len(ctx_c2.slots), 1, 1)
    with pytest.raises(ShapeMismatch):
        alpha_t(ctx_c2, tri, 1)


def test_nested_homomorphisms_all_anchors(ctx_r2, ctx_c2):
    for ctx in (ctx_r2, ctx_c2):
        for (k, t) in ctx.slots:
            for dst in nested_anchors(ctx, k, t):
                hom = triangle_projection(ctx, (k, t), dst)
                assert hom.is_surjective()


def test_nested_hom_identity_at_j_equals_k(ctx_c2):
    hom = nested_hom(ctx_c2, 0, 1, 0)
    assert hom.image_of == tuple(range(hom.domain.order))


def test_nested_hom_left_edge(ctx_c2):
    hom = nested_hom(ctx_c2, 0, 2, 1)  # target anchor (1, 1)
    assert hom.codomain.order == elementary_group(ctx_c2, 1, 1).group.order
    with pytest.raises(ShapeMismatch):
        nested_hom(ctx_c2, 1, 1, 0)


def test_multiply_via_elementary_r2_full(ctx_r2):
    """The slice-multiply-stitch product through the local tables only."""
    es = extract_elementary_system(ctx_r2)
    for lab1 in ctx_r2.tensors:
        for lab2 in ctx_r2.tensors:
            assert global_product(es, lab1, lab2) == \
                star(ctx_r2, lab1, lab2)


def test_multiply_via_elementary_c2_sampled(ctx_c2):
    es = extract_elementary_system(ctx_c2)
    rng = random.Random(0)
    pairs = [(rng.choice(ctx_c2.tensors), rng.choice(ctx_c2.tensors))
             for _ in range(100)]
    for lab1, lab2 in pairs:
        assert global_product(es, lab1, lab2) == \
            star(ctx_c2, lab1, lab2)


def test_lower_elementary_groups(ctx_r2, ctx_c2):
    group = oracles.sequence_group(ctx_r2.system)
    sub = lower_elementary_group(ctx_r2, 1, 0)
    assert len(sub) == 2
    assert is_normal(group, Subgroup(group, sub))
    group = oracles.sequence_group(ctx_c2.system)
    for (k, t) in ctx_c2.slots:
        sub = lower_elementary_group(ctx_c2, k, t)
        assert is_normal(group, Subgroup(group, sub))


def test_lower_elementary_whole_group_blockcode(parity3):
    ctx = build_context(parity3)
    t0, t1 = parity3.window
    sub = lower_elementary_group(ctx, ctx.ell, t0)
    # the only members NOT in A^[0, ell] are those using later slots
    assert len(sub) == len(parity3.finite_support_indices(t0, t0 + ctx.ell))


def test_fhgs_recovery(ctx_r2, ctx_c2, ctx_s3, trivial_sys):
    for ctx in (ctx_r2, ctx_c2, ctx_s3, build_context(trivial_sys)):
        recovered = recover_system_fhgs(ctx)
        assert recovered.sequences == ctx.system.sequences


def test_unrealized_triangle_raises(ctx_r2):
    elem = elementary_group(ctx_r2, 0, 0)
    fake = tuple(9 for _ in elem.positions)
    with pytest.raises(UnrealizedTriangle):
        elem.index(fake)


@pytest.mark.parametrize("make", [
    lambda c2: parse_system("system C\nwindow 0 3\nrule conv Z2 x0 x0+x1\n"),
    lambda c2: c2,
], ids=["rule", "c2"])
def test_context_rejects_a_basis_whose_entry_0_is_not_the_identity(c2, make):
    """Entries 0 and 1 of one slot's transversal swapped: the context names
    the slot in a DomainError, where the generating set would lose that
    slot's generator; the basis as extracted is accepted."""
    system = make(c2)
    basis = extract_basis(system)
    GeneratorContext(system, basis)
    swaps = [slot for slot in basis.slots if len(basis.transversal(slot)) > 1]
    assert swaps
    for slot in swaps:
        entries = basis.transversal(slot)
        swapped = dict(basis.transversals)
        swapped[slot] = (entries[1], entries[0]) + entries[2:]
        bad = dataclasses.replace(basis, transversals=swapped)
        with pytest.raises(DomainError, match=re.escape(f"at slot {slot} is not")):
            GeneratorContext(system, bad)
