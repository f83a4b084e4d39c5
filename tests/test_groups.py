import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsystems.errors import AxiomViolation, NotNormal
from groupsystems.groups import (
    cyclic_group,
    direct_product,
    find_isomorphism,
    intersect_subgroups,
    is_isomorphic,
    is_normal,
    make_group,
    product_of_subgroups,
    quotient,
    subgroup_closure,
    symmetric_group_3,
    trivial_group,
    trivial_subgroup,
    whole_subgroup,
    zassenhaus_hom,
)


def s3_via_permutations():
    """Oracle: build the S3 table straight from permutation composition."""
    perms = [(0, 1, 2)] + sorted(p for p in itertools.permutations(range(3))
                                 if p != (0, 1, 2))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return table, perms


def test_trivial_group():
    g = make_group([[0]], "triv")
    assert g.order == 1
    assert g.op(0, 0) == 0


def test_z2_from_table():
    g = make_group([[0, 1], [1, 0]], "Z2")
    assert g.order == 2
    assert g.inv(1) == 1
    assert g.is_abelian


def test_s3_from_permutation_oracle():
    table, perms = s3_via_permutations()
    g = make_group(table, "S3")
    assert g.order == 6
    assert not g.is_abelian
    # composition matches the oracle everywhere
    idx = {p: i for i, p in enumerate(perms)}
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            assert g.op(idx[p], idx[q]) == idx[comp]


def test_builtin_s3_matches_oracle():
    table, _ = s3_via_permutations()
    assert is_isomorphic(symmetric_group_3(), make_group(table))


def test_identity_off_zero_is_rejected():
    # Z2 with identity at index 1: a table is read as written, not relabeled
    with pytest.raises(AxiomViolation) as exc:
        make_group([[1, 0], [0, 1]], "Z2swap")
    assert (exc.value.kind, exc.value.witness) == ("identity", 0)


def test_axiom_violations_report_witness():
    with pytest.raises(AxiomViolation) as exc:
        make_group([[0, 1], [1, 2]])
    assert exc.value.kind == "closure"
    with pytest.raises(AxiomViolation):
        make_group([[0, 1], [0, 1]])  # no identity column for 1
    # associativity failure: a latin square that is not a group
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(AxiomViolation) as exc:
        make_group(bad)
    assert exc.value.kind == "associativity"


def test_subgroup_closure_empty_and_z4():
    z2 = cyclic_group(2)
    assert subgroup_closure(z2, ()).members == (0,)
    z4 = cyclic_group(4)
    assert subgroup_closure(z4, (2,)).members == (0, 2)


def test_subgroup_closure_s3_transposition():
    s3 = symmetric_group_3()
    transpositions = [a for a in s3.elements() if s3.element_order(a) == 2]
    sub = subgroup_closure(s3, (transpositions[0],))
    assert sub.order == 2


def test_is_normal_s3():
    s3 = symmetric_group_3()
    order2 = subgroup_closure(s3, ([a for a in s3.elements()
                                    if s3.element_order(a) == 2][0],))
    order3 = subgroup_closure(s3, ([a for a in s3.elements()
                                    if s3.element_order(a) == 3][0],))
    assert not is_normal(s3, order2)
    assert is_normal(s3, order3)
    z4 = cyclic_group(4)
    assert is_normal(z4, subgroup_closure(z4, (2,)))


def test_quotient_z4_and_s3():
    z4 = cyclic_group(4)
    qp = quotient(z4, subgroup_closure(z4, (2,)))
    assert qp.quotient.order == 2
    # hand-check oracle: cosets {0,2} and {1,3}
    assert qp.cosets == ((0, 2), (1, 3))
    assert qp.representatives == (0, 1)

    s3 = symmetric_group_3()
    order3 = subgroup_closure(s3, ([a for a in s3.elements()
                                    if s3.element_order(a) == 3][0],))
    qp3 = quotient(s3, order3)
    assert qp3.quotient.order == 2

    whole = quotient(s3, whole_subgroup(s3))
    assert whole.quotient.order == 1

    with pytest.raises(NotNormal):
        order2 = subgroup_closure(s3, ([a for a in s3.elements()
                                        if s3.element_order(a) == 2][0],))
        quotient(s3, order2)


def test_quotient_lagrange_property():
    for g in (cyclic_group(6), symmetric_group_3(), cyclic_group(8)):
        for seed in g.elements():
            h = subgroup_closure(g, (seed,))
            if is_normal(g, h):
                qp = quotient(g, h)
                assert qp.quotient.order * h.order == g.order
                assert qp.projection.kernel().members == h.members


def test_product_of_subgroups():
    z4 = cyclic_group(4)
    h = subgroup_closure(z4, (2,))
    assert product_of_subgroups(z4, h, trivial_subgroup(z4)).members == h.members
    assert product_of_subgroups(z4, h, h).members == h.members
    v4, _, _ = direct_product(cyclic_group(2), cyclic_group(2))
    h1 = subgroup_closure(v4, (1,))
    h2 = subgroup_closure(v4, (2,))
    prod = product_of_subgroups(v4, h1, h2)
    # exhaustive set-product oracle
    expected = sorted({v4.op(a, b) for a in h1.members for b in h2.members})
    assert list(prod.members) == expected
    assert prod.order == 4


def test_direct_product_shapes():
    g = trivial_group()
    z3 = cyclic_group(3)
    prod, p1, p2 = direct_product(g, z3)
    assert is_isomorphic(prod, z3)
    v4, _, _ = direct_product(cyclic_group(2), cyclic_group(2))
    assert v4.order == 4
    assert all(v4.element_order(a) <= 2 for a in v4.elements())
    z6, _, _ = direct_product(cyclic_group(2), cyclic_group(3))
    assert any(z6.element_order(a) == 6 for a in z6.elements())


def test_zassenhaus_degenerate_cases():
    v4, _, _ = direct_product(cyclic_group(2), cyclic_group(2))
    whole = whole_subgroup(v4)
    triv = trivial_subgroup(v4)
    # U trivial, U*=V*=whole, V trivial: quotient by trivial subgroup
    hom = zassenhaus_hom(v4, triv, whole, triv, whole)
    assert hom.domain.order == 4
    assert hom.is_injective() and hom.is_surjective()


def test_zassenhaus_fully_degenerate():
    # U = U*, V = V*: D collapses to U ∩ V and the induced map is trivial
    s3 = symmetric_group_3()
    u = subgroup_closure(s3, ([a for a in s3.elements()
                               if s3.element_order(a) == 3][0],))
    v = whole_subgroup(s3)
    hom = zassenhaus_hom(s3, u, u, v, v)
    assert hom.domain.order == 1
    assert hom.codomain.order == 1


def test_zassenhaus_z8_chain():
    z8 = cyclic_group(8)
    u = subgroup_closure(z8, (4,))
    ustar = subgroup_closure(z8, (2,))
    v = subgroup_closure(z8, (4,))
    vstar = whole_subgroup(z8)
    hom = zassenhaus_hom(z8, u, ustar, v, vstar)
    assert hom.is_injective() and hom.is_surjective()


def test_find_isomorphism_distinguishes_z4_v4():
    z4 = cyclic_group(4)
    v4, _, _ = direct_product(cyclic_group(2), cyclic_group(2))
    assert find_isomorphism(z4, v4) is None
    assert find_isomorphism(z4, cyclic_group(4)) is not None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=9))
def test_cyclic_subgroup_closure_is_idempotent(n, seed):
    g = cyclic_group(n)
    sub = subgroup_closure(g, (seed % n,))
    again = subgroup_closure(g, sub.members)
    assert again.members == sub.members


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8))
def test_quotient_by_whole_is_trivial(n):
    g = cyclic_group(n)
    qp = quotient(g, whole_subgroup(g))
    assert qp.quotient.order == 1


def test_intersect_subgroups():
    z12 = cyclic_group(12)
    a = subgroup_closure(z12, (2,))
    b = subgroup_closure(z12, (3,))
    both = intersect_subgroups(z12, a, b)
    assert both.members == (0, 6)
