import pytest

import groupsystems.extensions as extensions
from groupsystems.errors import BoundExceeded, NotSurjective
from groupsystems.extensions import enumerate_extensions, fibre_product
from groupsystems.groups import (
    FiniteGroup,
    Homomorphism,
    compose_columns,
    cyclic_group,
    direct_product,
    find_isomorphism,
    is_isomorphic,
    quotient,
    symmetric_group_3,
    trivial_group,
)


def identity_hom(g):
    return Homomorphism(g, g, tuple(range(g.order)), check=False)


def fibre_group(g1, g2, p1, p2):
    """The fibre product of two maps onto one group as (group, pairs), its
    table composed from the generator columns."""
    pairs, columns = fibre_product(g1, g2, p1.codomain, p1.image_of, p2.image_of)
    return FiniteGroup(compose_columns(columns, len(pairs)), _validated=True), pairs


def test_fibre_product_over_trivial_quotient_is_full_product():
    z2 = cyclic_group(2)
    triv = trivial_group()
    p = Homomorphism(z2, triv, (0, 0))
    group, pairs = fibre_group(z2, z2, p, p)
    assert group.order == 4


def test_fibre_product_diagonal():
    z2 = cyclic_group(2)
    group, pairs = fibre_group(z2, z2, identity_hom(z2), identity_hom(z2))
    assert pairs == ((0, 0), (1, 1))


def test_fibre_product_z4_mod2():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    mod2 = Homomorphism(z4, z2, (0, 1, 0, 1))
    group, pairs = fibre_group(z4, z4, mod2, mod2)
    # exhaustive filter oracle
    expected = tuple((a, b) for a in range(4) for b in range(4)
                     if a % 2 == b % 2)
    assert pairs == expected
    assert group.order == 8


def test_fibre_product_rejects_non_surjective():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    collapse = Homomorphism(z4, z2, (0, 0, 0, 0))
    with pytest.raises(NotSurjective):
        fibre_group(z4, z4, collapse, collapse)


def test_extensions_trivial_quotient():
    z3 = cyclic_group(3)
    res = enumerate_extensions(trivial_group(), z3)
    assert len(res.extensions) == 1
    ext, hom = res.extensions[0]
    assert is_isomorphic(ext, z3)
    assert res.complete


def test_extensions_z2_by_z2():
    res = enumerate_extensions(cyclic_group(2), cyclic_group(2))
    names = set()
    for ext, hom in res.extensions:
        assert hom.is_surjective()
        ker, _ = hom.kernel().as_group()
        assert is_isomorphic(ker, cyclic_group(2))
        if find_isomorphism(ext, cyclic_group(4)) is not None:
            names.add("Z4")
        v4, _, _ = direct_product(cyclic_group(2), cyclic_group(2))
        if find_isomorphism(ext, v4) is not None:
            names.add("V4")
    assert names == {"Z4", "V4"}
    assert res.complete


def test_extensions_z2_by_z3_contains_z6_and_s3():
    res = enumerate_extensions(cyclic_group(2), cyclic_group(3))
    found = set()
    for ext, hom in res.extensions:
        if find_isomorphism(ext, symmetric_group_3()) is not None:
            found.add("S3")
        z6, _, _ = direct_product(cyclic_group(2), cyclic_group(3))
        if find_isomorphism(ext, z6) is not None:
            found.add("Z6")
    assert found == {"S3", "Z6"}


def test_extensions_validated_against_quotient():
    res = enumerate_extensions(cyclic_group(2), cyclic_group(2))
    for ext, hom in res.extensions:
        qp = quotient(ext, hom.kernel())
        assert qp.quotient.order == 2


def test_extensions_bound():
    with pytest.raises(BoundExceeded):
        enumerate_extensions(cyclic_group(10), cyclic_group(10), max_order=64)


def test_extensions_nonabelian_kernel_incomplete_flag():
    res = enumerate_extensions(cyclic_group(2), symmetric_group_3(), max_order=12)
    assert not res.complete
    assert any(is_isomorphic(ext, direct_product(cyclic_group(2), symmetric_group_3())[0])
               for ext, _ in res.extensions)


def test_extension_search_propagates_unexpected_errors(monkeypatch):
    """The search drops no candidate table on an error: an error from the
    table builder is a bug and must surface."""
    def broken(table, name="G", **kwargs):
        raise RuntimeError("table builder failed")

    monkeypatch.setattr(extensions, "FiniteGroup", broken)
    with pytest.raises(RuntimeError, match="table builder failed"):
        enumerate_extensions(cyclic_group(2), cyclic_group(2))


def test_search_past_order_64_compares_groups_at_its_own_order():
    """S3 by S3 x S3 has order 216.  The kernel check, the dedup and the
    direct-product check take that order as their isomorphism cap, where
    the default cap of 64 would stop them.  Every automorphism of S3 is
    inner and S3 has a trivial centre, so each semidirect product is the
    direct product, and one extension remains."""
    s3 = symmetric_group_3()
    q, _, _ = direct_product(s3, s3)
    search = enumerate_extensions(q, s3, max_order=216)
    assert [ext.order for ext, _ in search.extensions] == [216]
    assert not search.complete
    ext = search.extensions[0][0]
    with pytest.raises(BoundExceeded, match="order 216 exceeds cap 64"):
        find_isomorphism(ext, ext)
