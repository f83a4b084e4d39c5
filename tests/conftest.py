import itertools

import pytest

from groupsystems.generators import GeneratorContext
from groupsystems.groups import cyclic_group, direct_product, symmetric_group_3
from groupsystems.systems import GeneratorBasis, GroupSystem, build_system, window_slots


def make_r2():
    """{00, 11} over Z2 on window [0, 1]."""
    z2 = cyclic_group(2)
    return GroupSystem((0, 1), [z2, z2], [(0, 0), (1, 1)], name="R2")


def make_c2():
    """Rule x -> (x, x + x_prev) over Z2 on window [0, 3]; 16 members.

    Letters live in Z2 x Z2 (lexicographic pair index), inputs range over all
    binary strings with an identity boundary.
    """
    z2 = cyclic_group(2)
    pair, _, _ = direct_product(z2, z2)
    members = []
    for bits in itertools.product((0, 1), repeat=4):
        prev = 0
        seq = []
        for x in bits:
            seq.append(x * 2 + (x ^ prev))
            prev = x
        members.append(tuple(seq))
    # letters at t=0 only realize the diagonal, so alphabets get restricted
    return build_system((0, 3), [pair] * 4, members, name="C2")


def make_s3_rep():
    """Repetition system {(g, g) : g in S3} on window [0, 1]."""
    s3 = symmetric_group_3()
    flip = next(a for a in s3.elements() if s3.element_order(a) == 2)
    rot = next(a for a in s3.elements() if s3.element_order(a) == 3)
    seeds = [(flip, flip), (rot, rot)]
    sys_ = build_system((0, 1), [s3, s3], seeds, name="RS3")
    assert len(sys_) == 6
    return sys_


def make_trivial():
    from groupsystems.groups import trivial_group
    g = trivial_group()
    return GroupSystem((0, 1), [g, g], [(0, 0)], name="T")


def make_parity3():
    """[3,2] binary parity-check code on window [0, 2]."""
    z2 = cyclic_group(2)
    members = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    return GroupSystem((0, 2), [z2] * 3, members, name="P3")


@pytest.fixture(scope="session")
def r2():
    return make_r2()


@pytest.fixture(scope="session")
def c2():
    return make_c2()


@pytest.fixture(scope="session")
def s3_rep():
    return make_s3_rep()


@pytest.fixture(scope="session")
def trivial_sys():
    return make_trivial()


@pytest.fixture(scope="session")
def parity3():
    return make_parity3()


def with_tensors(ctx: GeneratorContext, tensors) -> GeneratorContext:
    """A context over the same system and basis whose member/tensor
    identification is replaced, with empty caches.  A basis derives its
    tensors from its transversals, so a broken identification is made
    here; swapping labels i and j at a slot in every tensor is the basis
    with that slot's entries i and j swapped."""
    bad = GeneratorContext(ctx.system, ctx.basis)
    bad.tensors = tuple(tensors)
    bad.tensor_index = {lab: i for i, lab in enumerate(bad.tensors)}
    return bad


def parity3_context(entries: dict) -> GeneratorContext:
    """A context on the parity code over a given basis of depth 1: each
    slot's transversal is the identity followed by its `entries`, none at
    slots not named.  Entries that span the code with disjoint cosets
    make a basis, granule transversals or not."""
    system = make_parity3()
    transversals = {slot: (system.identity, *entries.get(slot, ()))
                    for slot in window_slots(system.window, 1)}
    return GeneratorContext(system, GeneratorBasis(system, 1, transversals))
