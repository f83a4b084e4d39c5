"""The census: every group system on four small windows, run through the
whole pipeline.

On a finite window a group system is a subgroup of G^L, so the systems
over one alphabet G on one window are the subgroups of G^L.  They are
listed here from the trivial subgroup up, each as the generators it was
closed from, and each is built with `build_system` and must pass:
extraction and recovery, a reload of its dump, the global system of the
reloaded elementary system with every pass of the system check and with
a re-extraction that the roundtrip certificate carries label by label, as
the oracle's label search also finds, a normal chain along `time_rev`
and its reconstruction, the generator basis of the all-pairs oracle, and
both encoders on every member.  The oracle basis runs
`oracles.check_granule`, pair loop included, on transversals asserted
equal to the library's, so those pass the test that `_check_granule` no
longer makes.  The subgroup counts are the expected values, so a change
in any verdict shows."""

import itertools

import pytest

import oracles
from groupsystems.chains import normal_chain, reconstruct_from_chain, standard_filling
from groupsystems.elementary import (
    extract_elementary_system,
    global_group_system,
    recover_original,
    roundtrip_label_maps,
)
from groupsystems.generators import build_context
from groupsystems.groups import cyclic_group, direct_product, symmetric_group_3
from groupsystems.io import dump_elementary_system, parse_elementary_system
from groupsystems.systems import (
    build_system,
    decode_to_tensor,
    encode_spectral_domain,
    encode_time_domain,
)

Z2 = cyclic_group(2)
CENSUS = {
    # alphabet, window: number of subgroups of G^L
    ("Z2", (0, 4)): (Z2, 374),                             # subspaces of F2^5
    ("Z2xZ2", (0, 2)): (direct_product(Z2, Z2)[0], 2825),  # subspaces of F2^6
    ("S3", (0, 1)): (symmetric_group_3(), 60),
    ("S3", (0, 2)): (symmetric_group_3(), 904),
}


def subgroup_generators(group, length):
    """Generators of every subgroup of group^length, one tuple of
    sequences per subgroup, the trivial subgroup (no generators) first.

    Every subgroup is <H, e> for a smaller subgroup H, so the subgroups
    are reached from the trivial one by adding one element at a time.
    From H an element e is skipped when it lies in a left coset e' H of an
    e' already tried from H, since <H, e' h> = <H, e'>.  A closure <H, e>
    is grown over right cosets of H: H r s = H (r s) for each generator s,
    so a new coset costs |H| products and an old one a lookup."""
    elements = list(itertools.product(range(group.order), repeat=length))
    index = {seq: i for i, seq in enumerate(elements)}
    op = group.op_table
    mul = [[index[tuple(op[x][y] for x, y in zip(a, b))] for b in elements]
           for a in elements]
    found = {frozenset([0]): ()}
    queue = [(frozenset([0]), ())]
    for members, gens in queue:
        tried = set(members)
        for e in range(len(elements)):
            if e in tried:
                continue
            tried.update(mul[e][h] for h in members)
            new_gens = gens + (e,)
            closure, reps = set(members), [0]
            for r in reps:
                for s in new_gens:
                    x = mul[r][s]
                    if x not in closure:
                        closure.update(mul[h][x] for h in members)
                        reps.append(x)
            closure = frozenset(closure)
            if closure not in found:
                found[closure] = new_gens
                queue.append((closure, new_gens))
    return [tuple(map(elements.__getitem__, gens)) for gens in found.values()]


def basis_key(basis):
    return basis.ell, basis.slots, basis.transversals, basis.tensors


def check_system(system) -> None:
    ctx = build_context(system)
    basis = ctx.basis
    assert basis_key(basis) == basis_key(oracles.extract_basis(system))
    for seq in system.sequences:
        tensor = decode_to_tensor(basis, seq)
        assert encode_time_domain(basis, tensor) == seq
        assert encode_spectral_domain(basis, tensor) == seq
    es = extract_elementary_system(ctx)
    assert recover_original(es, ctx).sequences == system.sequences
    reloaded = parse_elementary_system(dump_elementary_system(es))
    assert recover_original(reloaded, ctx).sequences == system.sequences
    global_system = global_group_system(reloaded)
    oracles.validate_system(global_system)
    image = build_context(global_system)
    assert len(image.system) == len(system)
    maps = roundtrip_label_maps(es, image)
    re_es = extract_elementary_system(image)
    assert maps is not None and oracles.carries(es, re_es, maps)
    assert oracles.structurally_equal(es, re_es) is not None
    chain = normal_chain(ctx, standard_filling(system.window, ctx.ell, "time_rev"))
    assert reconstruct_from_chain(ctx, chain).sequences == system.sequences


@pytest.mark.parametrize("case", sorted(CENSUS), ids=lambda c: f"{c[0]}-{c[1][0]}-{c[1][1]}")
def test_every_subgroup_system_passes_the_pipeline(case):
    (_, window), (group, expected) = case, CENSUS[case]
    length = window[1] - window[0] + 1
    generator_sets = subgroup_generators(group, length)
    assert len(generator_sets) == expected
    for i, gens in enumerate(generator_sets):
        check_system(build_system(window, [group] * length, gens, name=f"H{i}"))
