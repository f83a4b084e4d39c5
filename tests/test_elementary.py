import dataclasses
import re

import pytest

import oracles
from conftest import with_tensors

from groupsystems.elementary import (
    ConstructionStrategy,
    ElementarySystem,
    check_homomorphism_condition,
    construct_elementary_system,
    depth_restrict,
    extract_elementary_system,
    global_group_system,
    global_product,
    nested_targets,
    recover_original,
    roundtrip_label_maps,
)
from groupsystems.errors import (
    DomainError,
    NoExtensionFound,
    OutOfWindow,
    RecoveryMismatch,
    UnrealizedSlice,
    WellDefinednessFailure,
)
from groupsystems.generators import (
    ElementaryGroupTable,
    build_context,
    restriction_images,
    star,
)
from groupsystems.extensions import enumerate_extensions
from groupsystems.groups import (
    FiniteGroup,
    cyclic_group,
    find_isomorphism,
    homomorphism_witness,
    symmetric_group_3,
    trivial_group,
)
from groupsystems.systems import all_tensors, controllability_index


@pytest.fixture(scope="module")
def ctx_r2(r2):
    return build_context(r2)


@pytest.fixture(scope="module")
def ctx_c2(c2):
    return build_context(c2)


@pytest.fixture(scope="module")
def ctx_s3(s3_rep):
    return build_context(s3_rep)


@pytest.fixture(scope="module")
def es_r2(ctx_r2):
    return extract_elementary_system(ctx_r2)


@pytest.fixture(scope="module")
def es_c2(ctx_c2):
    return extract_elementary_system(ctx_c2)


def test_extract_r2(es_r2):
    assert es_r2.depth == 2
    # every anchor's clipped triangle contains the one span-2 label slot
    orders = sorted(t.group.order for t in es_r2.tables.values())
    assert orders == [2, 2, 2]
    assert es_r2.label_sizes == {(0, 1): 1, (0, 0): 1, (1, 0): 2}


def test_extract_c2(es_c2):
    assert es_c2.depth == 2
    assert es_c2.tables[(0, 1)].group.order == 4
    assert es_c2.tables[(0, 2)].group.order == 4


def test_extract_trivial(trivial_sys):
    es = extract_elementary_system(build_context(trivial_sys))
    assert all(t.group.order == 1 for t in es.tables.values())


def test_homomorphism_condition_holds(es_r2, es_c2):
    for es in (es_r2, es_c2):
        ok, witness = check_homomorphism_condition(es)
        assert ok and witness is None


def test_homomorphism_condition_detects_corruption(es_c2):
    anchor = (0, 1)
    old = es_c2.tables[anchor]
    # replace the local law by Z4 on the same triangles: the projection onto
    # the (1,1) slot would need {e0, e1} as a subgroup, which Z4 lacks
    tampered = dict(es_c2.tables)
    tampered[anchor] = ElementaryGroupTable(
        anchor, old.positions, old.elements, cyclic_group(4))
    bad = ElementarySystem(es_c2.name, es_c2.ell, es_c2.window,
                           es_c2.label_sizes, tampered)
    ok, witness = check_homomorphism_condition(bad)
    assert not ok
    assert witness[0] == anchor


def test_homomorphism_condition_checks_every_nested_target(es_c2):
    """E(0,2) replaced by Z4 relabeled (0, 2, 1, 3): label 1 is Z4's
    involution, so the projection onto (1,2), with kernel {0, 1}, is a
    homomorphism, and only the one onto (1,1), the second target, fails."""
    anchor = (0, 2)
    old = es_c2.tables[anchor]
    perm = (0, 2, 1, 3)  # an involution, so it is its own inverse
    z4 = cyclic_group(4).op_table
    relabeled = FiniteGroup([[perm[z4[perm[a]][perm[b]]] for b in range(4)]
                             for a in range(4)], "Z4'")
    tampered = dict(es_c2.tables)
    tampered[anchor] = ElementaryGroupTable(anchor, old.positions, old.elements,
                                            relabeled)
    bad = ElementarySystem(es_c2.name, es_c2.ell, es_c2.window,
                           es_c2.label_sizes, tampered)
    assert nested_targets(bad, anchor) == ((1, 2), (1, 1))
    first = bad.table((1, 2))
    assert homomorphism_witness(relabeled, first.group,
                                restriction_images(bad.table(anchor), first)) is None
    ok, witness = check_homomorphism_condition(bad)
    assert not ok
    assert witness[:2] == (anchor, (1, 1))


def test_construction_rejects_ell_past_the_window():
    """Row ell holds the seed group, and on [0, 3] no row past 3 holds a
    slot: ell 3 builds, ell 4 and 5 name ell and the window."""
    es = construct_elementary_system((0, 3), 3, cyclic_group(2))
    assert es.ell == 3 and len(global_group_system(es)) == 2
    for ell in (4, 5):
        with pytest.raises(OutOfWindow, match=rf"ell {ell} exceeds the window \[0,3\]"):
            construct_elementary_system((0, 3), ell, cyclic_group(2))


def test_homomorphism_condition_vacuous_depth1():
    es = construct_elementary_system((0, 2), 0, cyclic_group(3))
    ok, _ = check_homomorphism_condition(es)
    assert ok  # no nested anchors at depth 1


def test_global_product_identity_and_circ(ctx_r2, es_r2):
    ident = (0,) * len(es_r2.slots())
    for v in all_tensors(map(es_r2.label_sizes.__getitem__, es_r2.slots())):
        assert global_product(es_r2, ident, v) == v
    # exhaustive agreement with the transported operation
    for lab1 in ctx_r2.tensors:
        for lab2 in ctx_r2.tensors:
            assert global_product(es_r2, lab1, lab2) == star(ctx_r2, lab1, lab2)


def test_global_product_unrealized_slice(es_c2):
    bad = tuple(9 for _ in es_c2.slots())
    with pytest.raises(UnrealizedSlice):
        global_product(es_c2, bad, bad)


def test_global_group_system_roundtrip_r2(ctx_r2, es_r2):
    system = global_group_system(es_r2)
    assert len(system) == len(ctx_r2.system)
    assert controllability_index(system) == ctx_r2.ell
    assert roundtrip_label_maps(es_r2, build_context(system)) is not None


def test_global_group_system_roundtrip_c2(ctx_c2, es_c2):
    system = global_group_system(es_c2)
    assert len(system) == 16
    assert roundtrip_label_maps(es_c2, build_context(system)) is not None


def test_global_group_system_names_an_unverified_anchor():
    """An elementary system built directly and not verified, whose (0, 1)
    table holds only two of its four triangles: the member letters miss
    a slice, and the error names the anchor instead of a bare KeyError."""
    es = construct_elementary_system((0, 2), 1, cyclic_group(2))
    table = es.tables[(0, 1)]
    short = dataclasses.replace(table, elements=table.elements[:2],
                                group=cyclic_group(2))
    bad = dataclasses.replace(es, tables={**es.tables, (0, 1): short})
    with pytest.raises(WellDefinednessFailure,
                       match=r"^anchor \(0, 1\) has no triangle \(1, 0, 0\)$"):
        global_group_system(bad)
    with pytest.raises(WellDefinednessFailure):
        bad.verify()


def test_recover_original(ctx_r2, es_r2, ctx_c2, es_c2, ctx_s3):
    assert recover_original(es_r2, ctx_r2).sequences == ctx_r2.system.sequences
    assert recover_original(es_c2, ctx_c2).sequences == ctx_c2.system.sequences
    es_s3 = extract_elementary_system(ctx_s3)
    assert recover_original(es_s3, ctx_s3).sequences == ctx_s3.system.sequences


def test_construct_trivial_seed():
    """All-trivial tables describe a system of ell 0, not the seeded 1: its
    re-extraction would have another slot table, so it is refused."""
    es = construct_elementary_system((0, 3), 1, trivial_group())
    assert all(t.group.order == 1 for t in es.tables.values())
    with pytest.raises(WellDefinednessFailure,
                       match=r"^global system realizes ell=0, below the "
                             r"seeded ell=1$"):
        global_group_system(es)
    assert len(global_group_system(construct_elementary_system(
        (0, 3), 0, trivial_group()))) == 1


def test_construct_z2_trivial_kernel():
    es = construct_elementary_system((0, 3), 1, cyclic_group(2))
    # interior bottom groups: direct product of two independent Z2 labels
    assert es.tables[(0, 1)].group.order == 4
    system = global_group_system(es)
    assert controllability_index(system) == 1
    assert len(system) == 8  # three span-2 label slots
    assert roundtrip_label_maps(es, build_context(system)) is not None


def test_construct_z2_with_z2_kernel():
    strategy = ConstructionStrategy(kernels={0: cyclic_group(2)})
    es = construct_elementary_system((0, 3), 1, cyclic_group(2), strategy)
    assert es.tables[(0, 1)].group.order == 8
    system = global_group_system(es)
    assert controllability_index(system) == 1
    assert len(system) == 2 ** 7  # three span-2 slots and four span-1 slots
    assert roundtrip_label_maps(es, build_context(system)) is not None


def test_construct_nontrivial_extension_choice():
    # extensions of the edge-anchor base Z2 by Z2 include Z4; pick index 1
    strategy = ConstructionStrategy(kernels={0: cyclic_group(2)},
                                    extension_indices={0: 1})
    es = construct_elementary_system((0, 2), 1, cyclic_group(2), strategy)
    system = global_group_system(es)
    assert controllability_index(system) == 1
    assert roundtrip_label_maps(es, build_context(system)) is not None


@pytest.mark.parametrize("index", [-1, -3, 99])
def test_construct_rejects_out_of_range_extension_index(index):
    strategy = ConstructionStrategy(kernels={0: cyclic_group(2)},
                                    extension_indices={0: index})
    with pytest.raises(NoExtensionFound):
        construct_elementary_system((0, 2), 1, cyclic_group(2), strategy)


def test_construct_trivial_kernel_takes_the_base():
    """Trivial kernels below an S3 top: the depth-0 bases have order 216,
    above the isomorphism cap, and each is its own only extension."""
    es = construct_elementary_system((0, 4), 2, symmetric_group_3())
    system = global_group_system(es)
    assert len(system) == 216
    assert controllability_index(system) == 2
    strategy = ConstructionStrategy(extension_indices={0: 1})
    with pytest.raises(NoExtensionFound):
        construct_elementary_system((0, 4), 2, symmetric_group_3(), strategy)
    # the extension search finds exactly the base, with the base's table
    for base in (cyclic_group(4), symmetric_group_3()):
        search = enumerate_extensions(base, trivial_group())
        assert [ext.op_table for ext, _ in search.extensions] == [base.op_table]


def test_construct_s3_depth_four():
    """S3 on [0,5] with ell=3: the anchors below the top row reach order
    216, and their subdirect bases are built on their own pairs instead of
    inside the product of the two children (a MemoryError before)."""
    es = construct_elementary_system((0, 5), 3, symmetric_group_3())
    system = global_group_system(es)
    assert len(system) == 216
    assert controllability_index(system) == 3
    ctx = build_context(system)
    re_es = extract_elementary_system(ctx)
    assert recover_original(re_es, ctx).sequences == system.sequences


def test_construct_time_varying_escape_hatch():
    """Anchor-keyed strategy entries override the per-depth defaults."""
    z2 = cyclic_group(2)
    strategy = ConstructionStrategy(
        kernels={0: z2, (0, 1): trivial_group()})
    es = construct_elementary_system((0, 2), 1, z2, strategy)
    assert es.label_sizes[(0, 0)] == 2
    assert es.label_sizes[(0, 1)] == 1  # overridden anchor
    assert es.label_sizes[(0, 2)] == 2
    system = global_group_system(es)
    assert controllability_index(system) == 1
    assert roundtrip_label_maps(es, build_context(system)) is not None


@pytest.mark.parametrize("field, key", [
    ("kernels", 1),          # the top row
    ("kernels", 5),
    ("kernels", -1),
    ("kernels", (1, 0)),     # a top-row anchor
    ("kernels", (0, 3)),     # past the window
    ("kernels", (0, -1)),
    ("extension_indices", 2),
    ("extension_indices", -1),
    ("extension_indices", (1, 2)),   # spans past t1
    ("extension_indices", (0, 3)),
])
def test_construct_rejects_keys_no_anchor_reads(field, key):
    """On [0,2] at ell 1 kernels are read at depth 0 and extension indices
    at depths 0 and 1, each at the slots of the table; any other key is
    refused before an anchor is built."""
    value = cyclic_group(2) if field == "kernels" else 0
    strategy = ConstructionStrategy(**{field: {key: value}})
    with pytest.raises(OutOfWindow, match="names no anchor"):
        construct_elementary_system((0, 2), 1, cyclic_group(2), strategy)


def test_construct_accepts_every_key_an_anchor_reads():
    z2 = cyclic_group(2)
    strategy = ConstructionStrategy(
        kernels={0: z2, (0, 0): z2, (0, 2): trivial_group()},
        extension_indices={0: 0, 1: 0, (1, 1): 0, (0, 2): 0})
    es = construct_elementary_system((0, 2), 1, z2, strategy)
    assert [es.label_sizes[0, t] for t in range(3)] == [2, 2, 1]


def test_construct_nonabelian_interior():
    """Nonabelian extensions at interior anchors via per-anchor indices.

    The twisted construction yields a valid 2-controllable complete system
    whose own extraction round-trips, and whose extracted local groups are
    isomorphic to the constructed ones by a natural isomorphism, which the
    roundtrip certificate checks.  That isomorphism is not one of labels:
    with a twisted bottom the chain-decomposition labels of the built
    system differ from the construction labels by more than a per-slot
    relabeling (composing a tensor's own single-label generators in
    encoder order injects twist terms), so label maps exist only for
    untwisted strategies.
    """
    z2 = cyclic_group(2)
    strategy = ConstructionStrategy(
        kernels={1: z2},
        extension_indices={(1, 1): 2, (1, 2): 2})
    es = construct_elementary_system((0, 4), 2, z2, strategy)
    system = global_group_system(es)
    system.verify_closure()
    assert not all(g.is_abelian for g in system.alphabets)
    assert controllability_index(system) == 2
    ctx = build_context(system)  # completeness: the tensor bijection holds
    re_es = extract_elementary_system(ctx)
    assert roundtrip_label_maps(es, ctx) is None
    for anchor in es.slots():
        assert es.label_sizes[anchor] == re_es.label_sizes[anchor]
        assert find_isomorphism(es.tables[anchor].group,
                                re_es.tables[anchor].group) is not None
    # the extract-direction roundtrip is unconditional
    assert recover_original(re_es, ctx).sequences == system.sequences


def test_depth_restrict(es_c2):
    top = depth_restrict(es_c2, 1)
    assert top.depth == 1
    assert top.window == (0, 2)
    ok, _ = check_homomorphism_condition(top)
    assert ok
    assert depth_restrict(es_c2, 2) is es_c2


def test_roundtrip_rejects_contexts_relabeled_by_automorphisms(es_c2):
    """The global system of C2 relabeled by the automorphisms a -> a g
    where a's letter at time 0 (a Z2 letter) is 1, for each member g != 1
    whose letter there is 0: each relabeled context still extracts, the
    oracle's label search finds a family and every anchor pair is
    isomorphic, yet the members' triangles and classes disagree, and the
    certificate names the anchor where they first do."""
    system = global_group_system(es_c2)
    assert system.alphabet(0).order == 2
    ctx = build_context(system)
    seqs = system.sequences
    relabeled = 0
    for g in seqs:
        if g == system.identity or g[0] != 0:
            continue
        phi = [system.index_of(system.mul(a, g)) if a[0] == 1 else i
               for i, a in enumerate(seqs)]
        moved = with_tensors(ctx, map(ctx.tensors.__getitem__, phi))
        re_es = extract_elementary_system(moved)
        assert oracles.structurally_equal(es_c2, re_es) is not None
        assert all(find_isomorphism(es_c2.tables[a].group, re_es.tables[a].group)
                   is not None for a in es_c2.slots())
        with pytest.raises(RecoveryMismatch,
                           match=r"differs at anchor \(0, [23]\): members 0 and 8 "):
            roundtrip_label_maps(es_c2, moved)
        relabeled += 1
    assert relabeled == 7


def test_depth3_construction_full_pipeline():
    """Every layer exercised at depth 3: construct, chains, roundtrip."""
    from groupsystems.chains import (
        STANDARD_FILLINGS,
        normal_chain,
        reconstruct_from_chain,
        standard_filling,
    )

    es = construct_elementary_system((0, 4), 2, cyclic_group(2))
    system = global_group_system(es)
    assert len(system) == 8  # three span-3 label slots
    assert controllability_index(system) == 2
    ctx = build_context(system)
    for kind in STANDARD_FILLINGS:
        f = standard_filling(system.window, ctx.ell, kind)
        chain = normal_chain(ctx, f)
        prod = 1
        for step in chain.steps:
            prod *= step.label_count
        assert prod == len(system)
        assert reconstruct_from_chain(ctx, f).sequences == system.sequences
    assert roundtrip_label_maps(es, ctx) is not None


# -- input checks that no other test reaches -------------------------------------

def with_moved_labels(es: ElementarySystem, anchor) -> ElementarySystem:
    """`es`, unverified, with the first label of every triangle at `anchor`
    moved by 10, so none restricts to an element of a nested anchor."""
    table = es.tables[anchor]
    moved = tuple((tri[0] + 10,) + tri[1:] for tri in table.elements)
    return dataclasses.replace(es, tables={**es.tables, anchor: ElementaryGroupTable(
        anchor, table.positions, moved, table.group)})


@pytest.mark.parametrize("call, error, message", [
    (lambda es, ctx: global_product(es, (0,), (0,)), OutOfWindow,
     "tensor length does not match the slot table"),
    (lambda es, ctx: recover_original(es, ctx), RecoveryMismatch, "slot tables differ"),
    (lambda es, ctx: depth_restrict(es, 9), OutOfWindow, "depth 9 not in 1..2"),
    (lambda es, ctx: roundtrip_label_maps(es, ctx), DomainError,
     "re-extracted elementary system differs"),
], ids=["global-product-length", "recover-other-slots", "depth-range",
        "roundtrip-other-label-sizes"])
def test_input_checks_raise_their_error_and_message(es_c2, ctx_r2, call, error, message):
    """The elementary system of C2 against R2's context, whose slot table
    and label sizes differ."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(es_c2, ctx_r2)


def test_homomorphism_condition_names_a_restriction_that_is_no_element(es_c2):
    assert check_homomorphism_condition(with_moved_labels(es_c2, (0, 0))) == (
        False, ((0, 0), (1, 0), (10, 0)))
