"""Acceptance suite: one test per criterion, exact (no tolerances).

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import random
import sys
from contextlib import contextmanager

import oracles

from groupsystems.chains import (
    STANDARD_FILLINGS,
    block_code_chains,
    complementary,
    normal_chain,
    purge,
    reconstruct_from_chain,
    standard_filling,
)
from groupsystems.elementary import (
    ConstructionStrategy,
    construct_elementary_system,
    extract_elementary_system,
    global_group_system,
    recover_original,
    roundtrip_label_maps,
)
from groupsystems.generators import (
    build_context,
    elementary_group,
    nested_anchors,
    recover_system_fhgs,
    triangle_projection,
)
from groupsystems.groups import Subgroup, cyclic_group, zassenhaus_hom
from groupsystems.systems import (
    all_tensors,
    controllability_index,
    encode_spectral_domain,
    encode_time_domain,
    extract_basis,
    spectral_granule,
    time_granule,
    window_slots,
)


@contextmanager
def report(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {label}", file=sys.stderr)
        raise
    print(f"criterion {number:2d} PASS  {label}")


def test_criterion_1_validity_and_ell(trivial_sys, r2, c2):
    with report(1, "group-system validity and controllability indices"):
        assert controllability_index(trivial_sys) == 0
        assert controllability_index(r2) == 1
        assert controllability_index(c2) == 1
        for system in (trivial_sys, r2, c2):
            system.verify_closure()


def test_criterion_2_alpha_bijection(r2, c2):
    with report(2, "tensor-to-member encoding is a bijection (exhaustive)"):
        for system in (r2, c2):
            basis = extract_basis(system)
            images = [encode_time_domain(basis, r)
                      for r in all_tensors(map(basis.label_count, basis.slots))]
            assert len(images) == len(set(images)) == len(system)
            assert set(images) == set(system.sequences)


def test_criterion_3_granule_case_analysis(r2, c2):
    with report(3, "granule case analysis and butterfly isomorphism"):
        for system in (r2, c2):
            ell = controllability_index(system)
            t0, t1 = system.window
            g = oracles.sequence_group(system)
            for i in range(t0, t1 + 1):
                for m in range(-2, t1 - i + 1):
                    qp = time_granule(system, i, m, ell=ell)
                    if m < 0 or m > ell:
                        assert qp.quotient.order == 1
                    if 0 <= m <= ell:
                        gam = spectral_granule(system, i, m)
                        assert qp.quotient.order == gam.quotient.order
                        hom = zassenhaus_hom(
                            g,
                            Subgroup(g, system.x_subgroup(min(i + 1, t1 + 1))),
                            Subgroup(g, system.x_subgroup(i)),
                            Subgroup(g, system.y_subgroup(max(i + m - 1, t0 - 1))),
                            Subgroup(g, system.y_subgroup(i + m)),
                        )
                        assert hom.is_injective() and hom.is_surjective()
                        assert hom.domain.order == qp.quotient.order


def test_criterion_4_elementary_well_definedness(r2, c2):
    with report(4, "triangle products independent of lifts (all pairs)"):
        for system in (r2, c2):
            ctx = build_context(system)
            for (k, t) in ctx.slots:
                elementary_group(ctx, k, t)  # exhaustive lift-pair check inside


def test_criterion_5_nested_homomorphisms(r2, c2):
    with report(5, "nested projection homomorphisms (all anchor pairs)"):
        for system in (r2, c2):
            ctx = build_context(system)
            checked = 0
            for (k, t) in ctx.slots:
                for dst in nested_anchors(ctx, k, t):
                    hom = triangle_projection(ctx, (k, t), dst)
                    assert hom.is_surjective()
                    checked += 1
            assert checked > len(ctx.slots)  # strictly more than identities


def test_criterion_6_fhgs_recovery(r2, c2, s3_rep):
    with report(6, "per-time homomorphism recovery reproduces the members"):
        for system in (r2, c2, s3_rep):
            ctx = build_context(system)
            recovered = recover_system_fhgs(ctx)
            assert recovered.sequences == system.sequences


def test_criterion_7_encoder_agreement(c2, s3_rep):
    with report(7, "encoder agreement (exhaustive on the abelian system)"):
        basis = extract_basis(c2)
        for r in all_tensors(map(basis.label_count, basis.slots)):
            assert encode_time_domain(basis, r) == encode_spectral_domain(basis, r)
        # the nonabelian system is allowed to disagree; record the outcome
        basis3 = extract_basis(s3_rep)
        disagreements = sum(
            1 for r in all_tensors(map(basis3.label_count, basis3.slots))
            if encode_time_domain(basis3, r) != encode_spectral_domain(basis3, r))
        print(f"    nonabelian system: {disagreements} encoder disagreements "
              f"out of {len(s3_rep)} tensors (documented, not a failure)")


def test_criterion_8_sawtooth_partition():
    with report(8, "sawtooth partitions for 50 seeded random tooth sets"):
        rng = random.Random(0)
        window, ell = (0, 5), 2
        slots = window_slots(window, ell)
        for _ in range(50):
            sample = [s for s in slots if rng.random() < 0.4]
            ps = purge(window, ell, sample)
            comp = complementary(ps)  # internal partition verification
            assert ps.covered() | comp.covered() == set(slots)
            assert not ps.covered() & comp.covered()


def test_criterion_9_normal_chains(r2, c2):
    with report(9, "normal chains of the four standard walks reconstruct"):
        for system in (r2, c2):
            ctx = build_context(system)
            for kind in STANDARD_FILLINGS:
                f = standard_filling(system.window, ctx.ell, kind)
                chain = normal_chain(ctx, f)
                product = 1
                for step in chain.steps:
                    product *= step.label_count
                assert product == len(system)
                rebuilt = reconstruct_from_chain(ctx, f)
                assert rebuilt.sequences == system.sequences


def test_criterion_10_elementary_roundtrip(r2, c2, s3_rep):
    with report(10, "elementary-system roundtrips and seeded construction"):
        for system in (r2, c2, s3_rep):
            ctx = build_context(system)
            es = extract_elementary_system(ctx)
            recovered = recover_original(es, ctx)
            assert recovered.sequences == system.sequences
        for kernels in ({}, {0: cyclic_group(2)}):
            strategy = ConstructionStrategy(kernels=kernels)
            es = construct_elementary_system((0, 3), 1, cyclic_group(2),
                                             strategy)
            system = global_group_system(es)
            system.verify_closure()
            assert controllability_index(system) == 1  # the seeded depth
            ctx = build_context(system)  # completeness: tensor bijection holds
            assert roundtrip_label_maps(es, ctx) is not None


def test_criterion_11_block_code_chains(parity3):
    with report(11, "block-code chains of the [3,2] parity-check code"):
        ctx = build_context(parity3)
        chains, truncated = block_code_chains(ctx, max_orderings=720)
        assert not truncated
        assert len(chains) >= 1
        for chain in chains:
            product = 1
            for step in chain.steps:
                product *= step.label_count
            assert product == len(parity3) == 4
