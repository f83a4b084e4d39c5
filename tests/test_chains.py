import dataclasses
import random
from pathlib import Path

import oracles
import pytest
from conftest import parity3_context
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsystems.chains import (
    STANDARD_FILLINGS,
    FillingSequence,
    block_code_chains,
    complementary,
    decompose_along_chain,
    eigentriangle_expansion,
    enumerate_normal_fillings,
    is_normal_filling_sequence,
    lower_contains,
    normal_chain,
    normal_subgroup_from_ps,
    oplus_group,
    purge,
    reconstruct_from_chain,
    standard_filling,
)
from groupsystems.errors import NotABlockCode, NotNormalFilling, WellDefinednessFailure
import groupsystems.chains as chains_module
from groupsystems.generators import build_context, elementary_group, u_minus_subgroup
from groupsystems.groups import FiniteGroup, Subgroup, is_normal
from groupsystems.io import load_system_file, parse_system
from groupsystems.systems import encode_time_domain, tensor_from_items, window_slots


@pytest.fixture(scope="module")
def ctx_r2(r2):
    return build_context(r2)


@pytest.fixture(scope="module")
def ctx_c2(c2):
    return build_context(c2)


def test_purge_empty_and_disjoint():
    assert purge((0, 5), 2, []).pairs == ()
    kept = purge((0, 5), 2, [(1, 0), (1, 3)])
    assert kept.pairs == ((1, 0), (1, 3))


def test_purge_containment():
    # the (0,0) tooth sits inside the (1,0) one
    assert lower_contains((1, 0), (0, 0))
    kept = purge((0, 5), 2, [(1, 0), (0, 0)])
    assert kept.pairs == ((1, 0),)


def test_complementary_single_pair_c2_window():
    ps = purge((0, 3), 1, [(1, 0)])
    comp = complementary(ps)
    assert set(comp.pairs) == {(0, 2), (0, 3)}
    assert comp.covered() == {(0, 2), (0, 3), (1, 1), (1, 2)}


def test_complementary_extremes():
    window, ell = (0, 4), 2
    everything = purge(window, ell, window_slots(window, ell))
    assert complementary(everything).pairs == ()
    empty = purge(window, ell, [])
    comp = complementary(empty)
    assert comp.covered() == set(window_slots(window, ell))


def test_sawtooth_partition_seeded_random():
    rng = random.Random(0)
    window, ell = (0, 5), 2
    slots = window_slots(window, ell)
    for _ in range(50):
        sample = [s for s in slots if rng.random() < 0.4]
        ps = purge(window, ell, sample)
        comp = complementary(ps)  # raises if the unions fail to partition
        assert ps.covered() | comp.covered() == set(slots)
        assert not ps.covered() & comp.covered()


def test_tooth_product_is_checked_against_a_given_basis():
    """A basis of the parity code whose entries span it but are no granule
    transversals: slot (0, 1) holds 110, whose span is two times.  The
    tensors inside the tooth of (0, 1) are those of 000 and 110, while its
    lower elementary group A^[1, 1] is the identity alone."""
    ctx = parity3_context({(0, 1): [(1, 1, 0)], (1, 0): [(0, 1, 1)]})
    with pytest.raises(WellDefinednessFailure,
                       match="^tooth product differs from support subgroup$"):
        normal_subgroup_from_ps(ctx, purge(ctx.system.window, 1, [(0, 1)]))


def test_normal_subgroup_from_ps(ctx_r2, ctx_c2):
    window, ell = ctx_r2.system.window, ctx_r2.ell
    empty = purge(window, ell, [])
    assert normal_subgroup_from_ps(ctx_r2, empty) == (0,)
    full = purge(window, ell, window_slots(window, ell))
    assert len(normal_subgroup_from_ps(ctx_r2, full)) == len(ctx_r2.system)
    single = purge(window, ell, [(1, 0)])
    assert len(normal_subgroup_from_ps(ctx_r2, single)) == 2
    # C2: every purged sample passes its internal cross-checks
    rng = random.Random(1)
    slots = window_slots(ctx_c2.system.window, ctx_c2.ell)
    for _ in range(10):
        ps = purge(ctx_c2.system.window, ctx_c2.ell,
                   [s for s in slots if rng.random() < 0.5])
        normal_subgroup_from_ps(ctx_c2, ps)


def test_oplus_group_degenerate_and_quotient(ctx_c2):
    window, ell = ctx_c2.system.window, ctx_c2.ell
    # single upper tooth at (0, t): the time-t local group
    ps = purge(window, ell, [p for p in window_slots(window, ell)
                             if p not in {(0, 1), (1, 1), (1, 0)}])
    comp = complementary(ps)
    assert set(comp.pairs) == {(0, 1)}

    op = oplus_group(ctx_c2, comp)
    elem = elementary_group(ctx_c2, 0, 1)
    assert op.group.order == elem.group.order
    # two disjoint upper teeth
    from groupsystems.chains import UpperPairedSequence
    two = UpperPairedSequence(window, ell, ((1, 0), (0, 3)))
    op2 = oplus_group(ctx_c2, two)
    assert op2.group.order == 2 * 4


def test_standard_fillings_are_normal():
    """Every standard walk on windows of length 1..8, at every ell below the
    length: `standard_filling` no longer checks its walks itself."""
    for window, ell in (((0, n - 1), ell) for n in range(1, 9) for ell in range(n)):
        walks = [standard_filling(window, ell, kind) for kind in STANDARD_FILLINGS]
        for f in walks:
            ok, bad = is_normal_filling_sequence(f)
            assert ok and bad is None
        if ell == 0:
            # single row: the column and row walks coincide per direction
            assert walks[0].pairs == walks[2].pairs
            assert walks[1].pairs == walks[3].pairs


def test_standard_filling_explicit_ell1():
    f = standard_filling((0, 2), 1, "time_rev")
    assert f.pairs == ((0, 2), (0, 1), (1, 1), (0, 0), (1, 0))
    g = standard_filling((0, 2), 1, "spec_rev")
    assert g.pairs == ((0, 2), (0, 1), (0, 0), (1, 1), (1, 0))
    # regeneration is idempotent
    assert standard_filling((0, 2), 1, "time_rev").pairs == f.pairs


def test_nonnormal_walk_detected():
    window, ell = (0, 2), 1
    bad = FillingSequence(window, ell, ((1, 0), (0, 0), (0, 1), (1, 1), (0, 2)))
    ok, idx = is_normal_filling_sequence(bad)
    assert not ok and idx == 1


def test_normal_chain_r2(ctx_r2):
    f = standard_filling(ctx_r2.system.window, ctx_r2.ell, "time_rev")
    chain = normal_chain(ctx_r2, f)
    orders = [s.label_count for s in chain.steps]
    prod = 1
    for n in orders:
        prod *= n
    assert prod == len(ctx_r2.system)
    assert len(chain.steps[-1].subgroup) == len(ctx_r2.system)


def test_normal_chain_rejects_bad_walk(ctx_c2):
    """A walk that fills a span-2 slot first: `normal_chain`, where a caller
    hands in a walk, checks it before any chain is built."""
    window, ell = ctx_c2.system.window, ctx_c2.ell
    slots = list(window_slots(window, ell))
    bad_order = tuple(sorted(slots, key=lambda p: (-p[0], -p[1])))
    assert bad_order[0][0] == 1
    bad = FillingSequence(window, ell, bad_order)
    with pytest.raises(NotNormalFilling,
                       match=r"^prefix 1 is not a union of lower triangles$"):
        normal_chain(ctx_c2, bad)


def test_chain_quotient_orders_multiply(ctx_r2, ctx_c2):
    for ctx in (ctx_r2, ctx_c2):
        for kind in STANDARD_FILLINGS:
            f = standard_filling(ctx.system.window, ctx.ell, kind)
            chain = normal_chain(ctx, f)
            prod = 1
            for step in chain.steps:
                prod *= step.label_count
            assert prod == len(ctx.system)


def test_reconstruction_all_standard_fillings(ctx_r2, ctx_c2):
    for ctx in (ctx_r2, ctx_c2):
        for kind in STANDARD_FILLINGS:
            f = standard_filling(ctx.system.window, ctx.ell, kind)
            rebuilt = reconstruct_from_chain(ctx, f)
            assert rebuilt.sequences == ctx.system.sequences


def test_time_rev_chain_matches_time_domain_encoder(ctx_c2):
    """Peeling along the time-reverse chain recovers each member's own label
    tensor, and composing those representatives in fill order is exactly the
    column-by-column encoder product."""
    f = standard_filling(ctx_c2.system.window, ctx_c2.ell, "time_rev")
    chain = normal_chain(ctx_c2, f)
    system = ctx_c2.system
    for seq in system.sequences:
        reps = decompose_along_chain(ctx_c2, chain, seq)
        items = {}
        for step, lab in zip(chain.steps, reps):
            label = lab[ctx_c2.slot_pos[step.pair]]
            items[step.pair] = label
        r = tensor_from_items(ctx_c2.basis, items)
        assert encode_time_domain(ctx_c2.basis, r) == seq
        assert r == ctx_c2.tensors[system.index_of(seq)]
        acc = system.identity
        for step, lab in zip(chain.steps, reps):
            acc = system.mul(acc, system.sequences[ctx_c2.tensor_index[lab]])
        assert acc == seq


def test_chain_seeded_at_a_tooth_subgroup(ctx_c2):
    """The chain variant that starts above a fixed lower-triangle base."""
    window, ell = ctx_c2.system.window, ctx_c2.ell
    base = purge(window, ell, [(1, 0)])
    f = standard_filling(window, ell, "time_rev")
    chain = normal_chain(ctx_c2, f, base_ps=base)
    assert len(chain.base) == len(normal_subgroup_from_ps(ctx_c2, base)) == 2
    walked = [step.pair for step in chain.steps]
    assert set(walked) == set(window_slots(window, ell)) - base.covered()
    prod = len(chain.base)
    for step in chain.steps:
        prod *= step.label_count
    assert prod == len(ctx_c2.system)
    assert len(chain.steps[-1].subgroup) == len(ctx_c2.system)


def test_trivial_system_chain(trivial_sys):
    ctx = build_context(trivial_sys)
    f = standard_filling(ctx.system.window, ctx.ell, "time_rev")
    chain = normal_chain(ctx, f)
    assert all(step.label_count == 1 for step in chain.steps)


def test_eigentriangle_expansion(ctx_r2, ctx_c2):
    chain = eigentriangle_expansion(ctx_r2, 0)
    nontrivial = [s for s in chain.steps if len(s.representatives) > 1]
    assert len(nontrivial) == 1
    for t in (1, 2):
        chain = eigentriangle_expansion(ctx_c2, t)
        nontrivial = [s for s in chain.steps if len(s.representatives) > 1]
        assert len(nontrivial) == 2  # order-4 local group, two label slots
        for step in chain.steps:
            for rep in step.representatives:
                labels = chain.table.elements[rep]
                assert sum(1 for x in labels if x) <= 1


def test_eigentriangle_trivial(trivial_sys):
    ctx = build_context(trivial_sys)
    chain = eigentriangle_expansion(ctx, 0)
    assert all(len(s.representatives) == 1 for s in chain.steps)


def test_eigentriangle_edge_anchors(ctx_c2):
    # clipped anchors at both window ends still expand fully
    for t in (0, 3):
        chain = eigentriangle_expansion(ctx_c2, t)
        prod = 1
        for step in chain.steps:
            prod *= len(step.representatives)
        assert prod == chain.table.group.order


def test_enumerate_normal_fillings_counts():
    # one free slot tableau: ell=1 on [0,1] has slots (0,0),(0,1),(1,0)
    fillings, truncated = enumerate_normal_fillings((0, 1), 1, cap=100)
    assert not truncated
    assert len(fillings) == 2  # (0,*) in either order, then (1,0)
    for f in fillings:
        assert f.pairs[-1] == (1, 0)


def test_block_code_chains_parity(parity3):
    ctx = build_context(parity3)
    chains, truncated = block_code_chains(ctx)
    assert not truncated
    assert len(chains) >= 2
    for chain in chains:
        prod = 1
        for step in chain.steps:
            prod *= step.label_count
        assert prod == len(parity3) == 4


def test_block_code_chains_repetition(r2):
    ctx = build_context(r2)
    chains, _ = block_code_chains(ctx)
    for chain in chains:
        prod = 1
        for step in chain.steps:
            prod *= step.label_count
        assert prod == 2


def z2_conv(t1):
    return parse_system(f"system Z\nwindow 0 {t1}\nrule conv Z2 x0 x0+x1\n")


@pytest.mark.parametrize("fixture, t1, caps", [
    ("parity3", None, None), ("r2", None, None), (None, 3, None),
    (None, 4, (1, 720)), (None, 5, (1, 720)),
])
def test_block_code_chains_are_the_per_walk_chains(request, fixture, t1, caps):
    """One certificate per ideal gives the chains, `choices` included, of
    one `normal_chain` per walk, on two fixtures and on Z2 `x0 x0+x1` over
    [0,t1]: at cap 1, at the exact walk count and past it, or at 720 where
    there are more walks."""
    system = request.getfixturevalue(fixture) if fixture else z2_conv(t1)
    ctx = build_context(system)
    if caps is None:
        every, truncated = enumerate_normal_fillings(system.window, ctx.ell, 720)
        assert not truncated
        caps = (1, len(every), len(every) + 1)
    for cap in caps:
        chains, truncated = block_code_chains(ctx, max_orderings=cap)
        walks, walks_truncated = enumerate_normal_fillings(system.window, ctx.ell, cap)
        assert truncated == walks_truncated
        expected = [normal_chain(ctx, f) for f in walks]
        assert list(chains) == expected
        assert [c.choices for c in chains] == [c.choices for c in expected]


@pytest.mark.parametrize("t1, ideals", [(3, 33), (4, 51), (5, 62)])
def test_block_code_chains_certify_each_ideal_once(monkeypatch, t1, ideals):
    """Z2 `x0 x0+x1` on [0,3], [0,4] and [0,5] (272, then 720 capped
    walks): one normality test per nonempty ideal the walks fill, and one
    support subgroup per ideal, the empty one included."""
    ctx = build_context(z2_conv(t1))
    tests, supports = [], []
    test = chains_module.normal_by_cosets
    monkeypatch.setattr(chains_module, "normal_by_cosets",
                        lambda *args: tests.append(args[0]) or test(*args))
    support = chains_module.support_subgroup
    monkeypatch.setattr(chains_module, "support_subgroup",
                        lambda c, allowed: supports.append(frozenset(allowed))
                        or support(c, allowed))
    chains, _ = block_code_chains(ctx)
    filled = {frozenset(chain.filling.pairs[:i])
              for chain in chains for i in range(len(chain.filling.pairs) + 1)}
    assert len(tests) == ideals == len(filled) - 1
    assert len(supports) == len(set(supports)) and set(supports) == filled


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(window_slots((0, 5), 2))))
def test_purge_idempotent_and_partition_property(sample):
    window, ell = (0, 5), 2
    ps = purge(window, ell, sorted(sample))
    again = purge(window, ell, ps.pairs)
    assert again.pairs == ps.pairs
    comp = complementary(ps)
    slots = set(window_slots(window, ell))
    assert ps.covered() | comp.covered() == slots
    assert not ps.covered() & comp.covered()


@settings(max_examples=40, deadline=None)
@given(st.permutations(window_slots((0, 3), 1)))
def test_normal_walk_prefixes_are_triangle_unions(order):
    window, ell = (0, 3), 1
    f = FillingSequence(window, ell, tuple(order))
    ok, bad = is_normal_filling_sequence(f)
    # cross-check against the definition: every prefix is a union of the
    # lower triangles of its own members
    filled = set()
    first_violation = None
    for i, (k, t) in enumerate(order):
        filled.add((k, t))
        from groupsystems.generators import lower_triangle_positions
        closed = all(set(lower_triangle_positions(window, ell, kk, tt)) <= filled
                     for (kk, tt) in filled)
        if not closed and first_violation is None:
            first_violation = i + 1
    assert ok == (first_violation is None)
    if not ok:
        assert bad == first_violation


def test_block_code_rejects_padded_window():
    from groupsystems.groups import cyclic_group
    from groupsystems.systems import GroupSystem
    z2 = cyclic_group(2)
    z1 = cyclic_group(1)
    padded = GroupSystem((0, 2), [z2, z2, z1], [(0, 0, 0), (1, 1, 0)])
    ctx = build_context(padded)
    with pytest.raises(NotABlockCode):
        block_code_chains(ctx)


CHAIN_SYSTEMS = pytest.mark.parametrize("text", [
    "system Z\nwindow 0 6\nrule conv Z2 x0 x0+x1\n",
    (Path(__file__).resolve().parent.parent / "perfbench" / "data"
     / "twisted_w5_l2.gsys"),
], ids=["z2_w7", "twisted_w5_l2"])


def load_text(text):
    return parse_system(text) if isinstance(text, str) else load_system_file(str(text))


class CountingRow(tuple):
    """A table row that counts the entries read from it."""

    reads = 0

    def __getitem__(self, i):
        CountingRow.reads += 1
        return tuple.__getitem__(self, i)


@CHAIN_SYSTEMS
def test_is_normal_conjugates_generators_only(text):
    """On the 128-member sequence group (the oracle table), one normality
    check of a support subgroup reads at most |S_G|·(|H| + |S_H|) table
    entries, where conjugating all of H by all of G reads |G|·|H|."""
    ctx = build_context(load_text(text))
    table = oracles.sequence_group(ctx.system).op_table
    g = FiniteGroup(tuple(map(CountingRow, table)), _validated=True)
    h = Subgroup(g, u_minus_subgroup(ctx, 3))  # tensors on slots ending by 3
    assert g.order == 128 and 1 < h.order < g.order
    bound = len(g.generators) * (h.order + len(h.generators))
    CountingRow.reads = 0
    verdict = is_normal(g, h)
    assert 0 < CountingRow.reads <= bound < g.order * h.order
    assert verdict == oracles.is_normal(g, h)


@CHAIN_SYSTEMS
def test_chain_builds_no_member_table(monkeypatch, text):
    """A normal chain on 128 members, abelian or not, builds no group
    table as large as the member group: every step's normality is tested
    on the generating set's Cayley graphs, |S| columns each way."""
    system = load_text(text)
    ctx = build_context(system)
    assert len(system) == 128
    orders, graphs = [], []
    init = FiniteGroup.__init__
    monkeypatch.setattr(FiniteGroup, "__init__", lambda self, table, *a, **k:
                        orders.append(len(table)) or init(self, table, *a, **k))
    test = chains_module.normal_by_cosets
    monkeypatch.setattr(chains_module, "normal_by_cosets",
                        lambda h, gens, right, left: graphs.append((right, left))
                        or test(h, gens, right, left))
    walk = standard_filling(system.window, ctx.ell, "time_rev")
    assert len(reconstruct_from_chain(ctx, normal_chain(ctx, walk))) == 128
    assert max(orders, default=0) < 128
    assert len(graphs) == len(walk.pairs)
    assert all(right is ctx.right_cayley and left is ctx.left_cayley
               for right, left in graphs)
    assert len(ctx.right_cayley) == len(ctx.generating_set) < 128


def test_reconstruction_rejects_a_chain_whose_choices_miss_members(ctx_c2):
    """A hand-built `NormalChain` with one member left out of its last
    level: the one input that reaches the length check."""
    chain = normal_chain(ctx_c2, standard_filling(ctx_c2.system.window, ctx_c2.ell,
                                                  "time_rev"))
    short = dataclasses.replace(chain, choices=dict(list(chain.choices.items())[:-1]))
    with pytest.raises(NotNormalFilling, match="^chain did not reach the whole group$"):
        reconstruct_from_chain(ctx_c2, short)
