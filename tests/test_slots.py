"""The slot geometry of `slots.py` against the loops each module wrote
before it moved there (`oracles.py`).

The window grid is every window [t0, t0+L-1] with t0 in {0, 2} and
L = 1..6, at every depth ell < L.  Purges and complements are compared on
every subset of slots wherever the table has at most 10 slots, and on
seeded samples of subsets elsewhere."""

import itertools
import random
from types import SimpleNamespace

import pytest

import oracles
from groupsystems.chains import (
    STANDARD_FILLINGS,
    FillingSequence,
    PairedSequence,
    UpperPairedSequence,
    complementary,
    enumerate_normal_fillings,
    paired_sequence_from_upper_complement,
    purge,
    standard_filling,
)
from groupsystems.elementary import nested_targets
from groupsystems.errors import OutOfWindow, ShapeMismatch, ToolkitError
from groupsystems.generators import (
    _alpha_column,
    alpha_t,
    build_context,
    elementary_group,
    nested_anchors,
    triangle_projection,
)
from groupsystems.io import parse_system
from groupsystems.slots import (
    children,
    fold_order,
    in_slot_table,
    lower_contains,
    lower_triangle_positions,
    positions_in,
    upper_triangle_positions,
    walk,
    window_slots,
)
from groupsystems.systems import (
    alphabet_matrix,
    encode_spectral_domain,
    encode_time_domain,
    fold_spectral_domain,
    fold_time_domain,
)

GRID = [((t0, t0 + length - 1), ell)
        for t0 in (0, 2) for length in range(1, 7) for ell in range(length)]
FIXTURES = ["r2", "c2", "s3_rep", "trivial_sys", "parity3"]


def around(window, ell):
    """Anchors in the slot table and a margin of anchors outside it."""
    t0, t1 = window
    return [(k, t) for k in range(-1, ell + 2) for t in range(t0 - 2, t1 + 3)]


def subsets(slots, seed):
    """Every subset of `slots` when there are at most 10, else 64 seeded
    samples."""
    if len(slots) <= 10:
        return itertools.chain.from_iterable(
            itertools.combinations(slots, n) for n in range(len(slots) + 1))
    rng = random.Random(seed)
    return [[p for p in slots if rng.random() < 0.5] for _ in range(64)]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ToolkitError as exc:
        return "raise", type(exc), str(exc)


@pytest.mark.parametrize("window, ell", GRID)
def test_walks_match_the_loops(window, ell):
    for kind in STANDARD_FILLINGS:
        pairs = oracles.standard_walk(window, ell, kind)
        assert walk(window, ell, kind) == pairs
        assert standard_filling(window, ell, kind).pairs == pairs
    assert window_slots(window, ell) == oracles.standard_walk(window, ell, "time_rev")
    with pytest.raises(ValueError):
        walk(window, ell, "bogus")
    with pytest.raises(OutOfWindow, match="unknown filling kind"):
        standard_filling(window, ell, "bogus")
    slots = window_slots(window, ell)
    for pairs in (slots + slots[:1], slots[1:], slots[1:] + ((0, window[1] + 1),)):
        with pytest.raises(OutOfWindow, match="every slot exactly once"):
            FillingSequence(window, ell, pairs)


@pytest.mark.parametrize("window, ell", GRID)
def test_triangles_and_nesting_match_the_loops(window, ell):
    ctx = SimpleNamespace(system=SimpleNamespace(window=window), ell=ell)
    anchors = around(window, ell)
    for k, t in anchors:
        assert upper_triangle_positions(window, ell, k, t) == \
            oracles.upper_triangle_positions(window, ell, k, t)
        assert lower_triangle_positions(window, ell, k, t) == \
            oracles.lower_triangle_positions(window, ell, k, t)
        assert nested_anchors(ctx, k, t) == oracles.nested_anchors(window, ell, k, t)
    for src, dst in itertools.product(anchors, repeat=2):
        assert lower_contains(dst, src) == oracles.is_nested(src, dst)
        assert lower_contains(src, dst) == oracles.lower_contains(src, dst)


@pytest.mark.parametrize("window, ell", GRID)
def test_slot_table_membership_is_the_slot_set(window, ell):
    slots = set(window_slots(window, ell))
    for anchor in around(window, ell):
        assert in_slot_table(window, ell, anchor) == (anchor in slots)


@pytest.mark.parametrize("window, ell", GRID)
def test_children_match_the_targets_and_the_construction_lookup(window, ell):
    es = SimpleNamespace(window=window, ell=ell)
    for anchor in window_slots(window, ell):
        assert children(window, ell, anchor) == \
            oracles.construction_children(window, ell, anchor)
        assert nested_targets(es, anchor) == oracles.nested_targets(window, ell, anchor)


@pytest.mark.parametrize("window, ell", GRID)
def test_fold_orders_are_the_walks_at_one_time(window, ell):
    """Restricted to in-window slots, each fold order is its walk
    restricted to the (0, t) triangle; on the (j, k) keys it is the loop
    the folds ran."""
    slots = set(window_slots(window, ell))
    for kind in ("time_rev", "spec_rev"):
        for t in range(window[0], window[1] + 1):
            tri = set(upper_triangle_positions(window, ell, 0, t))
            folded = [(k, t - j) for j, k in fold_order(ell, kind) if (k, t - j) in slots]
            assert folded == [p for p in walk(window, ell, kind) if p in tri]
    matrix = {key: i for i, key in enumerate(fold_order(ell, "time_rev"))}
    assert list(matrix) == [(j, k) for j in range(ell + 1) for k in range(j, ell + 1)]
    assert fold_order(ell, "spec_rev") == tuple(
        (j, k) for k in range(ell + 1) for j in range(k + 1))
    with pytest.raises(ValueError):
        fold_order(ell, "time_fwd")


@pytest.mark.parametrize("window, ell", GRID)
def test_purges_and_complements_match_the_old_routines(window, ell):
    slots = window_slots(window, ell)
    for subset in subsets(slots, seed=10 * sum(window) + ell):
        subset = list(subset)
        ps = purge(window, ell, subset)
        old = oracles.purge(window, ell, subset)
        assert ps == old
        assert ps.covered() == oracles.covered(old, oracles.lower_triangle_positions)
        comp = complementary(ps)
        assert comp == oracles.complementary(old)
        assert comp.covered() == oracles.covered(comp, oracles.upper_triangle_positions)
        upper = UpperPairedSequence.purged(window, ell, subset)
        assert upper.pairs == oracles.purge_upper(window, ell, subset)
        ctx = SimpleNamespace(system=SimpleNamespace(window=window), ell=ell)
        for ps_u in (comp, upper):
            lower = paired_sequence_from_upper_complement(ctx, ps_u)
            assert lower == oracles.paired_sequence_from_upper_complement(
                window, ell, ps_u)
            assert lower.covered() | ps_u.covered() == set(slots)
    # repeats keep their first place; a pair outside the table raises
    assert purge(window, ell, list(slots) * 2) == oracles.purge(window, ell, list(slots) * 2)
    outside = (ell + 1, window[0])
    assert outcome(purge, window, ell, [outside]) == \
        outcome(oracles.purge, window, ell, [outside])


def test_complements_of_malformed_teeth_match():
    """Teeth built by hand, with anchors outside the slot table, get the
    verdict and message of the old routines."""
    window, ell = (0, 3), 1
    for pairs in (((2, 0),), ((0, 5),), ((1, -1),), ((0, 0), (3, 0))):
        ps = PairedSequence(window, ell, pairs)
        assert outcome(complementary, ps) == outcome(oracles.complementary, ps)
        ps_u = UpperPairedSequence(window, ell, pairs)
        ctx = SimpleNamespace(system=SimpleNamespace(window=window), ell=ell)
        assert outcome(paired_sequence_from_upper_complement, ctx, ps_u) == \
            outcome(oracles.paired_sequence_from_upper_complement, window, ell, ps_u)


def test_positions_in():
    outer = ((1, 0), (0, 0), (0, 1))
    assert positions_in(outer, ((0, 1), (1, 0))) == (2, 0)
    assert positions_in(outer, ()) == ()
    with pytest.raises(KeyError):
        positions_in(outer, ((2, 0),))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_encoders_matrix_and_folds_match_the_loops(fixture, request):
    system = request.getfixturevalue(fixture)
    ctx = build_context(system)
    basis = ctx.basis
    for r in ctx.tensors:
        assert encode_spectral_domain(basis, r) == oracles.encode_spectral_domain(basis, r)
        seq = encode_time_domain(basis, r)
        for t in system.times():
            matrix = alphabet_matrix(basis, r, t)
            old = oracles.alphabet_matrix(basis, r, t)
            assert list(matrix.items()) == list(old.items())
            assert fold_time_domain(basis, matrix, t) == \
                oracles.fold_time_domain(basis, old, t) == system.letter(seq, t)
            assert fold_spectral_domain(basis, matrix, t) == \
                oracles.fold_spectral_domain(basis, old, t)


@pytest.mark.parametrize("taps, window", [("x0 x0+x1", (0, 4)), ("x0 x0+x1+x2", (0, 5)),
                                          ("x0+x1 x1", (0, 3))])
def test_encoders_match_the_loops_on_rules(taps, window):
    system = parse_system(f"system R\nwindow {window[0]} {window[1]}\n"
                          f"rule conv Z2 {taps}\n")
    basis = build_context(system).basis
    for r in basis.tensors:
        assert encode_spectral_domain(basis, r) == oracles.encode_spectral_domain(basis, r)
    for bad in ((0,), basis.tensors[0] + (0,), (9,) * len(basis.slots)):
        assert outcome(encode_spectral_domain, basis, bad) == \
            outcome(oracles.encode_spectral_domain, basis, bad)


def test_triangle_projection_nesting(c2):
    ctx = build_context(c2)
    for src, dst in itertools.product(ctx.slots, repeat=2):
        if not oracles.is_nested(src, dst):
            with pytest.raises(ShapeMismatch):
                triangle_projection(ctx, src, dst)
            continue
        source, target = elementary_group(ctx, *src), elementary_group(ctx, *dst)
        where = {p: i for i, p in enumerate(source.positions)}
        expected = tuple(target.index(tuple(tri[where[p]] for p in target.positions))
                         for tri in source.elements)
        assert triangle_projection(ctx, src, dst).image_of == expected


@pytest.mark.parametrize("fixture", FIXTURES)
def test_alpha_column_is_folded_once_per_time(fixture, request):
    system = request.getfixturevalue(fixture)
    ctx = build_context(system)
    for t in system.times():
        column = _alpha_column(ctx, t)
        assert _alpha_column(ctx, t) is column
        elem = elementary_group(ctx, 0, t)
        assert [alpha_t(ctx, tri, t) for tri in elem.elements] == column == \
            [oracles.alpha_t(ctx, tri, t) for tri in elem.elements]
    # alpha_t reads the kept column: a planted one shows through
    t = system.window[0]
    ctx._alphas[t] = [7] * len(ctx._alphas[t])
    assert alpha_t(ctx, elementary_group(ctx, 0, t).elements[0], t) == 7


@pytest.mark.parametrize("fixture", FIXTURES)
def test_sequence_group_is_the_member_product(fixture, request):
    system = request.getfixturevalue(fixture)
    index = {s: i for i, s in enumerate(system.sequences)}
    table = system.renamed("copy").sequence_group.op_table
    assert table == tuple(tuple(index[system.mul(a, b)] for b in system.sequences)
                          for a in system.sequences)


def test_encoders_multiply_in_walk_order(c2):
    """The encoders take the generators in the order of their walks: the
    generators each one multiplies on are those of the loops, in order."""
    ctx = build_context(c2.renamed("recorded"))
    system, basis = ctx.system, ctx.basis
    taken = []
    product = system.mul
    system.mul = lambda a, b: taken.append(b) or product(a, b)
    full = max(ctx.tensors, key=lambda r: (sum(c != 0 for c in r), r))
    for ours, old in ((encode_spectral_domain, oracles.encode_spectral_domain),
                      (encode_time_domain, None)):
        taken.clear()
        ours(basis, full)
        got = list(taken)
        taken.clear()
        if old is None:
            expected = [basis.transversals[s][c] for s, c in zip(basis.slots, full)]
        else:
            old(basis, full)
            expected = list(taken)
        assert got == expected
    spec = oracles.standard_walk(c2.window, ctx.ell, "spec_rev")
    assert [basis.slots[i] for i in basis.spectral_order] == list(spec) != list(basis.slots)


def test_filling_enumeration_cap_boundary():
    for window, ell in (((0, 2), 1), ((0, 3), 1), ((1, 3), 2)):
        every, truncated = enumerate_normal_fillings(window, ell, 10 ** 6)
        assert not truncated and len(every) > 1
        assert enumerate_normal_fillings(window, ell, len(every)) == (every, False)
        assert enumerate_normal_fillings(window, ell, len(every) - 1) == (every[:-1], True)
        assert enumerate_normal_fillings(window, ell, 1) == (every[:1], True)
