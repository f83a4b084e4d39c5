"""Differential tests: the generator-pair certificates against the all-pairs
oracles in `oracles.py`, on every fixture, on generated systems, and on
injected defects.  Both sides must build the same tables and member sets,
and accept or reject the same inputs with the same error type."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from groupsystems.elementary import (
    ElementarySystem,
    extract_elementary_system,
    recover_original,
)
from groupsystems.errors import (
    AxiomViolation,
    BoundExceeded,
    NotAGroupSystem,
    ToolkitError,
    WellDefinednessFailure,
)
from groupsystems.generators import (
    ElementaryGroupTable,
    GeneratorContext,
    build_context,
    elementary_group,
)
from groupsystems.groups import FiniteGroup, cyclic_group, symmetric_group_3
from groupsystems.io import (
    dump_elementary_system,
    parse_elementary_system,
    parse_system,
)
from groupsystems.systems import GroupSystem, build_system

FIXTURES = ["r2", "c2", "s3_rep", "trivial_sys", "parity3"]


def outcome(fn, *args, **kwargs):
    """('ok', value) or ('raise', error type)."""
    try:
        return "ok", fn(*args, **kwargs)
    except ToolkitError as exc:
        return "raise", type(exc)


def table_key(table: ElementaryGroupTable) -> tuple:
    return (table.positions, tuple(tri.labels for tri in table.elements),
            table.group.op_table)


def system_key(system: GroupSystem) -> tuple:
    return (system.sequences, tuple(g.op_table for g in system.alphabets))


def assert_same(new, old, key=lambda v: v):
    assert new[0] == old[0]
    if new[0] == "ok":
        assert key(new[1]) == key(old[1])
    else:
        assert new[1] is old[1]


def assert_certificates_agree(system: GroupSystem) -> None:
    """Closure, every elementary group and the recovery on one system."""
    assert_same(outcome(system.verify_closure),
                outcome(oracles.verify_closure, system))
    ctx = build_context(system)
    for anchor in ctx.slots:
        assert_same(outcome(elementary_group, ctx, *anchor),
                    outcome(oracles.elementary_group, ctx, *anchor), table_key)
    es = extract_elementary_system(ctx)
    assert_same(outcome(recover_original, es, ctx),
                outcome(oracles.recover_original, es, ctx), system_key)


@pytest.mark.parametrize("name", FIXTURES)
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
    system = new[1]
    try:
        build_context(system)
    except ToolkitError:
        # no generator basis (e.g. a component collision): there is no
        # elementary group to compare, only the closure
        assert_same(outcome(system.verify_closure),
                    outcome(oracles.verify_closure, system))
        return
    assert_certificates_agree(system)


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
