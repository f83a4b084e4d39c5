"""The construction path against the earlier exhaustive routines in
`oracles.py`: the subdirect product built on its own pairs, the extension
search filtered by the 2-cocycle identity, Light's associativity test, the
homomorphism checks on generators, and the anchor build that made a pair
table, searched and relabeled it.  Both sides must build the same tables
in the same order and accept or reject the same inputs with the same
error type (and, for tables, the same violated axiom).  Also here: a
known-answer oracle for the extension search (also past the reach of the
earlier exhaustive walk), the number of tables it builds against a
brute-force count of cohomology classes, the isomorphism search against the
earlier closure search, and the messages of the caps.  Last, the second
copies of the structural checks that `groups.py` now answers once (the
automorphism search, Light's test in its (x y) z form, the inverse table
and the subgroup check) against the routines that replaced them, on every
group of order <= 8 these tests build, and the roundtrip certificate
against the label-bijection search it replaced.
"""

import importlib.util
import itertools
import re
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import oracles
import groupsystems.elementary as elementary
import groupsystems.extensions as extensions
from groupsystems.elementary import (
    ConstructionStrategy,
    ElementarySystem,
    check_homomorphism_condition,
    construct_elementary_system,
    extract_elementary_system,
    global_group_system,
    roundtrip_label_maps,
)
from groupsystems.errors import (
    AxiomViolation,
    BoundExceeded,
    NoExtensionFound,
    NotASubgroup,
    PreconditionViolated,
    WellDefinednessFailure,
)
from groupsystems.extensions import (
    SEARCH_NODE_CAP,
    ExtensionSearch,
    _automorphisms,
    enumerate_extensions,
    fibre_product,
)
from groupsystems.generators import ElementaryGroupTable, build_context
from groupsystems.io import dump_elementary_system
from groupsystems.slots import children
from groupsystems.groups import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    _validate_table,
    associativity_witness,
    compose_columns,
    cyclic_group,
    direct_product,
    find_isomorphism,
    homomorphism_witness,
    isomorphisms,
    make_group,
    symmetric_group_3,
    trivial_group,
)
from groupsystems.systems import controllability_index

FIXTURES = ["r2", "c2", "s3_rep", "trivial_sys", "parity3"]


def outcome(fn, *args):
    """('ok', value) or ('raise', error type); any exception counts, so a
    check that lets a bad input through to a crash is told apart."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return "raise", type(exc)


def closure_group(gens, mul, identity, name):
    """The group generated by `gens` under `mul`, identity first."""
    elements, seen = [identity], {identity}
    for x in elements:
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    index = {x: i for i, x in enumerate(elements)}
    return FiniteGroup([[index[mul(x, y)] for y in elements] for x in elements],
                       name=name)


def dihedral_4():
    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))
    return closure_group([(1, 2, 3, 0), (0, 3, 2, 1)], compose, (0, 1, 2, 3), "D4")


def quaternion_8():
    def hamilton(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    return closure_group([(0, 1, 0, 0), (0, 0, 1, 0)], hamilton, (1, 0, 0, 0), "Q8")


def inverting(moduli, m, name):
    """(Z_n1 x ... x Z_nr) ⋊ Z_m for even m, a generator of Z_m acting on
    the normal part by inversion."""
    zero = (0,) * len(moduli)

    def mul(x, y):
        (v, s), (w, t) = x, y
        sign = -1 if s % 2 else 1
        return (tuple((a + sign * b) % n for a, b, n in zip(v, w, moduli)),
                (s + t) % m)

    gens = [(tuple(int(i == j) for i in range(len(moduli))), 0)
            for j in range(len(moduli))] + [(zero, 1)]
    return closure_group(gens, mul, (zero, 0), name)


def product(g1, g2):
    return direct_product(g1, g2)[0]


Z2, Z3, Z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
V4, S3 = product(Z2, Z2), symmetric_group_3()

# (kernel, quotient, every extension up to isomorphism; OEIS A000001)
KNOWN_EXTENSIONS = [
    (Z4, Z2, [cyclic_group(8), product(Z4, Z2), dihedral_4(), quaternion_8()]),
    (Z2, Z2, [Z4, product(Z2, Z2)]),
    (Z3, Z2, [cyclic_group(6), symmetric_group_3()]),
    (Z3, Z3, [cyclic_group(9), product(Z3, Z3)]),
    (Z2, Z4, [cyclic_group(8), product(Z4, Z2)]),
    (Z2, V4, [product(Z4, Z2), product(V4, Z2), dihedral_4(), quaternion_8()]),
]

# searches the earlier walk over every factor set stopped at its cap
KNOWN_PAST_OLD_CAP = [
    (Z2, S3, [product(Z2, S3), inverting((3,), 4, "Dic3")]),
    (Z3, S3, [product(Z3, S3), inverting((3, 3), 2, "Z3^2:Z2"),
              inverting((9,), 2, "D9")]),
    (Z2, cyclic_group(6), [product(cyclic_group(6), Z2), cyclic_group(12)]),
]


def ids(cases):
    return [f"{k.name}-by-{q.name}" for k, q, _ in cases]


# -- extension search: known answers ------------------------------------------

@pytest.mark.parametrize("kernel,quotient,expected",
                         KNOWN_EXTENSIONS + KNOWN_PAST_OLD_CAP,
                         ids=ids(KNOWN_EXTENSIONS + KNOWN_PAST_OLD_CAP))
def test_extension_search_finds_exactly_the_known_groups(kernel, quotient, expected):
    search = enumerate_extensions(quotient, kernel)
    assert search.complete
    found = [ext for ext, _ in search.extensions]
    matches = [[find_isomorphism(ext, g) is not None for g in expected]
               for ext in found]
    assert all(row.count(True) == 1 for row in matches)
    assert sorted(row.index(True) for row in matches) == list(range(len(expected)))
    for ext, hom in search.extensions:
        assert hom.is_surjective()
        ker, _ = hom.kernel().as_group()
        assert find_isomorphism(ker, kernel) is not None


@pytest.mark.parametrize("kernel,quotient,expected", KNOWN_EXTENSIONS,
                         ids=ids(KNOWN_EXTENSIONS))
def test_extension_search_matches_oracle_on_known_pairs(kernel, quotient, expected):
    assert_same_search(quotient, kernel)


def same_searches(new, old):
    assert new[0] == old[0]
    if new[0] == "raise":
        assert new[1] is old[1]
        return
    assert new[1].complete == old[1].complete
    assert ([ext.op_table for ext, _ in new[1].extensions]
            == [ext.op_table for ext, _ in old[1].extensions])
    assert ([hom.image_of for _, hom in new[1].extensions]
            == [hom.image_of for _, hom in old[1].extensions])


def assert_same_search(q, k, max_order=64):
    same_searches(outcome(enumerate_extensions, q, k, max_order),
                  outcome(oracles.enumerate_extensions, q, k, max_order))


def under_old_cap(q, k):
    """Whether the earlier walk over every normalized factor set stayed
    under its cap of 200000 sets (its other caps are still in force)."""
    return not k.is_abelian or k.order ** ((q.order - 1) ** 2) <= 200000


def assert_same_as_every_cocycle(q, k, max_order=64):
    """Past the oracle's cap: the search against itself with the class test
    off, which builds a table for every cocycle."""
    new = outcome(enumerate_extensions, q, k, max_order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extensions._Classes, "is_new", lambda self, f: True)
        every = outcome(enumerate_extensions, q, k, max_order)
    same_searches(new, every)


@pytest.mark.parametrize("kernel,quotient,expected", KNOWN_PAST_OLD_CAP,
                         ids=ids(KNOWN_PAST_OLD_CAP))
def test_class_skip_keeps_the_same_list_past_the_old_cap(kernel, quotient, expected):
    assert not under_old_cap(quotient, kernel)
    assert_same_as_every_cocycle(quotient, kernel)


SMALL_GROUPS = [trivial_group(), Z2, Z3, Z4, V4, cyclic_group(5), cyclic_group(6),
                S3, cyclic_group(7), cyclic_group(8), product(Z4, Z2),
                product(V4, Z2), dihedral_4(), quaternion_8()]


@pytest.mark.parametrize("q", SMALL_GROUPS, ids=[g.name for g in SMALL_GROUPS])
def test_extension_search_matches_oracle_on_small_pairs(q):
    """Every kernel of order <= 8 under every base of order <= 8, wherever
    the earlier walk fits under its factor-set cap."""
    compared = 0
    for k in SMALL_GROUPS:
        if under_old_cap(q, k):
            assert_same_search(q, k)
            compared += 1
    assert compared >= 4  # the nonabelian kernels and Z1 fit every base


def cohomology_class_counts(q, k):
    """Per action q -> Aut(k) (abelian k), |H^2| = |Z^2| / |B^2| by brute
    force: cocycles among every normalized factor set, coboundaries from
    every normalized cochain."""
    nq, nk = q.order, k.order
    auts = _automorphisms(k)
    counts = []
    for assignment in itertools.product(range(len(auts)), repeat=nq):
        act = [auts[i] for i in assignment]
        if any(act[q.op(a, b)] != tuple(act[a][act[b][x]] for x in range(nk))
               for a in range(nq) for b in range(nq)):
            continue
        boundaries = {
            tuple(k.op(k.op(act[a][c[b]], c[a]), k.inv(c[q.op(a, b)]))
                  for a in range(nq) for b in range(nq))
            for c in ((0,) + rest
                      for rest in itertools.product(range(nk), repeat=nq - 1))}
        cocycles = 0
        for values in itertools.product(range(nk), repeat=(nq - 1) ** 2):
            f = [[0] * nq] + [[0] + list(values[(a - 1) * (nq - 1):a * (nq - 1)])
                              for a in range(1, nq)]
            cocycles += all(
                k.op(f[a][b], f[q.op(a, b)][c]) == k.op(act[a][f[b][c]], f[a][q.op(b, c)])
                for a, b, c in itertools.product(range(nq), repeat=3))
        assert cocycles % len(boundaries) == 0
        counts.append(cocycles // len(boundaries))
    return counts


CLASS_CASES = [(Z2, Z2), (Z2, Z3), (Z2, Z4), (Z2, V4), (Z3, Z2), (Z3, Z3),
               (Z4, Z2), (V4, Z2)]


@pytest.mark.parametrize("kernel,quotient", CLASS_CASES,
                         ids=[f"{k.name}-by-{q.name}" for k, q in CLASS_CASES])
def test_extension_search_builds_one_table_per_cohomology_class(
        kernel, quotient, monkeypatch):
    """The class test skips exactly the cocycles cohomologous to one
    examined before under the same action: one table per class."""
    built = []
    real = extensions.FiniteGroup

    def counting(table, name="G", **kwargs):
        built.append(name)
        return real(table, name=name, **kwargs)

    monkeypatch.setattr(extensions, "FiniteGroup", counting)
    enumerate_extensions(quotient, kernel)
    tables = built.count(f"{kernel.name}.{quotient.name}")
    assert tables == sum(cohomology_class_counts(quotient, kernel))


# -- the cap messages -----------------------------------------------------------

def test_extension_order_cap_message():
    with pytest.raises(BoundExceeded,
                       match=r"^extension search: extension order 100 .*exceeds cap 64$"):
        enumerate_extensions(cyclic_group(10), cyclic_group(10), max_order=64)


def test_factor_set_cap_message():
    # Z2 by Z4 x Z4 has 2^16 cocycles, found along 225 free factor-set entries
    with pytest.raises(BoundExceeded,
                       match=rf"^extension search: cocycle search too large: "
                             rf"{SEARCH_NODE_CAP + 1} search nodes for Z2 by "
                             rf"Z4xZ4 exceed cap {SEARCH_NODE_CAP}$"):
        enumerate_extensions(product(Z4, Z4), Z2)


def test_cocycle_search_bound_to_pass_the_cap_is_refused_first(monkeypatch):
    """Z2 by Z10 x Z10: the trivial action alone has at least 2^(100-1-2)
    cocycles, each a node, so the search stops before it lists its 99^3
    identities.  Z2 by Z4 x Z4 (a bound of 2^13) still runs the walk to
    the cap (`test_factor_set_cap_message`)."""
    def unlisted(q):
        raise AssertionError("identities listed")

    monkeypatch.setattr(extensions, "_identity_checks", unlisted)
    z10 = cyclic_group(10)
    with pytest.raises(BoundExceeded,
                       match=rf"^extension search: cocycle search too large: "
                             rf"at least 2\^97 search nodes for Z2 by Z10xZ10 "
                             rf"exceed cap {SEARCH_NODE_CAP}$"):
        enumerate_extensions(product(z10, z10), Z2, max_order=200)
    with pytest.raises(AssertionError, match="identities listed"):
        enumerate_extensions(product(Z4, Z4), Z2)


def test_automorphism_cap_message():
    # Z2^4: fifteen involutions, so 15^k candidate images pass 10000 at k = 4
    z2_4 = product(product(Z2, Z2), product(Z2, Z2))
    with pytest.raises(BoundExceeded,
                       match=r"^extension search: automorphism search too large: "
                             r"at least 50625 .* order 16 exceed cap 10000$"):
        enumerate_extensions(Z2, z2_4)


# -- the construction fixtures --------------------------------------------------

# every construction the test suite runs whose subdirect products the
# all-pairs oracle can still build
CONSTRUCTIONS = {
    "trivial-top": ((0, 3), 1, trivial_group(), None),
    "z2": ((0, 3), 1, Z2, None),
    "z2-kernel": ((0, 3), 1, Z2, ConstructionStrategy(kernels={0: Z2})),
    "z2-ext1": ((0, 2), 1, Z2, ConstructionStrategy(kernels={0: Z2},
                                                    extension_indices={0: 1})),
    "z2-escape-hatch": ((0, 2), 1, Z2, ConstructionStrategy(
        kernels={0: Z2, (0, 1): trivial_group()})),
    "z3-depth1": ((0, 2), 0, Z3, None),
    "z2-interior": ((0, 4), 2, Z2, ConstructionStrategy(kernels={1: Z2})),
    "z2-twisted": ((0, 4), 2, Z2, ConstructionStrategy(
        kernels={1: Z2}, extension_indices={(1, 1): 2, (1, 2): 2})),
    "s3": ((0, 4), 2, symmetric_group_3(), None),
    "s3-kernel": ((0, 2), 2, symmetric_group_3(), ConstructionStrategy(kernels={1: Z2})),
}


def record_unchecked_builds(mp):
    """Patch in recorders of what a construction builds unchecked: every
    table `extensions` and `elementary` build (the extension candidates,
    Aut(k), the base and anchor tables) and the inputs of every fibre
    product `_anchor_base` forms, (g1, g2, q, images1, images2), whose two
    maps onto q are not checked.  Returns the two lists they fill."""
    tables, fibres = [], []

    def record_table(table, name="G", **kwargs):
        tables.append(FiniteGroup(table, name=name, **kwargs))
        return tables[-1]

    def record_fibre(g1, g2, q, images1, images2):
        fibres.append((g1, g2, q, tuple(images1), tuple(images2)))
        return fibre_product(g1, g2, q, images1, images2)

    mp.setattr(extensions, "FiniteGroup", record_table)
    mp.setattr(elementary, "FiniteGroup", record_table)
    mp.setattr(elementary, "fibre_product", record_fibre)
    return tables, fibres


def assert_unchecked_builds_hold(tables, fibres):
    """Each recorded table passes `make_group` as it is, identity at 0,
    and both maps of each fibre product pass `homomorphism_witness`."""
    for group in tables:
        assert make_group(group.op_table).op_table == group.op_table
    for g1, g2, q, images1, images2 in fibres:
        assert homomorphism_witness(g1, q, images1) is None
        assert homomorphism_witness(g2, q, images2) is None


def two_child_anchors(es):
    return [a for a in es.slots()
            if None not in children(es.window, es.ell, a)]


@pytest.fixture(scope="module")
def construction_calls():
    """Per construction: the built system, the distinct fibre-product
    inputs as (g1, g2, p1, p2) and the distinct extension searches it
    made.  Every two-child anchor forms one fibre product, and the tables
    and maps it builds unchecked are asserted to pass the checks it
    skips."""
    recorded = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, (window, ell, top, strategy) in CONSTRUCTIONS.items():
            searches = {}
            tables, fibres = record_unchecked_builds(mp)

            def record_search(q, k, max_order=64, seen=searches):
                seen.setdefault((q.op_table, k.op_table, max_order),
                                (q, k, max_order))
                return enumerate_extensions(q, k, max_order)

            mp.setattr(elementary, "enumerate_extensions", record_search)
            es = construct_elementary_system(window, ell, top, strategy)
            assert_unchecked_builds_hold(tables, fibres)
            assert len(fibres) == len(two_child_anchors(es))
            subdirects = {}
            for g1, g2, q, images1, images2 in fibres:
                subdirects.setdefault(
                    (g1.op_table, g2.op_table, images1, images2),
                    (g1, g2, Homomorphism(g1, q, images1, check=False),
                     Homomorphism(g2, q, images2, check=False)))
            recorded[name] = (es, list(subdirects.values()),
                              list(searches.values()))
    return recorded


def oracle_subdirect(g1, g2, p1, p2):
    """The oracle's subgroup of g1 × g2 as (table, pairs)."""
    sub = oracles.subdirect_product(g1, g2, p1, p2)
    group, _ = sub.as_group()
    return group.op_table, tuple(divmod(m, g2.order) for m in sub.members)


def fibre_group(g1, g2, p1, p2):
    """The library's fibre product of p1 and p2, maps onto one group, as
    (table, pairs): the table composed from its generator columns, as an
    anchor build composes a base."""
    pairs, columns = fibre_product(g1, g2, p1.codomain, p1.image_of, p2.image_of)
    return FiniteGroup(compose_columns(columns, len(pairs)), _validated=True), pairs


def assert_same_subdirect(g1, g2, p1, p2):
    new = outcome(fibre_group, g1, g2, p1, p2)
    old = outcome(oracle_subdirect, g1, g2, p1, p2)
    assert new[0] == old[0]
    if new[0] == "ok":
        group, pairs = new[1]
        assert (group.op_table, pairs) == old[1]
    else:
        assert new[1] is old[1]


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_subdirect_products_match_oracle_on_constructions(name, construction_calls):
    es, subdirects, _ = construction_calls[name]
    if two_child_anchors(es):
        assert subdirects
    for g1, g2, p1, p2 in subdirects:
        assert_same_subdirect(g1, g2, p1, p2)


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_controllability_index_matches_oracle_on_constructions(name, construction_calls):
    es = construction_calls[name][0]
    if name == "trivial-top":  # all-trivial tables realize ell 0, not 1
        with pytest.raises(WellDefinednessFailure,
                           match="realizes ell=0, below the seeded ell=1$"):
            elementary.global_group_system(es)
        return
    system = elementary.global_group_system(es)
    assert controllability_index(system) == oracles.controllability_index(system)


def test_controllability_index_is_kept_on_the_system():
    """`global_group_system` computes the index for its bound check, and a
    caller asking again reads it off the system."""
    system = global_group_system(construct_elementary_system((0, 3), 1, Z2))
    system.__dict__["columns"] = None  # a second computation would fail
    assert controllability_index(system) == 1


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_extension_searches_match_oracle_on_constructions(name, construction_calls):
    _, _, searches = construction_calls[name]
    for q, k, max_order in searches:
        if under_old_cap(q, k):
            assert_same_search(q, k, max_order)
        else:
            assert_same_as_every_cocycle(q, k, max_order)


def workload_requests():
    """The construct requests of the benchmark's workload: every one its
    cap rule admits, as (window, ell, top, strategy, name)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent
        / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    tops = {"Z2": Z2, "Z3": Z3, "S3": S3}
    return [((0, req.length - 1), req.ell, tops[req.top], ConstructionStrategy(
        kernels={req.ell - 1: Z2} if req.kernel else {},
        extension_indices=req.extension_indices()), req.key)
        for req in workloads.construct_requests()]


WORKLOAD_REQUESTS = workload_requests()


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_constructions_pass_the_full_verify(name, construction_calls):
    """`construct_elementary_system` no longer verifies its result; the
    Cartesian count and the projection condition hold on every fixture.
    `global_group_system` builds its system closed; every pass of the
    system check accepts it (`trivial-top` gets none: its depth is
    refused)."""
    es = construction_calls[name][0]
    es.verify()
    assert oracles.check_homomorphism_condition(es) == (True, None)
    if name != "trivial-top":
        oracles.validate_system(global_group_system(es))


@pytest.mark.parametrize("window,ell,top,strategy",
                         [r[:4] for r in WORKLOAD_REQUESTS],
                         ids=[r[4] for r in WORKLOAD_REQUESTS])
def test_workload_requests_pass_the_full_verify(window, ell, top, strategy,
                                                monkeypatch):
    unchecked = record_unchecked_builds(monkeypatch)
    es = construct_elementary_system(window, ell, top, strategy)
    assert_unchecked_builds_hold(*unchecked)
    es.verify()
    assert oracles.check_homomorphism_condition(es) == (True, None)
    oracles.validate_system(global_group_system(es))


def test_workload_requests_cover_every_choice():
    assert len(WORKLOAD_REQUESTS) == 31
    keys = " ".join(r[4] for r in WORKLOAD_REQUESTS)
    assert all(word in keys for word in ("top=Z2", "top=Z3", "top=S3",
                                         "kernel Z2", "twisted"))


def test_trivial_base_runs_no_extension_search():
    """The top row extends the trivial group by the seed group, and rows
    under a trivial kernel extend their base by nothing: only anchors with
    a nontrivial base and kernel search, and the search over the trivial
    base would give the kernel's own table, once.  Index 0 is the direct
    product, built without a search, so a construction with every index
    0 searches nothing."""
    for k in (Z2, Z3, Z4, V4, S3):
        (ext, _), = enumerate_extensions(trivial_group(), k).extensions
        assert ext.op_table == k.op_table
    for window, ell, top, strategy in [r[:4] for r in WORKLOAD_REQUESTS] + [
            c for c in CONSTRUCTIONS.values()]:
        searched = []

        def record(q, k, max_order=64):
            searched.append((q.order, k.order))
            return enumerate_extensions(q, k, max_order)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(elementary, "enumerate_extensions", record)
            construct_elementary_system(window, ell, top, strategy)
        assert all(nq > 1 and nk > 1 for nq, nk in searched)
        strategy = strategy or ConstructionStrategy()
        if not any((strategy.extension_indices or {}).values()):
            assert searched == []


@pytest.mark.parametrize("anchor", [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 2)],
                         ids=str)
def test_index_past_the_only_extension_names_its_anchor(anchor):
    """An index >= 1 where the kernel or the base is trivial is out of
    range at that anchor, interior ones included, before either shortcut
    builds the anchor."""
    strategy = ConstructionStrategy(extension_indices={anchor: 1})
    message = f"extension index 1 out of range (1 found at anchor {anchor})"
    with pytest.raises(NoExtensionFound, match=f"^{re.escape(message)}$"):
        construct_elementary_system((0, 3), 1, Z2, strategy)


@pytest.fixture(scope="module")
def oracle_search():
    """The oracle's extension search where the earlier walk fits under its
    factor-set cap, the library's past it; remembered for this module."""
    seen = {}

    def search(q, k, max_order):
        key = (q.op_table, k.op_table, max_order)
        if key not in seen:
            seen[key] = (oracles.enumerate_extensions if under_old_cap(q, k)
                         else enumerate_extensions)(q, k, max_order)
        return seen[key]

    return search


def direct_product_only(q, k, max_order):
    """Index 0 alone, as `enumerate_extensions` proves it: the direct
    product k x q with (x, a) at a |k| + x, which is `direct_product(q,
    k)`'s layout."""
    return ExtensionSearch(((direct_product(q, k)[0], None),), False)


def assert_same_construction(args, search):
    new = construct_elementary_system(*args)
    old = oracles.construct_elementary_system(*args, search=search)
    assert new.label_sizes == old.label_sizes
    assert set(new.tables) == set(old.tables)
    for anchor, table in new.tables.items():
        assert table.positions == old.tables[anchor].positions
        assert table.elements == old.tables[anchor].elements
        assert table.group.op_table == old.tables[anchor].group.op_table
    assert dump_elementary_system(new) == dump_elementary_system(old)


@pytest.mark.parametrize("which", ["oracle-search", "library-search"])
@pytest.mark.parametrize("args", list(CONSTRUCTIONS.values())
                         + [r[:4] for r in WORKLOAD_REQUESTS],
                         ids=list(CONSTRUCTIONS) + [r[4] for r in WORKLOAD_REQUESTS])
def test_constructions_match_the_earlier_anchor_build(args, which, oracle_search):
    """Each anchor built once against the earlier build (the pair table,
    the search's extension at the anchor's index, the relabel): the same
    triangles, tables and dump.  With the library's search, each index-0
    table is the relabeled first extension `enumerate_extensions` lists."""
    assert_same_construction(args, oracle_search if which == "oracle-search"
                             else enumerate_extensions)


@pytest.mark.parametrize("args", [
    ((0, 2), 1, Z4, ConstructionStrategy(kernels={0: Z2})),
    ((0, 3), 1, S3, ConstructionStrategy(kernels={0: Z2})),
], ids=["z4-z2", "s3-z2"])
def test_default_index_past_the_search_cap_is_the_direct_product(args):
    """Bases of order 16 and 36 under a Z2 kernel: the search stops at its
    node cap, and index 0, which needs none, is the relabeled direct
    product."""
    with pytest.raises(BoundExceeded, match="cocycle search too large"):
        construct_elementary_system(*args[:3], ConstructionStrategy(
            kernels=args[3].kernels, extension_indices={0: 1}))
    assert_same_construction(args, direct_product_only)


@pytest.mark.parametrize("top,order", [(cyclic_group(7), 7),
                                       (cyclic_group(12), 12),
                                       (cyclic_group(64), 64)])
def test_large_cyclic_tops_construct(top, order):
    """The top row runs no automorphism search, so a seed group with more
    automorphism candidates than its cap (6^6 for Z7) still constructs."""
    with pytest.raises(BoundExceeded, match="automorphism search too large"):
        enumerate_extensions(trivial_group(), top)
    es = construct_elementary_system((0, 1), 1, top)
    es.verify()
    assert es.tables[(1, 0)].group.op_table == top.op_table
    assert len(global_group_system(es)) == order


def identity_hom(g):
    return Homomorphism(g, g, tuple(range(g.order)), check=False)


def test_subdirect_products_match_oracle_on_small_cases():
    """The subdirect cases of test_extensions, and projections that are no
    homomorphisms, so that a product escapes or the identity is missing."""
    triv = trivial_group()
    mod2 = Homomorphism(Z4, Z2, (0, 1, 0, 1))
    swap = Homomorphism(Z2, Z2, (1, 0), check=False)
    twisted = Homomorphism(Z4, Z2, (0, 1, 1, 0), check=False)
    collapse = Homomorphism(Z4, Z2, (0, 0, 0, 0))
    cases = [
        (Z2, Z2, Homomorphism(Z2, triv, (0, 0)), Homomorphism(Z2, triv, (0, 0))),
        (Z2, Z2, identity_hom(Z2), identity_hom(Z2)),
        (Z4, Z4, mod2, mod2),
        (Z4, Z4, collapse, collapse),
        (Z4, Z4, twisted, twisted),
        (Z4, Z4, mod2, twisted),
        (Z2, Z2, identity_hom(Z2), swap),
    ]
    for g1, g2, p1, p2 in cases:
        assert_same_subdirect(g1, g2, p1, p2)


# -- table validation -------------------------------------------------------------

def validation(check, table):
    try:
        check(table)
    except AxiomViolation as exc:
        return exc.kind
    return "group"


def single_entry_changes(table):
    n = len(table)
    for a, b in itertools.product(range(n), repeat=2):
        for v in range(n + 1):
            if v != table[a][b]:
                rows = [list(row) for row in table]
                rows[a][b] = v
                yield tuple(tuple(row) for row in rows)


def d4_from_search():
    search = enumerate_extensions(Z2, Z4)
    d4 = dihedral_4()
    return next(ext for ext, _ in search.extensions
                if find_isomorphism(ext, d4) is not None)


@pytest.mark.parametrize("make", [lambda: Z4, symmetric_group_3, d4_from_search],
                         ids=["Z4", "S3", "D4"])
def test_validation_matches_oracle_on_single_entry_changes(make):
    table = make().op_table
    kinds = set()
    for changed in single_entry_changes(table):
        kind = validation(_validate_table, changed)
        assert kind == validation(oracles._validate_table, changed)
        kinds.add(kind)
    assert "associativity" in kinds  # the changes reach Light's test


def fixture_groups(system):
    ctx = build_context(system)
    groups = list(system.alphabets) + [oracles.sequence_group(system)]
    groups += [table.group for table in extract_elementary_system(ctx).tables.values()]
    return groups


@pytest.mark.parametrize("system_key", FIXTURES)
def test_validation_matches_oracle_on_fixture_groups(system_key, request):
    for group in fixture_groups(request.getfixturevalue(system_key)):
        assert validation(_validate_table, group.op_table) == "group"
        assert validation(oracles._validate_table, group.op_table) == "group"


def test_validation_matches_oracle_on_construction_groups(construction_calls):
    for es, subdirects, searches in construction_calls.values():
        groups = [table.group for table in es.tables.values()]
        groups += [fibre_group(*args)[0] for args in subdirects]
        groups += [ext for q, k, cap in searches
                   for ext, _ in enumerate_extensions(q, k, cap).extensions]
        for group in groups:
            if group.order <= 64:
                assert validation(_validate_table, group.op_table) == "group"
                assert validation(oracles._validate_table, group.op_table) == "group"


# -- isomorphism search ---------------------------------------------------------------

def test_isomorphism_search_matches_oracle_on_same_order_pairs(construction_calls, request):
    """Images or None, the same on every ordered same-order pair among the
    fixture groups, the small and known-answer groups, and the constructed
    anchors with the extensions they were chosen from."""
    groups = {}
    for key in FIXTURES:
        for group in fixture_groups(request.getfixturevalue(key)):
            groups.setdefault(group.op_table, group)
    for group in SMALL_GROUPS + [g for *_, expected in KNOWN_EXTENSIONS + KNOWN_PAST_OLD_CAP
                                 for g in expected]:
        groups.setdefault(group.op_table, group)
    for es, _, searches in construction_calls.values():
        for table in es.tables.values():
            groups.setdefault(table.group.op_table, table.group)
        for q, k, cap in searches:
            for ext, _ in enumerate_extensions(q, k, cap).extensions:
                groups.setdefault(ext.op_table, ext)
    by_order = defaultdict(list)
    for group in groups.values():
        by_order[group.order].append(group)
    found = set()
    for same in by_order.values():
        for g1, g2 in itertools.product(same, repeat=2):
            new = outcome(find_isomorphism, g1, g2)
            assert new == outcome(oracles.find_isomorphism, g1, g2)
            found.add(new[0] if new[0] == "raise" else new[1] is None)
    assert found == {True, False, "raise"}  # isomorphic, not, and past the cap


# -- homomorphism checks ------------------------------------------------------------

HOM_CASES = [(Z4, Z2), (Z4, Z4), (symmetric_group_3(), Z2), (Z2, symmetric_group_3()),
             (Z3, symmetric_group_3()), (product(Z2, Z2), Z2), (trivial_group(), Z2)]


@pytest.mark.parametrize("domain,codomain", HOM_CASES,
                         ids=[f"{d.name}-{c.name}" for d, c in HOM_CASES])
def test_homomorphism_check_matches_oracle_on_every_map(domain, codomain):
    homs = 0
    for images in itertools.product(range(codomain.order), repeat=domain.order):
        new = outcome(Homomorphism, domain, codomain, images)
        old = oracles.homomorphism_pair(domain, codomain, images)
        assert (new[0] == "ok") == (old is None)
        if new[0] == "raise":
            assert new[1] is PreconditionViolated
        homs += old is None
    assert homs >= 1


def tampered(es, anchor, group):
    old = es.tables[anchor]
    tables = dict(es.tables)
    tables[anchor] = ElementaryGroupTable(anchor, old.positions, old.elements, group)
    return ElementarySystem(es.name, es.ell, es.window, es.label_sizes, tables)


def assert_same_condition(es):
    new_ok, new_witness = check_homomorphism_condition(es)
    old_ok, old_witness = oracles.check_homomorphism_condition(es)
    assert new_ok == old_ok
    if new_ok:
        return
    anchor, target = new_witness[:2]
    assert (anchor, target) == old_witness[:2]
    source, tgt = es.table(anchor), es.table(target)
    images = elementary.restriction_images(source, tgt)
    if None not in images:  # the witness is a failing pair
        a, b = new_witness[2]
        assert images[source.group.op(a, b)] != tgt.group.op(images[a], images[b])


SAME_ORDER = {4: [Z4, product(Z2, Z2)],
              8: [cyclic_group(8), product(Z4, Z2), dihedral_4(), quaternion_8(),
                  product(product(Z2, Z2), Z2)]}


def test_homomorphism_condition_matches_oracle_on_tampered_c2(c2):
    es = extract_elementary_system(build_context(c2))
    assert_same_condition(es)
    assert_same_condition(tampered(es, (0, 1), Z4))  # the test_elementary case
    failures = 0
    for anchor, table in es.tables.items():
        for group in SAME_ORDER.get(table.group.order, []):
            bad = tampered(es, anchor, group)
            assert_same_condition(bad)
            failures += not check_homomorphism_condition(bad)[0]
    assert failures >= 1


def test_homomorphism_condition_matches_oracle_on_constructions(construction_calls):
    for es, _, _ in construction_calls.values():
        assert_same_condition(es)


# -- one answer per structural question ------------------------------------------

@pytest.fixture(scope="module")
def groups_to_8(construction_calls, request):
    """Every group of order <= 8 the tests build, one per table: the small
    and known-answer groups, the fixture groups, and the constructed
    anchors with the extensions they were chosen from."""
    groups = {}
    candidates = SMALL_GROUPS + [g for *_, expected in KNOWN_EXTENSIONS
                                 for g in expected]
    for key in FIXTURES:
        candidates += fixture_groups(request.getfixturevalue(key))
    for es, _, searches in construction_calls.values():
        candidates += [table.group for table in es.tables.values()]
        candidates += [ext for q, k, cap in searches if q.order * k.order <= 8
                       for ext, _ in enumerate_extensions(q, k, cap).extensions]
    for group in candidates:
        if group.order <= 8:
            groups.setdefault(group.op_table, group)
    assert S3.op_table in groups and len(groups) >= len(SMALL_GROUPS)
    return list(groups.values())


def failure(fn, *args):
    """(error type, message) of a call, or None when it returns."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_automorphisms_match_oracle(groups_to_8):
    """The same sorted list, or the same cap message, from the isomorphism
    search on k and k as from the backtracking with all-pairs checks."""
    capped = 0
    for group in groups_to_8:
        new = outcome(_automorphisms, group)
        assert new == outcome(oracles.automorphisms, group)
        if new[0] == "raise":
            assert failure(_automorphisms, group) == failure(oracles.automorphisms, group)
            capped += 1
    assert 0 < capped < len(groups_to_8)


def test_isomorphisms_yield_every_isomorphism_once(groups_to_8):
    """Between groups of one order, `isomorphisms` yields |Aut(g)| distinct
    bijective homomorphisms when g and h are isomorphic and none otherwise,
    the first being the earlier closure search's answer."""
    n_auts = {g.op_table: len(oracles.automorphisms(g, cap=10 ** 6))
              for g in groups_to_8}
    isomorphic = 0
    for g, h in itertools.product(groups_to_8, repeat=2):
        if g.order != h.order:
            continue
        maps = list(isomorphisms(g, h))
        first = oracles.find_isomorphism(g, h)
        if first is None:
            assert maps == []
            continue
        isomorphic += 1
        assert maps[0] == first
        assert len(set(maps)) == len(maps) == n_auts[g.op_table]
        for images in maps:
            assert sorted(images) == list(range(g.order))
            assert oracles.homomorphism_pair(g, h, images) is None
    assert isomorphic > len(groups_to_8)  # some pairs of distinct tables


def axiom_failure(check, table):
    try:
        check(table)
    except AxiomViolation as exc:
        return exc.kind, exc.witness
    return None


@pytest.mark.parametrize("make", [lambda: Z4, symmetric_group_3, lambda: V4],
                         ids=["Z4", "S3", "Z2xZ2"])
def test_light_test_and_witness_match_oracle_on_single_entry_changes(make):
    """Every change of one entry to another in-range value: `make_group`
    names the witness the table check with Light's test written out in it
    named, and both forms of Light's test agree with the check of all
    triples.  A change in row or column 0 fails the identity check in
    both, before the other axioms, with one witness."""
    table = make().op_table
    n = len(table)
    witnesses = identities = 0
    for changed in single_entry_changes(table):
        if max(map(max, changed)) >= n:
            continue
        gens = FiniteGroup(changed, _validated=True).generators
        light = associativity_witness(changed, (0, *gens)) is None
        assert light == oracles.light_associative(changed, gens)
        assert light == oracles.is_associative(changed)
        new = axiom_failure(make_group, changed)
        assert new == axiom_failure(oracles.check_axioms, changed)
        witnesses += new is not None and new[0] == "associativity"
        identities += new is not None and new[0] == "identity"
    assert witnesses > 0 and identities > 0


def test_light_test_and_inverses_match_oracle_on_groups(groups_to_8, construction_calls):
    """Every group table passes both forms of Light's test, and the inverse
    table read off the rows is the one found by scanning every pair."""
    groups = list(groups_to_8)
    groups += [table.group for es, _, _ in construction_calls.values()
               for table in es.tables.values()]
    for group in groups:
        assert associativity_witness(group.op_table, (0, *group.generators)) is None
        assert oracles.light_associative(group.op_table, group.generators)
        assert tuple(map(group.inv, group.elements())) == oracles.inverses(group)


def test_subgroup_check_matches_oracle_on_every_subset(groups_to_8):
    """Every subset holding 0 of every group of order <= 8: closure on the
    subset's greedy generators accepts exactly the subsets the all-pairs
    check accepts."""
    verdicts = set()
    for group in groups_to_8:
        for rest in itertools.product((False, True), repeat=group.order - 1):
            subset = (0,) + tuple(a for a, keep in enumerate(rest, 1) if keep)
            new = outcome(lambda: Subgroup(group, subset).members)
            assert new == outcome(oracles.subgroup_members, group, subset)
            verdicts.add(new[0])
    assert verdicts == {"ok", "raise"}
    with pytest.raises(NotASubgroup, match="identity missing"):
        Subgroup(Z4, (1, 2, 3))


def test_roundtrip_label_maps_match_oracle(construction_calls, request):
    """On every fixture's extraction and every construction (the two of
    the CLI's twisted-roundtrip test among them), against the context of
    its global system: the roundtrip certificate returns label maps
    exactly where the oracle's label search finds a family, and its maps
    carry the one system onto the other.  The trivial-top construction
    gets no global system: `global_group_system` refuses its depth."""
    systems = [extract_elementary_system(build_context(request.getfixturevalue(key)))
               for key in FIXTURES]
    systems += [es for es, _, _ in construction_calls.values()]
    verdicts = set()
    for es in systems:
        if es is construction_calls["trivial-top"][0]:
            with pytest.raises(WellDefinednessFailure,
                               match="below the seeded ell=1$"):
                global_group_system(es)
            continue
        ctx = build_context(global_group_system(es))
        re_es = extract_elementary_system(ctx)
        maps = roundtrip_label_maps(es, ctx)
        assert (maps is None) == (oracles.structurally_equal(es, re_es) is None)
        assert maps is None or oracles.carries(es, re_es, maps)
        verdicts.add(maps is None)
    assert verdicts == {True, False}
