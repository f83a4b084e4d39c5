"""The construction path against the earlier exhaustive routines in
`oracles.py`: the subdirect product built on its own pairs, the extension
search filtered by the 2-cocycle identity, Light's associativity test and
the homomorphism checks on generators.  Both sides must build the same
tables in the same order and accept or reject the same inputs with the
same error type (and, for tables, the same violated axiom).  Also here: a
known-answer oracle for the extension search and the messages of its caps.
"""

import itertools

import pytest

import oracles
import groupsystems.elementary as elementary
from groupsystems.elementary import (
    ConstructionStrategy,
    ElementarySystem,
    check_homomorphism_condition,
    construct_elementary_system,
    extract_elementary_system,
)
from groupsystems.errors import (
    AxiomViolation,
    BoundExceeded,
    PreconditionViolated,
)
from groupsystems.extensions import enumerate_extensions, subdirect_product
from groupsystems.generators import ElementaryGroupTable, build_context
from groupsystems.groups import (
    FiniteGroup,
    Homomorphism,
    _validate_table,
    cyclic_group,
    direct_product,
    find_isomorphism,
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


def product(g1, g2):
    return direct_product(g1, g2)[0]


Z2, Z3, Z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)

# (kernel, quotient, every extension up to isomorphism)
KNOWN_EXTENSIONS = [
    (Z4, Z2, [cyclic_group(8), product(Z4, Z2), dihedral_4(), quaternion_8()]),
    (Z2, Z2, [Z4, product(Z2, Z2)]),
    (Z3, Z2, [cyclic_group(6), symmetric_group_3()]),
    (Z3, Z3, [cyclic_group(9), product(Z3, Z3)]),
]


def ids(cases):
    return [f"{k.name}-by-{q.name}" for k, q, _ in cases]


# -- extension search: known answers ------------------------------------------

@pytest.mark.parametrize("kernel,quotient,expected", KNOWN_EXTENSIONS,
                         ids=ids(KNOWN_EXTENSIONS))
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


def assert_same_search(q, k, max_order=64):
    new = outcome(enumerate_extensions, q, k, max_order)
    old = outcome(oracles.enumerate_extensions, q, k, max_order)
    assert new[0] == old[0]
    if new[0] == "raise":
        assert new[1] is old[1]
        return
    assert new[1].complete == old[1].complete
    assert ([ext.op_table for ext, _ in new[1].extensions]
            == [ext.op_table for ext, _ in old[1].extensions])
    assert ([hom.image_of for _, hom in new[1].extensions]
            == [hom.image_of for _, hom in old[1].extensions])


# -- the cap messages -----------------------------------------------------------

def test_extension_order_cap_message():
    with pytest.raises(BoundExceeded,
                       match=r"^extension search: extension order 100 .*exceeds cap 64$"):
        enumerate_extensions(cyclic_group(10), cyclic_group(10), max_order=64)


def test_factor_set_cap_message():
    # 25 free factor-set entries over Z2: 2^25 sets
    with pytest.raises(BoundExceeded,
                       match=r"^extension search: factor-set search too large: "
                             r"2\^25 normalized .* exceed cap 200000$"):
        enumerate_extensions(cyclic_group(6), Z2)


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
}


@pytest.fixture(scope="module")
def construction_calls():
    """Per construction: the built system, the distinct subdirect-product
    inputs and the distinct extension searches it made."""
    recorded = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, (window, ell, top, strategy) in CONSTRUCTIONS.items():
            subdirects, searches = {}, {}

            def record_subdirect(g1, g2, p1, p2, seen=subdirects):
                seen.setdefault((g1.op_table, g2.op_table, p1.image_of,
                                 p2.image_of), (g1, g2, p1, p2))
                return subdirect_product(g1, g2, p1, p2)

            def record_search(q, k, max_order=64, seen=searches):
                seen.setdefault((q.op_table, k.op_table, max_order),
                                (q, k, max_order))
                return enumerate_extensions(q, k, max_order)

            mp.setattr(elementary, "subdirect_product", record_subdirect)
            mp.setattr(elementary, "enumerate_extensions", record_search)
            es = construct_elementary_system(window, ell, top, strategy)
            recorded[name] = (es, list(subdirects.values()),
                              list(searches.values()))
    return recorded


def oracle_subdirect(g1, g2, p1, p2):
    """The oracle's subgroup of g1 × g2 as (table, pairs)."""
    sub = oracles.subdirect_product(g1, g2, p1, p2)
    group, _ = sub.as_group()
    return group.op_table, tuple(divmod(m, g2.order) for m in sub.members)


def assert_same_subdirect(g1, g2, p1, p2):
    new = outcome(subdirect_product, g1, g2, p1, p2)
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
    if es.ell >= 1 and es.window[1] - es.window[0] >= 1:
        assert subdirects  # every two-child anchor builds one
    for g1, g2, p1, p2 in subdirects:
        assert_same_subdirect(g1, g2, p1, p2)


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_controllability_index_matches_oracle_on_constructions(name, construction_calls):
    system = elementary.global_group_system(construction_calls[name][0])
    assert controllability_index(system) == oracles.controllability_index(system)


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_extension_searches_match_oracle_on_constructions(name, construction_calls):
    _, _, searches = construction_calls[name]
    for q, k, max_order in searches:
        assert_same_search(q, k, max_order)


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
    other = cyclic_group(2)
    cases = [
        (Z2, Z2, Homomorphism(Z2, triv, (0, 0)), Homomorphism(Z2, triv, (0, 0))),
        (Z2, Z2, identity_hom(Z2), identity_hom(Z2)),
        (Z4, Z4, mod2, mod2),
        (Z4, Z4, collapse, collapse),
        (Z2, Z2, identity_hom(Z2), identity_hom(other)),
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
    groups = list(system.alphabets) + [system.sequence_group]
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
        groups += [subdirect_product(*args)[0] for args in subdirects]
        groups += [ext for q, k, cap in searches
                   for ext, _ in enumerate_extensions(q, k, cap).extensions]
        for group in groups:
            if group.order <= 64:
                assert validation(_validate_table, group.op_table) == "group"
                assert validation(oracles._validate_table, group.op_table) == "group"


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
