"""Subdirect products and small-order group extensions.

Extension enumeration is complete for abelian kernels (action + factor-set
search); for nonabelian kernels only the direct and semidirect products are
produced and the result is flagged incomplete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import (
    BoundExceeded,
    CodomainMismatch,
    NoExtensionFound,
    NotASubgroup,
    NotSurjective,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    direct_product,
    find_isomorphism,
)

DEFAULT_EXTENSION_ORDER_CAP = 64
AUTOMORPHISM_CANDIDATE_CAP = 10000
FACTOR_SET_CAP = 200000


def subdirect_product(g1: FiniteGroup, g2: FiniteGroup,
                      p1: Homomorphism, p2: Homomorphism) -> tuple:
    """The subgroup {(a,b) : p1(a) = p2(b)} of g1 × g2, built on its pairs.

    Returns (group, pairs): element i of the group is pairs[i], the pairs
    run in lexicographic order, and the product is componentwise.  Both
    projections are verified surjective and both factors covered.  Each
    product is looked up among the pairs and one outside them raises
    NotASubgroup: that is the closure check of the subgroup inside g1 × g2,
    the same |pairs|^2 lookups, without writing out the |g1 g2|^2 table of
    g1 × g2.  A nonempty finite subset of a group closed under the product
    is a subgroup, so the table is a group.
    """
    if p1.domain is not g1 or p2.domain is not g2:
        raise CodomainMismatch("projection domains do not match the factors")
    if p1.codomain is not p2.codomain:
        raise CodomainMismatch("projections target different groups")
    if not p1.is_surjective():
        raise NotSurjective("p1 not onto the common quotient")
    if not p2.is_surjective():
        raise NotSurjective("p2 not onto the common quotient")
    fibre: Dict[int, list] = {}
    for b in range(g2.order):
        fibre.setdefault(p2(b), []).append(b)
    pairs = tuple((a, b) for a in range(g1.order)
                  for b in fibre.get(p1(a), ()))
    if not pairs or pairs[0] != (0, 0):
        raise NotASubgroup("identity missing")
    n2 = g2.order
    index = {a * n2 + b: i for i, (a, b) in enumerate(pairs)}
    op1, op2 = g1.op_table, g2.op_table
    table = []
    for a1, b1 in pairs:
        row1, row2 = op1[a1], op2[b1]
        row = [index.get(row1[a2] * n2 + row2[b2]) for a2, b2 in pairs]
        if None in row:
            other = pairs[row.index(None)]
            raise NotASubgroup(f"product {(a1, b1)}*{other} escapes")
        table.append(row)
    if (len({a for a, _ in pairs}) != g1.order
            or len({b for _, b in pairs}) != g2.order):
        raise NotSurjective("subdirect product does not cover a factor")
    group = FiniteGroup(table, name=f"{g1.name}x{g2.name}", _validated=True)
    return group, pairs


def _automorphisms(k: FiniteGroup, cap: int = AUTOMORPHISM_CANDIDATE_CAP) -> List[tuple]:
    """All automorphisms of a small group, as image tuples."""
    n = k.order
    auts = []
    orders = [k.element_order(a) for a in range(n)]
    candidates = [[b for b in range(n) if orders[b] == orders[a]] for a in range(n)]
    total = 1
    for c in candidates[1:]:
        total *= max(len(c), 1)
        if total > cap:
            raise BoundExceeded(
                f"extension search: automorphism search too large: at least "
                f"{total} order-preserving image tuples for kernel "
                f"{k.name} of order {n} exceed cap {cap}")

    def backtrack(images: list) -> None:
        a = len(images)
        if a == n:
            if len(set(images)) == n:
                auts.append(tuple(images))
            return
        for b in candidates[a]:
            if b in images:
                continue
            ok = True
            for x in range(a):
                xa = k.op(x, a)
                if xa < a and images[xa] != k.op(images[x], b):
                    ok = False
                    break
                ax = k.op(a, x)
                if ax < a and images[ax] != k.op(b, images[x]):
                    ok = False
                    break
            if ok:
                images.append(b)
                backtrack(images)
                images.pop()

    backtrack([0])
    verified = []
    for imgs in auts:
        if all(imgs[k.op(a, b)] == k.op(imgs[a], imgs[b])
               for a in range(n) for b in range(n)):
            verified.append(imgs)
    identity = tuple(range(n))
    verified.sort(key=lambda imgs: (imgs != identity, imgs))
    return verified


@dataclass(frozen=True)
class ExtensionSearch:
    """Result of enumerate_extensions: validated (group, projection) pairs."""

    extensions: Tuple[tuple, ...]
    complete: bool


def enumerate_extensions(q: FiniteGroup, k: FiniteGroup,
                         max_order: int = DEFAULT_EXTENSION_ORDER_CAP) -> ExtensionSearch:
    """Groups E with a surjection onto q whose kernel is isomorphic to k.

    Elements of every candidate are the pairs (x, a) ∈ k × q in lexicographic
    order, the projection is (x, a) ↦ a, and the kernel is k × {1}.  The
    product is (x, a)(y, b) = (x α_a(y) f(a, b), ab) for an action α of q
    on k (a homomorphism, α_ab = α_a∘α_b) and a normalized factor set f.
    For abelian k the search runs over all actions q → Aut(k) and all
    normalized factor sets, which is complete at these orders; otherwise
    only trivial factor sets (semidirect products) are tried and `complete`
    is False.

    A factor set gets a table only when it satisfies the 2-cocycle identity
    f(a,b) f(ab,c) = α_a(f(b,c)) f(a,bc), O(|q|^3) lookups instead of the
    O(|E|^3) axiom check.  Expanding both bracketings of (x,a)(y,b)(z,c)
    shows that for abelian k the table is associative iff the identity
    holds (for the trivial factor sets tried otherwise, both sides are the
    identity and the semidirect product is a group).  Normalization and
    α_1 = id make (0, 1) the identity, and every row of the table is a
    permutation, so a table that passes is a group.  It still goes through
    `FiniteGroup` validation, and a failure there is raised, never skipped.
    The enumeration order is that of the unfiltered search.
    """
    nq, nk = q.order, k.order
    if nq * nk > max_order:
        raise BoundExceeded(
            f"extension search: extension order {nq * nk} "
            f"(|{q.name}| {nq} x |{k.name}| {nk}) exceeds cap {max_order}")
    auts = _automorphisms(k)
    aut_index = {imgs: i for i, imgs in enumerate(auts)}
    aut_op = {}
    for i, f in enumerate(auts):
        for j, g in enumerate(auts):
            aut_op[i, j] = aut_index[tuple(f[g[x]] for x in range(nk))]

    # all homomorphisms q -> Aut(k), found by brute force over small q
    actions = []
    for assignment in itertools.product(range(len(auts)), repeat=nq):
        if assignment[0] != 0:
            continue
        if all(assignment[q.op(a, b)] == aut_op[assignment[a], assignment[b]]
               for a in range(nq) for b in range(nq)):
            actions.append(assignment)

    if k.is_abelian:
        free_pairs = [(a, b) for a in range(1, nq) for b in range(1, nq)]
        if nk ** len(free_pairs) > FACTOR_SET_CAP:
            raise BoundExceeded(
                f"extension search: factor-set search too large: "
                f"{nk}^{len(free_pairs)} normalized factor sets of {k.name} "
                f"by {q.name} exceed cap {FACTOR_SET_CAP}")
        complete = True
    else:
        free_pairs = []
        complete = False

    qop, kop = q.op_table, k.op_table

    def factor_set(fset) -> list:
        f = [[0] * nq for _ in range(nq)]
        for (a, b), val in zip(free_pairs, fset):
            f[a][b] = val
        return f

    def is_cocycle(act, f) -> bool:
        # with f normalized and α_1 = id, the identity holds whenever one
        # of a, b, c is the identity; check the rest
        for a in range(1, nq):
            act_a, f_a, q_a = act[a], f[a], qop[a]
            for b in range(1, nq):
                f_ab, f_b, q_b = f_a[b], f[b], qop[b]
                f_prod = f[q_a[b]]
                for c in range(1, nq):
                    if (kop[f_ab][f_prod[c]]
                            != kop[act_a[f_b[c]]][f_a[q_b[c]]]):
                        return False
        return True

    def build(act, f) -> list:
        # element (x, a) sits at index a*nk + x, so the projection is // nk
        table = [[0] * (nk * nq) for _ in range(nk * nq)]
        for a in range(nq):
            act_a = act[a]
            for x in range(nk):
                for b in range(nq):
                    for y in range(nk):
                        xy = kop[kop[x][act_a[y]]][f[a][b]]
                        table[a * nk + x][b * nk + y] = qop[a][b] * nk + xy
        return table

    proj_images = tuple(x // nk for x in range(nk * nq))
    found = []
    reps = []  # kept groups, for isomorphism dedup
    for action in actions:
        act = [auts[i] for i in action]
        for fset in itertools.product(range(nk), repeat=len(free_pairs)):
            f = factor_set(fset)
            if not is_cocycle(act, f):
                continue  # the table would fail associativity
            ext = FiniteGroup(build(act, f), name=f"{k.name}.{q.name}")
            hom = Homomorphism(ext, q, proj_images)
            ker, _ = hom.kernel().as_group()
            if find_isomorphism(ker, k) is None:
                continue
            if any(find_isomorphism(seen, ext) is not None for seen in reps):
                continue
            reps.append(ext)
            found.append((ext, hom))

    if not found:
        raise NoExtensionFound("no extension validated, not even the direct product")
    dp, _, _ = direct_product(q, k)
    if not any(find_isomorphism(dp, ext) is not None for ext, _ in found):
        raise NoExtensionFound("direct product missing from search results")
    return ExtensionSearch(tuple(found), complete)
