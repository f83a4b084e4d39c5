"""Subdirect products and small-order group extensions.

Extension enumeration is complete for abelian kernels (action + factor-set
search); for nonabelian kernels only the direct and semidirect products are
produced and the result is flagged incomplete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple

from .errors import (
    AxiomViolation,
    BoundExceeded,
    CodomainMismatch,
    NoExtensionFound,
    NotSurjective,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    direct_product,
    find_isomorphism,
)

DEFAULT_EXTENSION_ORDER_CAP = 64


def subdirect_product(g1: FiniteGroup, g2: FiniteGroup,
                      p1: Homomorphism, p2: Homomorphism) -> Subgroup:
    """{(a,b) : p1(a) = p2(b)} inside g1 × g2.

    Both projections onto the factors are verified surjective.
    """
    if p1.domain is not g1 or p2.domain is not g2:
        raise CodomainMismatch("projection domains do not match the factors")
    if p1.codomain is not p2.codomain:
        raise CodomainMismatch("projections target different groups")
    if not p1.is_surjective():
        raise NotSurjective("p1 not onto the common quotient")
    if not p2.is_surjective():
        raise NotSurjective("p2 not onto the common quotient")
    prod, _, _ = direct_product(g1, g2)
    members = tuple(a * g2.order + b
                    for a in range(g1.order) for b in range(g2.order)
                    if p1(a) == p2(b))
    sub = Subgroup(prod, members)
    firsts = {m // g2.order for m in members}
    seconds = {m % g2.order for m in members}
    if len(firsts) != g1.order or len(seconds) != g2.order:
        raise NotSurjective("subdirect product does not cover a factor")
    return sub


def _automorphisms(k: FiniteGroup, cap: int = 10000) -> List[tuple]:
    """All automorphisms of a small group, as image tuples."""
    n = k.order
    auts = []
    orders = [k.element_order(a) for a in range(n)]
    candidates = [[b for b in range(n) if orders[b] == orders[a]] for a in range(n)]
    total = 1
    for c in candidates[1:]:
        total *= max(len(c), 1)
        if total > cap:
            raise BoundExceeded("automorphism search too large")

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
    order, the projection is (x, a) ↦ a, and the kernel is k × {1}.  For
    abelian k the search runs over all actions q → Aut(k) and all normalized
    factor sets, which is complete at these orders; otherwise only trivial
    factor sets (semidirect products) are tried and `complete` is False.
    """
    if q.order * k.order > max_order:
        raise BoundExceeded(
            f"extension order {q.order * k.order} exceeds cap {max_order}")
    nq, nk = q.order, k.order
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
        if nk ** len(free_pairs) > 200000:
            raise BoundExceeded("factor-set search too large")
        complete = True
    else:
        free_pairs = []
        complete = False

    def build(action, fset) -> list:
        f = {(a, b): 0 for a in range(nq) for b in range(nq)}
        for pair, val in zip(free_pairs, fset):
            f[pair] = val
        # element (x, a) sits at index a*nk + x, so the projection is // nk
        table = [[0] * (nk * nq) for _ in range(nk * nq)]
        for a in range(nq):
            act_a = auts[action[a]]
            for x in range(nk):
                for b in range(nq):
                    for y in range(nk):
                        xy = k.op(k.op(x, act_a[y]), f[a, b])
                        table[a * nk + x][b * nk + y] = q.op(a, b) * nk + xy
        return table

    proj_images = tuple(x // nk for x in range(nk * nq))
    found = []
    reps = []  # kept groups, for isomorphism dedup
    for action in actions:
        for fset in itertools.product(range(nk), repeat=len(free_pairs)):
            table = build(action, fset)
            try:
                ext = FiniteGroup(table, name=f"{k.name}.{q.name}")
            except AxiomViolation:
                continue  # factor set fails associativity / inverses
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
