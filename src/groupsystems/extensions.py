"""Subdirect products and small-order group extensions.

Extension enumeration is complete for abelian kernels (actions, then
cocycles depth-first, one table per cohomology class); for nonabelian
kernels only the direct and semidirect products are produced and the
result is flagged incomplete.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from .errors import (
    BoundExceeded,
    CodomainMismatch,
    NotASubgroup,
    NotSurjective,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    close_greedily,
    find_isomorphism,
    homomorphism_witness,
    isomorphisms,
)

DEFAULT_EXTENSION_ORDER_CAP = 64
AUTOMORPHISM_CANDIDATE_CAP = 10000
SEARCH_NODE_CAP = 200000


def subdirect_product(g1: FiniteGroup, g2: FiniteGroup,
                      p1: Homomorphism, p2: Homomorphism) -> tuple:
    """The subgroup {(a,b) : p1(a) = p2(b)} of g1 × g2, built on its pairs.

    Returns (group, pairs): element i of the group is pairs[i], the pairs
    run in lexicographic order, and the product is componentwise.  Both
    projections are verified surjective, which covers both factors: every
    a in g1 has p1(a) = p2(b) for some b, as p2 is onto, and likewise
    every b in g2 a partner a.  Each product is looked up among the pairs
    and one outside them raises NotASubgroup: that is the closure check of
    the subgroup inside g1 × g2, the same |pairs|^2 lookups, without
    writing out the |g1 g2|^2 table of g1 × g2.  A nonempty finite subset
    of a group closed under the product is a subgroup, so the table is a
    group.
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
        table.append(tuple(row))
    group = FiniteGroup(tuple(table), name=f"{g1.name}x{g2.name}", _validated=True)
    return group, pairs


def _automorphisms(k: FiniteGroup, cap: int = AUTOMORPHISM_CANDIDATE_CAP) -> List[tuple]:
    """All automorphisms of a small group, as image tuples (`isomorphisms`
    from k to itself), the identity first and then in lexicographic order.
    The order-preserving image tuples are counted against `cap` first."""
    n = k.order
    orders = [k.element_order(a) for a in range(n)]
    same_order = Counter(orders)
    total = 1
    for a in range(1, n):
        total *= same_order[orders[a]]
        if total > cap:
            raise BoundExceeded(
                f"extension search: automorphism search too large: at least "
                f"{total} order-preserving image tuples for kernel "
                f"{k.name} of order {n} exceed cap {cap}")
    identity = tuple(range(n))
    return sorted(isomorphisms(k, k), key=lambda imgs: (imgs != identity, imgs))


@dataclass(frozen=True)
class ExtensionSearch:
    """Result of enumerate_extensions: validated (group, projection) pairs."""

    extensions: Tuple[tuple, ...]
    complete: bool


class _Budget:
    """The search nodes one extension search has spent, against
    SEARCH_NODE_CAP: a generator-image tuple tried for an action, a value
    tried for one factor-set entry, or a cochain or cocycle the class test
    carries along the spanning tree."""

    __slots__ = ("spent", "what")

    def __init__(self, q: FiniteGroup, k: FiniteGroup):
        self.spent = 0
        self.what = f"{k.name} by {q.name}"

    def spend(self, stage: str) -> None:
        self.spent += 1
        if self.spent > SEARCH_NODE_CAP:
            raise BoundExceeded(
                f"extension search: {stage} too large: {self.spent} search "
                f"nodes for {self.what} exceed cap {SEARCH_NODE_CAP}")


def _spanning_tree(q: FiniteGroup) -> List[tuple]:
    """Edges (x, s, x*s) of a spanning tree of q's right Cayley graph on
    `q.generators`, rooted at the identity: the products `close_greedily`
    admits while it closes the identity under the generators.  Each edge
    leaves the identity or an element reached by an earlier edge."""
    edges: List[tuple] = []
    close_greedily({0}, q.generators, q.op,
                   lambda x, s, y: edges.append((x, s, y)))
    return edges


def _actions(q: FiniteGroup, auts: List[tuple], tree: List[tuple],
             budget: _Budget) -> List[tuple]:
    """All homomorphisms q -> Aut(k) as tuples of automorphism indices,
    sorted (the order of the brute-force search over every tuple).

    A homomorphism is fixed by its images on `q.generators`: each tuple of
    generator images is carried along the spanning tree (the image of x*s
    is that of x composed with that of s) and kept when
    `homomorphism_witness` finds no failing pair.  Every homomorphism
    arises from its own generator images, and a tuple whose carried map
    passes is one, so these are exactly the tuples the brute-force search
    kept."""
    index = {imgs: i for i, imgs in enumerate(auts)}
    # auts[i] after auts[j]; the identity automorphism is index 0
    compose = [[index[tuple(map(f.__getitem__, g))] for g in auts] for f in auts]
    aut_group = FiniteGroup(compose, name="Aut")
    gens = q.generators
    actions = []
    for images in itertools.product(range(len(auts)), repeat=len(gens)):
        budget.spend("action search")
        assignment = [0] * q.order
        for s, i in zip(gens, images):
            assignment[s] = i
        for x, s, y in tree:
            assignment[y] = compose[assignment[x]][assignment[s]]
        if homomorphism_witness(q, aut_group, assignment) is None:
            actions.append(tuple(assignment))
    actions.sort()
    return actions


def _identity_checks(q: FiniteGroup) -> List[list]:
    """The 2-cocycle identities f(a,b) f(ab,c) = α_a(f(b,c)) f(a,bc) for
    a, b, c != 1, each listed under the last free pair (x, y), x, y != 1,
    that it reads, in the lexicographic order of the free pairs: entry p
    holds the identities the depth-first search can check once it sets the
    p-th free pair, each as (i(a,b), i(ab,c), a, i(b,c), i(a,bc)) with
    i(x,y) = x*|q| + y the factor-set index.  Every identity reads its own
    free pair (a, b), so each is listed exactly once; with f normalized and
    α_1 = id the identities with a 1 among a, b, c hold anyway."""
    nq, op = q.order, q.op_table
    checks: List[list] = [[] for _ in range((nq - 1) ** 2)]

    def slot(a: int, b: int) -> int:
        # position of (a, b) among the free pairs, -1 for a fixed entry
        return (a - 1) * (nq - 1) + b - 1 if a and b else -1

    for a in range(1, nq):
        for b in range(1, nq):
            ab = op[a][b]
            for c in range(1, nq):
                bc = op[b][c]
                last = max(slot(a, b), slot(ab, c), slot(b, c), slot(a, bc))
                checks[last].append((a * nq + b, ab * nq + c, a,
                                     b * nq + c, a * nq + bc))
    return checks


def _cocycles(q: FiniteGroup, k: FiniteGroup, act: List[tuple],
              checks: List[list], budget: _Budget) -> Iterator[list]:
    """The normalized factor sets f that satisfy the 2-cocycle identity for
    the action `act`, as flat lists (f(a,b) at a*|q| + b), in the
    lexicographic order of `itertools.product` over the free pairs (a, b),
    a, b != 1, the last pair fastest.

    An iterative depth-first search sets the free pairs in that order,
    trying the values 0..|k|-1 at each, and checks every identity at the
    step its last free pair is set (`_identity_checks`), backing out on the
    first failure.  A full assignment whose identities all passed is a
    cocycle, a prefix that fails an identity extends to no cocycle, and the
    leaves come out in lexicographic order, so this yields exactly the
    factor sets the filtered walk over all |k|^((|q|-1)^2) of them kept, in
    its order.  `checks` empty (no free pair) yields the trivial set."""
    nq, nk, kop = q.order, k.order, k.op_table
    f = [0] * (nq * nq)
    free = [a * nq + b for a in range(1, nq) for b in range(1, nq)] if checks else []
    tried = [-1] * len(free)
    depth = 0
    while depth >= 0:
        if depth == len(free):
            yield f.copy()
            depth -= 1
            continue
        value = tried[depth] + 1
        if value == nk:
            tried[depth] = -1
            f[free[depth]] = 0
            depth -= 1
            continue
        tried[depth] = value
        f[free[depth]] = value
        budget.spend("cocycle search")
        for ab, ab_c, a, bc, a_bc in checks[depth]:
            if kop[f[ab]][f[ab_c]] != kop[act[a][f[bc]]][f[a_bc]]:
                break
        else:
            depth += 1


class _Classes:
    """The cohomology classes met so far among the cocycles for one action
    α of q on an abelian k: f1 and f2 lie in one class when
    f1 f2^-1 = δc, δc(a,b) = α_a(c(b)) c(a) c(ab)^-1, for some c: q -> k
    (with c(1) = 1, as both are normalized).

    Along an edge (x, s, y) of the spanning tree the equation reads
    c(y) = α_x(c(s)) c(x) (f1 f2^-1)(x,s)^-1, so c is fixed by its values on
    `q.generators`.  The propagation is done once per cocycle instead of
    once per pair: `is_new` carries c from the identity on the generators
    along the tree with f in place of f1 f2^-1, which makes f0 = f δc^-1
    the identity on every tree edge.  Two such cocycles f0, g0 of one class
    differ by a δt that is the identity on the tree edges, that is by one of
    the |k|^|S| cochains t carried along the tree from their generator
    values with a trivial right-hand side; their coboundaries are listed
    once (`boundaries`).  So f is cohomologous to a cocycle met before
    exactly when f0, compared at every pair, equals one of the g0 δt
    recorded for the classes met so far."""

    def __init__(self, q: FiniteGroup, k: FiniteGroup, act: List[tuple],
                 tree: List[tuple], budget: _Budget):
        nq, kop = q.order, k.op_table
        self.kop, self.act, self.tree, self.budget = kop, act, tree, budget
        self.kinv = [k.inv(x) for x in range(k.order)]
        self.pairs = [(a, b, ab) for a in range(nq) for b, ab in enumerate(q.op_table[a])]
        self.nq = nq
        self.boundaries = []
        gens = q.generators
        for values in itertools.product(range(k.order), repeat=len(gens)):
            budget.spend("class test")
            t = [0] * nq
            for s, v in zip(gens, values):
                t[s] = v
            for x, s, y in tree:
                t[y] = kop[act[x][t[s]]][t[x]]
            self.boundaries.append(self._coboundary(t))
        self.seen: set = set()

    def _coboundary(self, c: list) -> list:
        kop, act, kinv = self.kop, self.act, self.kinv
        return [kop[kop[act[a][c[b]]][c[a]]][kinv[c[ab]]] for a, b, ab in self.pairs]

    def is_new(self, f: list) -> bool:
        """Whether f lies in no class met so far; its class is met now."""
        kop, act, kinv, nq = self.kop, self.act, self.kinv, self.nq
        self.budget.spend("class test")
        c = [0] * nq
        for x, s, y in self.tree:
            c[y] = kop[kop[act[x][c[s]]][c[x]]][kinv[f[x * nq + s]]]
        f0 = tuple(map(lambda x, y: kop[x][kinv[y]], f, self._coboundary(c)))
        if f0 in self.seen:
            return False
        for boundary in self.boundaries:
            self.budget.spend("class test")
            self.seen.add(tuple(map(lambda x, y: kop[x][y], f0, boundary)))
        return True


def enumerate_extensions(q: FiniteGroup, k: FiniteGroup,
                         max_order: int = DEFAULT_EXTENSION_ORDER_CAP) -> ExtensionSearch:
    """Groups E with a surjection onto q whose kernel is isomorphic to k.

    Elements of every candidate are the pairs (x, a) ∈ k × q in lexicographic
    order, the projection is (x, a) ↦ a, and the kernel is k × {1}.  The
    product is (x, a)(y, b) = (x α_a(y) f(a, b), ab) for an action α of q
    on k (a homomorphism, α_ab = α_a∘α_b) and a normalized factor set f.
    For abelian k the search runs over all actions q → Aut(k) (`_actions`)
    and, for each, all normalized 2-cocycles (`_cocycles`, depth-first with
    each identity checked as soon as its values are set), which is complete
    at these orders; otherwise only trivial factor sets (semidirect
    products) are tried and `complete` is False.  Expanding both
    bracketings of (x,a)(y,b)(z,c) shows that for abelian k the table is
    associative iff the cocycle identity holds (for trivial factor sets
    both sides are the identity).  Normalization and α_1 = id make (0, 1)
    the identity and every row a permutation, so each table is a group; it
    still goes through `FiniteGroup` validation, and a failure there is
    raised, never skipped.

    The kernel of the projection is k × {1}, and it multiplies as k:
    (x, 1)(y, 1) = (x α_1(y) f(1, 1), 1) = (x y, 1).  So every table is an
    extension of q by k, and no kernel isomorphism test is made.

    A cocycle gets a table only when it is not cohomologous to one already
    examined under the same action (`_Classes`).  If f' = f δc, then
    (x, a) ↦ (x c(a), a) is an isomorphism from the extension of f' onto
    that of f, which was kept, or dropped as isomorphic to a group kept
    before it; either way the isomorphism dedup would drop the new one.
    So the kept list, its order and the chosen tables are those of the
    walk over every cocycle.  With a nonabelian kernel each action has
    one factor set, and no class test is made.

    The first group found is the direct product k x q, so the result is
    never empty and always holds it.  The trivial action (every element
    to the identity automorphism, index 0 of `_automorphisms`) is a
    homomorphism and the least action tuple, so it comes first; its first
    cocycle is the all-zero one, as `_cocycles` tries 0 first at every
    free pair and the all-zero factor set satisfies every identity; the
    class test meets it first, so `is_new` passes it, and no group has
    been kept to dedup it against.  Its table puts (x, a) at index
    a |k| + x with product (x y, a b): the direct product's.

    Generator-image tuples, factor-set entries, and the cochains and
    cocycles the class test carries are search nodes; past SEARCH_NODE_CAP
    of them the search raises BoundExceeded naming the stage.  The
    isomorphism dedup compares groups of order at most |q| |k|, which
    `max_order` already admitted, so that is its order cap.
    """
    nq, nk = q.order, k.order
    if nq * nk > max_order:
        raise BoundExceeded(
            f"extension search: extension order {nq * nk} "
            f"(|{q.name}| {nq} x |{k.name}| {nk}) exceeds cap {max_order}")
    budget = _Budget(q, k)
    auts = _automorphisms(k)
    tree = _spanning_tree(q)
    actions = _actions(q, auts, tree, budget)
    complete = k.is_abelian
    checks = _identity_checks(q) if complete else []
    qop, kop = q.op_table, k.op_table

    def build(act, f) -> list:
        # element (x, a) sits at index a*nk + x, so the projection is // nk
        table = []
        for a in range(nq):
            act_a, q_a, f_a = act[a], qop[a], f[a * nq:(a + 1) * nq]
            for x in range(nk):
                k_x = [kop[x][act_a[y]] for y in range(nk)]
                table.append([q_a[b] * nk + kop[xy][f_a[b]]
                              for b in range(nq) for xy in k_x])
        return table

    proj_images = tuple(x // nk for x in range(nk * nq))
    found = []
    reps = []  # kept groups, for isomorphism dedup
    for action in actions:
        act = [auts[i] for i in action]
        classes = _Classes(q, k, act, tree, budget) if complete else None
        for f in _cocycles(q, k, act, checks, budget):
            if classes is not None and not classes.is_new(f):
                continue  # isomorphic to an extension already examined
            ext = FiniteGroup(build(act, f), name=f"{k.name}.{q.name}")
            hom = Homomorphism(ext, q, proj_images)
            if any(find_isomorphism(seen, ext, nq * nk) is not None for seen in reps):
                continue
            reps.append(ext)
            found.append((ext, hom))
    return ExtensionSearch(tuple(found), complete)
