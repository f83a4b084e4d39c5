"""Finite group arithmetic on explicit operation tables.

Elements are indices ``0..order-1`` with the identity pinned at index 0.
Constructors relabel when the two-sided identity sits elsewhere, so every
serialized table is deterministic.  All values are immutable after
construction; operations are pure functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import (
    AxiomViolation,
    BoundExceeded,
    NotASubgroup,
    NotASubgroupResult,
    NotNormal,
    PreconditionViolated,
)

DEFAULT_ORDER_CAP = 64


class FiniteGroup:
    """A finite group given by a full Cayley table over element indices."""

    __slots__ = ("order", "op_table", "name", "_inv", "_abelian")

    def __init__(self, op_table: Sequence[Sequence[int]], name: str = "G",
                 _validated: bool = False):
        table = tuple(tuple(int(x) for x in row) for row in op_table)
        self.order = len(table)
        self.op_table = table
        self.name = name
        self._inv: Optional[tuple] = None
        self._abelian: Optional[bool] = None
        if not _validated:
            _validate_table(table)

    # -- arithmetic ------------------------------------------------------

    def op(self, a: int, b: int) -> int:
        return self.op_table[a][b]

    def inv(self, a: int) -> int:
        if self._inv is None:
            inv = [0] * self.order
            for x in range(self.order):
                for y in range(self.order):
                    if self.op_table[x][y] == 0:
                        inv[x] = y
                        break
            self._inv = tuple(inv)
        return self._inv[a]

    def conj(self, a: int, b: int) -> int:
        """b * a * b^-1."""
        return self.op(self.op(b, a), self.inv(b))

    def power(self, a: int, n: int) -> int:
        if n < 0:
            return self.power(self.inv(a), -n)
        acc = 0
        for _ in range(n):
            acc = self.op(acc, a)
        return acc

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != 0:
            x = self.op(x, a)
            n += 1
        return n

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = all(
                self.op_table[a][b] == self.op_table[b][a]
                for a in range(self.order) for b in range(a + 1, self.order)
            )
        return self._abelian

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _validate_table(table: tuple) -> None:
    n = len(table)
    if n == 0:
        raise AxiomViolation("closure", "empty table")
    for a, row in enumerate(table):
        if len(row) != n:
            raise AxiomViolation("closure", f"row {a} has length {len(row)}")
        for b, x in enumerate(row):
            if not 0 <= x < n:
                raise AxiomViolation("closure", (a, b, x))
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise AxiomViolation("identity", a)
    for a in range(n):
        if 0 not in table[a]:
            raise AxiomViolation("inverse", a)
        b = table[a].index(0)
        if table[b][a] != 0:
            raise AxiomViolation("inverse", (a, b))
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise AxiomViolation("associativity", (a, b, c))


def make_group(op_table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate a square table as a group, relabeling identity to index 0."""
    table = [list(int(x) for x in row) for row in op_table]
    n = len(table)
    for a, row in enumerate(table):
        if len(row) != n:
            raise AxiomViolation("closure", f"row {a} has length {len(row)}")
        for b, x in enumerate(row):
            if not 0 <= x < n:
                raise AxiomViolation("closure", (a, b, x))
    ident = None
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            ident = e
            break
    if ident is None:
        raise AxiomViolation("identity", None)
    if ident != 0:
        # swap labels 0 <-> ident
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0
        table = [[perm.index(table[perm[a]][perm[b]]) for b in range(n)]
                 for a in range(n)]
    return FiniteGroup(table, name=name)


def cyclic_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=name or f"Z{n}", _validated=True)


def trivial_group(name: str = "Z1") -> FiniteGroup:
    return cyclic_group(1, name=name)


def symmetric_group_3(name: str = "S3") -> FiniteGroup:
    """S3 built from permutation composition, identity relabeled to 0."""
    perms = sorted(itertools.permutations(range(3)))
    # put identity first
    perms.sort(key=lambda p: (p != (0, 1, 2), p))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return make_group(table, name=name)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of `parent` as a sorted member-index tuple."""

    parent: FiniteGroup
    members: tuple

    def __post_init__(self):
        mem = tuple(sorted(set(int(m) for m in self.members)))
        object.__setattr__(self, "members", mem)
        memset = frozenset(mem)
        object.__setattr__(self, "_member_set", memset)
        if 0 not in memset:
            raise NotASubgroup("identity missing")
        for a in mem:
            if self.parent.inv(a) not in memset:
                raise NotASubgroup(f"inverse of {a} missing")
            for b in mem:
                if self.parent.op(a, b) not in memset:
                    raise NotASubgroup(f"product {a}*{b} escapes")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self._member_set

    def member_set(self) -> frozenset:
        return self._member_set

    def as_group(self, name: str = "H") -> tuple:
        """Materialize as a FiniteGroup plus the embedding into the parent.

        Returns (group, embed) where embed[i] is the parent index of
        subgroup element i; the identity stays at index 0.
        """
        embed = list(self.members)  # sorted, 0 first
        pos = {m: i for i, m in enumerate(embed)}
        table = [[pos[self.parent.op(a, b)] for b in embed] for a in embed]
        return FiniteGroup(table, name=name, _validated=True), embed


def whole_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (0,))


def subgroup_closure(g: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup of g containing seeds, by product saturation."""
    closed = {0}
    frontier = [0] + [int(s) for s in seeds]
    closed.update(frontier)
    while frontier:
        new = []
        for a in list(closed):
            for b in frontier:
                for x in (g.op(a, b), g.op(b, a)):
                    if x not in closed:
                        closed.add(x)
                        new.append(x)
        frontier = new
    # finite closure under products already contains inverses
    return Subgroup(g, tuple(sorted(closed)))


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """Exhaustive conjugation test a·h·a^{-1} = h for all a in g."""
    if h.parent is not g:
        raise NotASubgroup("subgroup of a different parent")
    hset = h.member_set()
    for a in range(g.order):
        for x in h.members:
            if g.conj(x, a) not in hset:
                return False
    return True


@dataclass(frozen=True)
class Homomorphism:
    """A verified homomorphism via a per-element image table."""

    domain: FiniteGroup
    codomain: FiniteGroup
    image_of: tuple
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        images = tuple(int(x) for x in self.image_of)
        object.__setattr__(self, "image_of", images)
        if len(images) != self.domain.order:
            raise PreconditionViolated("image table has wrong length")
        if self.check:
            for a in range(self.domain.order):
                for b in range(self.domain.order):
                    lhs = images[self.domain.op(a, b)]
                    rhs = self.codomain.op(images[a], images[b])
                    if lhs != rhs:
                        raise PreconditionViolated(
                            f"not a homomorphism at pair ({a},{b})")

    def __call__(self, a: int) -> int:
        return self.image_of[a]

    def kernel(self) -> Subgroup:
        return Subgroup(self.domain,
                        tuple(a for a, x in enumerate(self.image_of) if x == 0))

    def image(self) -> Subgroup:
        return Subgroup(self.codomain, tuple(sorted(set(self.image_of))))

    def is_surjective(self) -> bool:
        return len(set(self.image_of)) == self.codomain.order

    def is_injective(self) -> bool:
        return len(set(self.image_of)) == self.domain.order

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """self ∘ inner (inner applied first)."""
        if inner.codomain is not self.domain:
            raise PreconditionViolated("composition domain mismatch")
        return Homomorphism(inner.domain, self.codomain,
                            tuple(self.image_of[x] for x in inner.image_of),
                            check=False)


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient g/h with deterministic coset representatives.

    Cosets are sorted by their least element; representatives are those
    least elements, so the identity coset is index 0 with representative 0.
    """

    parent: FiniteGroup
    normal_subgroup: Subgroup
    cosets: tuple
    quotient: FiniteGroup
    projection: Homomorphism

    @property
    def representatives(self) -> tuple:
        return tuple(c[0] for c in self.cosets)

    def coset_index(self, a: int) -> int:
        return self.projection(a)


def quotient(g: FiniteGroup, h: Subgroup, name: Optional[str] = None) -> QuotientPresentation:
    """Coset-enumerate g/h and induce the quotient table."""
    if h.parent is not g:
        raise NotASubgroup("subgroup of a different parent")
    if not is_normal(g, h):
        raise NotNormal(f"{h.members} is not normal")
    hset = h.member_set()
    seen = {}
    cosets = []
    for a in range(g.order):
        if a in seen:
            continue
        coset = tuple(sorted(g.op(a, x) for x in hset))
        cosets.append(coset)
        for y in coset:
            seen[y] = True
    cosets.sort(key=lambda c: c[0])
    index_of = {}
    for i, coset in enumerate(cosets):
        for y in coset:
            index_of[y] = i
    reps = [c[0] for c in cosets]
    table = [[index_of[g.op(reps[i], reps[j])] for j in range(len(cosets))]
             for i in range(len(cosets))]
    q = FiniteGroup(table, name=name or f"{g.name}/H", _validated=True)
    proj = Homomorphism(g, q, tuple(index_of[a] for a in range(g.order)))
    assert q.order * h.order == g.order
    return QuotientPresentation(g, h, tuple(cosets), q, proj)


def intersect_subgroups(g: FiniteGroup, h1: Subgroup, h2: Subgroup) -> Subgroup:
    return Subgroup(g, tuple(sorted(h1.member_set() & h2.member_set())))


def product_of_subgroups(g: FiniteGroup, h1: Subgroup, h2: Subgroup) -> Subgroup:
    """The set product h1·h2, required to be a subgroup.

    Closure holds whenever one factor is normal in g; the result is checked
    either way and NotASubgroupResult raised if the set product fails.
    """
    prod = set()
    for a in h1.members:
        for b in h2.members:
            prod.add(g.op(a, b))
    try:
        return Subgroup(g, tuple(sorted(prod)))
    except NotASubgroup as exc:
        raise NotASubgroupResult(str(exc)) from exc


def quotient_of_subgroups(g: FiniteGroup, num: Subgroup, den: Subgroup,
                          name: Optional[str] = None) -> QuotientPresentation:
    """Quotient num/den for den ⊲ num, both subgroups of g.

    The returned presentation lives on num materialized as its own group;
    coset members are reported in parent indices via `cosets_in_parent`.
    """
    if not den.member_set() <= num.member_set():
        raise NotASubgroup("denominator not contained in numerator")
    num_group, embed = num.as_group(name=f"{g.name}|num")
    pos = {m: i for i, m in enumerate(embed)}
    den_local = Subgroup(num_group, tuple(pos[m] for m in den.members))
    qp = quotient(num_group, den_local, name=name)
    return qp


def cosets_in_parent(qp: QuotientPresentation, embed: Sequence[int]) -> tuple:
    return tuple(tuple(embed[x] for x in coset) for coset in qp.cosets)


def zassenhaus_hom(g: FiniteGroup, u: Subgroup, ustar: Subgroup,
                   v: Subgroup, vstar: Subgroup) -> Homomorphism:
    """The butterfly map f: U(U*∩V*) → (U*∩V*)/D with D = (U*∩V)(U∩V*).

    Returns the induced isomorphism between the quotient presentations
    U(U*∩V*)/U(U*∩V) and (U*∩V*)/D, verifying on the way that f is a
    well-defined homomorphism on U(U*∩V*) with kernel U(U*∩V).
    """
    for sub, sup, tag in ((u, ustar, "U ⊲ U*"), (v, vstar, "V ⊲ V*")):
        if not sub.member_set() <= sup.member_set():
            raise PreconditionViolated(f"{tag}: not contained")
        sup_group, embed = sup.as_group()
        pos = {m: i for i, m in enumerate(embed)}
        if not is_normal(sup_group, Subgroup(sup_group, tuple(pos[m] for m in sub.members))):
            raise PreconditionViolated(f"{tag}: not normal")

    inter_star = intersect_subgroups(g, ustar, vstar)
    d = product_of_subgroups(g, intersect_subgroups(g, ustar, v),
                             intersect_subgroups(g, u, vstar))
    numerator = product_of_subgroups(g, u, inter_star)
    denominator = product_of_subgroups(g, u, intersect_subgroups(g, ustar, v))

    # codomain presentation (U*∩V*)/D
    star_group, star_embed = inter_star.as_group()
    star_pos = {m: i for i, m in enumerate(star_embed)}
    qp_cod = quotient(star_group, Subgroup(star_group, tuple(star_pos[m] for m in d.members)))

    # domain presentation U(U*∩V*)/U(U*∩V)
    num_group, num_embed = numerator.as_group()
    num_pos = {m: i for i, m in enumerate(num_embed)}
    qp_dom = quotient(num_group,
                      Subgroup(num_group, tuple(num_pos[m] for m in denominator.members)))

    # f on elements: x = u·u* maps to coset D·u*
    uset = u.member_set()
    f_values = []
    for x in numerator.members:
        img = None
        for ustar_elt in inter_star.members:
            if g.op(x, g.inv(ustar_elt)) in uset:
                img = qp_cod.coset_index(star_pos[ustar_elt])
                break
        if img is None:
            raise PreconditionViolated("element of U(U*∩V*) without u·u* factorization")
        f_values.append(img)
    # well-definedness + homomorphism property on the subgroup
    raw = Homomorphism(num_group, qp_cod.quotient,
                       tuple(f_values[num_pos[m]] for m in numerator.members))
    kernel_members = tuple(sorted(num_embed[a] for a in raw.kernel().members))
    if kernel_members != denominator.members:
        raise PreconditionViolated("Zassenhaus kernel mismatch")

    induced = Homomorphism(
        qp_dom.quotient, qp_cod.quotient,
        tuple(raw(qp_dom.cosets[i][0]) for i in range(qp_dom.quotient.order)))
    if not (induced.is_injective() and induced.is_surjective()):
        raise PreconditionViolated("Zassenhaus map not an isomorphism")
    return induced


def direct_product(g1: FiniteGroup, g2: FiniteGroup,
                   name: Optional[str] = None) -> tuple:
    """g1 × g2 with lexicographic pair order (a,b) ↦ a·|g2|+b.

    Returns (group, proj1, proj2).
    """
    n1, n2 = g1.order, g2.order
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[a1 * n2 + b1][a2 * n2 + b2] = \
                        g1.op(a1, a2) * n2 + g2.op(b1, b2)
    g = FiniteGroup(table, name=name or f"{g1.name}x{g2.name}", _validated=True)
    proj1 = Homomorphism(g, g1, tuple(x // n2 for x in range(n1 * n2)), check=False)
    proj2 = Homomorphism(g, g2, tuple(x % n2 for x in range(n1 * n2)), check=False)
    return g, proj1, proj2


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup,
                     order_cap: int = DEFAULT_ORDER_CAP) -> Optional[tuple]:
    """Exhaustive bijection search, pruned by element orders.

    Desk-scale only: raises BoundExceeded above `order_cap`.
    """
    if g1.order != g2.order:
        return None
    if g1.order > order_cap:
        raise BoundExceeded(f"isomorphism search capped at order {order_cap}")
    n = g1.order
    orders1 = [g1.element_order(a) for a in range(n)]
    orders2 = [g2.element_order(a) for a in range(n)]
    if sorted(orders1) != sorted(orders2):
        return None
    # generators of g1 greedily
    gens = []
    span = subgroup_closure(g1, ())
    for a in range(n):
        if a not in span:
            gens.append(a)
            span = subgroup_closure(g1, gens)
            if span.order == n:
                break
    candidates = {a: [b for b in range(n) if orders2[b] == orders1[a]] for a in gens}

    def extend(mapping: dict, pending: list) -> Optional[dict]:
        if not pending:
            return mapping
        a = pending[0]
        for b in candidates[a]:
            if b in mapping.values():
                continue
            new = dict(mapping)
            new[a] = b
            # close under products, checking consistency
            ok = True
            frontier = list(new.items())
            while frontier and ok:
                nxt = []
                items = list(new.items())
                for x1, y1 in frontier:
                    for x2, y2 in items:
                        for xa, ya in ((g1.op(x1, x2), g2.op(y1, y2)),
                                       (g1.op(x2, x1), g2.op(y2, y1))):
                            got = new.get(xa)
                            if got is None:
                                if ya in new.values():
                                    ok = False
                                    break
                                new[xa] = ya
                                nxt.append((xa, ya))
                            elif got != ya:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                frontier = nxt
            if ok and len(new) <= n:
                result = extend(new, pending[1:])
                if result is not None:
                    return result
        return None

    mapping = extend({0: 0}, gens)
    if mapping is None or len(mapping) != n:
        return None
    images = tuple(mapping[a] for a in range(n))
    if len(set(images)) != n:
        return None
    for a in range(n):
        for b in range(n):
            if images[g1.op(a, b)] != g2.op(images[a], images[b]):
                return None
    return images


def is_isomorphic(g1: FiniteGroup, g2: FiniteGroup,
                  order_cap: int = DEFAULT_ORDER_CAP) -> bool:
    return find_isomorphism(g1, g2, order_cap=order_cap) is not None
