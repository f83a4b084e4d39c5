"""Finite group arithmetic on explicit operation tables.

Elements are indices ``0..order-1`` with the identity pinned at index 0.
Constructors relabel when the two-sided identity sits elsewhere, so every
serialized table is deterministic.  All values are immutable after
construction; operations are pure functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

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

    __slots__ = ("order", "op_table", "name", "_inv", "_abelian", "_gens")

    def __init__(self, op_table: Sequence[Sequence[int]], name: str = "G",
                 _validated: bool = False):
        # _validated: a group table built from int tables, which holds ints
        # already; a tuple of tuple rows is taken as it is
        if not _validated:
            table = tuple(tuple(map(int, row)) for row in op_table)
        elif isinstance(op_table, tuple):
            table = op_table
        else:
            table = tuple(map(tuple, op_table))
        self.order = len(table)
        self.op_table = table
        self.name = name
        self._inv: Optional[tuple] = None
        self._abelian: Optional[bool] = None
        self._gens: Optional[tuple] = None
        if not _validated:
            self._gens = _validate_table(table)

    # -- arithmetic ------------------------------------------------------

    def op(self, a: int, b: int) -> int:
        return self.op_table[a][b]

    def inv(self, a: int) -> int:
        if self._inv is None:
            # row x holds 0 once, at the inverse of x (`_check_axioms`)
            self._inv = tuple(row.index(0) for row in self.op_table)
        return self._inv[a]

    def conj(self, a: int, b: int) -> int:
        """b * a * b^-1."""
        return self.op(self.op(b, a), self.inv(b))

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != 0:
            x = self.op(x, a)
            n += 1
        return n

    def elements(self) -> range:
        return range(self.order)

    def renamed(self, name: str) -> "FiniteGroup":
        """The same group under another name, sharing the table and the
        inverses, commutativity and generators found so far."""
        g = FiniteGroup(self.op_table, name=name, _validated=True)
        g._inv, g._abelian, g._gens = self._inv, self._abelian, self._gens
        return g

    @property
    def generators(self) -> tuple:
        """Greedy generators: each index not yet reached from the identity
        by right multiplication with the earlier ones (`close_greedily`)."""
        if self._gens is None:
            self._gens = _greedy_generators(self.op_table)
        return self._gens

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


def _greedy_generators(table: tuple) -> tuple:
    closure: set = {0}
    return tuple(close_greedily(closure, range(1, len(table)),
                                lambda a, s: table[a][s], _accept))


def _accept(a, s, prod) -> None:
    pass


def _check_row(a: int, row: Sequence[int], n: int) -> None:
    """Row a of an n x n table has length n and entries in 0..n-1; the
    range is read with `min`/`max`, and only a row that fails is walked
    entry by entry for the first bad (a, b, entry)."""
    if len(row) != n:
        raise AxiomViolation("closure", f"row {a} has length {len(row)}")
    if n and (min(row) < 0 or max(row) >= n):
        b = next(b for b, x in enumerate(row) if not 0 <= x < n)
        raise AxiomViolation("closure", (a, b, row[b]))


def _validate_table(table: tuple) -> tuple:
    """Check the group axioms; return the greedy generators of the table.
    Associativity is Light's test (`associativity_witness`)."""
    n = len(table)
    if n == 0:
        raise AxiomViolation("closure", "empty table")
    for a, row in enumerate(table):
        _check_row(a, row, n)
    return _check_axioms(table)


def _check_axioms(table: tuple) -> tuple:
    """`_validate_table` after the row checks: identity at 0, inverses and
    associativity; returns the greedy generators."""
    n = len(table)
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise AxiomViolation("identity", a)
    for a in range(n):
        if 0 not in table[a]:
            raise AxiomViolation("inverse", a)
        b = table[a].index(0)
        if table[b][a] != 0:
            raise AxiomViolation("inverse", (a, b))
    gens = _greedy_generators(table)
    # 0 is the identity, so Light's test needs only the generators
    bad = associativity_witness(table, gens)
    if bad is not None:
        raise AxiomViolation("associativity", bad)
    return gens


def associativity_witness(table: tuple, gens: Sequence[int]) -> Optional[tuple]:
    """Light's test on a table of tuple rows: the first (x, s, y) with
    (x s) y != x (s y), s running over `gens`, or None; n^2 |gens| lookups.

    None proves the table associative when `gens` holds 0 (or 0 is the
    identity) and the greedy generators, which reach every element from 0
    by right multiplication: with no assumption on the table, the a with
    (x a) y = x (a y) for all x, y are closed under the product, for
    (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y)."""
    n = len(table)
    if n == 1:  # [[0]], the only 1 x 1 table, is associative
        return None
    for s in gens:
        right = itemgetter(*table[s])  # row x -> (x (s y) for each y)
        for x, row_x in enumerate(table):
            left = table[row_x[s]]     # ((x s) y for each y)
            if left != right(row_x):
                y = next(y for y in range(n) if left[y] != row_x[table[s][y]])
                return x, s, y
    return None


def class_table(op: Sequence[Sequence[int]], cls, reps: Sequence[int]) -> tuple:
    """The table a congruence of the table `op` induces on its classes, as
    tuple rows: class c times class d is the class cls[x] of x = reps[c]
    reps[d].  Cosets, subgroup members by position, slice classes and
    relabelings (cls a permutation, reps its inverse) are all read off
    this way."""
    get = cls.__getitem__
    return tuple(tuple(map(get, map(row.__getitem__, reps)))
                 for row in map(op.__getitem__, reps))


def make_group(op_table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate a square table as a group, relabeling identity to index 0.
    The entries are converted and each row is range-checked once, then
    the remaining axioms are checked, and the group keeps the generators
    that check found."""
    table = tuple(tuple(map(int, row)) for row in op_table)
    n = len(table)
    for a, row in enumerate(table):
        _check_row(a, row, n)
    # the first e whose row and column are both 0..n-1, index 0 tried first
    labels = tuple(range(n))
    ident = next((e for e in range(n) if table[e] == labels
                  and tuple(row[e] for row in table) == labels), None)
    if ident is None:
        raise AxiomViolation("identity", None)
    if ident != 0:
        # swap labels 0 <-> ident, a transposition and so its own inverse
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0
        table = class_table(table, perm, perm)
    gens = _check_axioms(table)
    g = FiniteGroup(table, name=name, _validated=True)
    g._gens = gens
    return g


def cyclic_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
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

        def vet(a: int, s: int, prod: int) -> None:
            if prod not in memset:
                raise NotASubgroup(f"product {a}*{s} escapes")

        # closed iff no product escapes (`GroupSystem.verify_closure`)
        gens = close_greedily({0}, mem, self.parent.op, vet)
        object.__setattr__(self, "_generators", tuple(gens))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def generators(self) -> tuple:
        """The members the closure check took as generators: each member,
        in ascending order, not yet reached from the identity by right
        multiplication with the earlier ones (`close_greedily`).  The check
        passed, so they generate this subgroup."""
        return self._generators

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
        return FiniteGroup(class_table(self.parent.op_table, pos, embed),
                           name=name, _validated=True), embed

    def quotient_by(self, inner: Sequence[int], name: str = "H") -> tuple:
        """This subgroup over the normal subgroup whose members (parent
        indices, each in this one) are `inner`, on the table of
        `as_group(name)`: (presentation, pos) with pos[m] the index of
        member m in that table.  NotNormal (`quotient`) when `inner` is
        not normal here."""
        group, embed = self.as_group(name)
        pos = {m: i for i, m in enumerate(embed)}
        return quotient(group, Subgroup(group, tuple(map(pos.__getitem__, inner)))), pos


def whole_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (0,))


def close_greedily(closure: set, candidates: Iterable, mul, vet) -> list:
    """Grow `closure` (a set holding the identity) to the subgroup generated
    by `candidates`, and return the candidates taken as generators.  A
    candidate becomes a generator only when it lies outside the closure so
    far; the closure then grows breadth-first by right multiplication, old
    members needing only the new generator and members found on the way
    every generator.  `vet(a, s, a*s)` sees each new product before it
    joins, and may raise."""
    gens: list = []
    for g in candidates:
        if g in closure:
            continue
        gens.append(g)
        frontier, step = list(closure), (g,)
        while frontier:
            found = []
            for a in frontier:
                for s in step:
                    prod = mul(a, s)
                    if prod not in closure:
                        vet(a, s, prod)
                        closure.add(prod)
                        found.append(prod)
            frontier, step = found, gens
    return gens


def subgroup_closure(g: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup of g containing seeds (`close_greedily`)."""
    closed = {0}
    close_greedily(closed, (int(s) for s in seeds), g.op, _accept)
    return Subgroup(g, tuple(sorted(closed)))


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """Whether h is normal in g: s·x·s^{-1} in h for every generator s of g
    and every generator x of h, |S_G|·|S_H| conjugates.

    Conjugation by s is an automorphism of g, so s<S_H>s^{-1} = <s S_H s^{-1}>
    lies in h, and equals h since both have |h| elements.  The normalizer
    of h is a subgroup of g holding every generator s, so it is g (Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005, §4.1-4.3).
    The premise is that g is a group generated by `g.generators`: every
    `FiniteGroup` is validated, or is built `_validated=True` from a table
    that is already a group (a sequence group from its closed member set,
    `as_group`, a quotient, a direct or subdirect product, a relabeled
    group), and its greedy generators reach every element.  `h.generators`
    generate h because `Subgroup` checked its closure from them."""
    if h.parent is not g:
        raise NotASubgroup("subgroup of a different parent")
    hset = h.member_set()
    return all(g.conj(x, s) in hset for s in g.generators for x in h.generators)


def homomorphism_witness(domain: FiniteGroup, codomain: FiniteGroup,
                         images: Sequence[int]) -> Optional[tuple]:
    """A pair (a, s) with images[a*s] != images[a]*images[s], s the identity
    or a generator of `domain`, or None when there is none.

    None means `images` is a homomorphism: checking s = 0 gives
    images[0] = 1, and the set of b with images[a b] = images[a] images[b]
    for all a is closed under the product in the two groups (images[a (b c)]
    = images[(a b) c] = (images[a] images[b]) images[c]
    = images[a] images[b c]), so holding the generators it holds every
    element.  The cost is |domain| x (|generators| + 1) lookups."""
    op, cop = domain.op_table, codomain.op_table
    for s in (0,) + domain.generators:
        image_s = images[s]
        for a, row in enumerate(op):
            if images[row[s]] != cop[images[a]][image_s]:
                return a, s
    return None


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism via a per-element image table, verified on the
    domain's generators (`homomorphism_witness`) unless `check` is off."""

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
            bad = homomorphism_witness(self.domain, self.codomain, images)
            if bad is not None:
                raise PreconditionViolated(
                    f"not a homomorphism at pair ({bad[0]},{bad[1]})")

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
    """Coset-enumerate g/h and induce the quotient table (`class_table`).
    One ascending pass numbers the cosets a h: the first element not yet
    classed is the least of its coset, so the cosets are numbered by their
    least elements, which are the representatives."""
    if h.parent is not g:
        raise NotASubgroup("subgroup of a different parent")
    if not is_normal(g, h):
        raise NotNormal(f"{h.members} is not normal")
    op, cls, reps = g.op_table, [-1] * g.order, []
    for a, row in enumerate(op):
        if cls[a] < 0:
            for x in h.members:
                cls[row[x]] = len(reps)
            reps.append(a)
    cosets = tuple(tuple(sorted(op[a][x] for x in h.members)) for a in reps)
    q = FiniteGroup(class_table(op, cls, reps), name=name or f"{g.name}/H",
                    _validated=True)
    return QuotientPresentation(g, h, cosets, q, Homomorphism(g, q, cls))


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
        try:
            sup.quotient_by(sub.members)
        except NotNormal:
            raise PreconditionViolated(f"{tag}: not normal") from None

    inter_star = intersect_subgroups(g, ustar, vstar)
    d = product_of_subgroups(g, intersect_subgroups(g, ustar, v),
                             intersect_subgroups(g, u, vstar))
    numerator = product_of_subgroups(g, u, inter_star)
    denominator = product_of_subgroups(g, u, intersect_subgroups(g, ustar, v))
    # codomain (U*∩V*)/D and domain U(U*∩V*)/U(U*∩V)
    qp_cod, star_pos = inter_star.quotient_by(d.members)
    qp_dom, _ = numerator.quotient_by(denominator.members)

    # f on elements: x = u·u* maps to coset D·u*
    uset = u.member_set()
    f_values = [next((qp_cod.coset_index(star_pos[y]) for y in inter_star.members
                      if g.op(x, g.inv(y)) in uset), None) for x in numerator.members]
    if None in f_values:
        raise PreconditionViolated("element of U(U*∩V*) without u·u* factorization")
    # well-definedness + homomorphism property on the subgroup
    raw = Homomorphism(qp_dom.parent, qp_cod.quotient, f_values)
    kernel_members = tuple(numerator.members[a] for a in raw.kernel().members)
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

    Row (a1, b1) is (a1 a2, b1 b2) over the pairs (a2, b2) in that order,
    so it is built from row a1 of g1 and row b1 of g2.

    Returns (group, proj1, proj2).
    """
    n1, n2 = g1.order, g2.order
    table = tuple(tuple([x * n2 + y for x in row1 for y in row2])
                  for row1 in g1.op_table for row2 in g2.op_table)
    g = FiniteGroup(table, name=name or f"{g1.name}x{g2.name}", _validated=True)
    proj1 = Homomorphism(g, g1, tuple(x // n2 for x in range(n1 * n2)), check=False)
    proj2 = Homomorphism(g, g2, tuple(x % n2 for x in range(n1 * n2)), check=False)
    return g, proj1, proj2


def isomorphisms(g1: FiniteGroup, g2: FiniteGroup,
                 order_cap: int = DEFAULT_ORDER_CAP) -> Iterator[tuple]:
    """Every isomorphism g1 -> g2 as an image tuple, each once.

    Depth-first over the greedy generators s_1, s_2, ... of g1: s_i is
    tried at each unused element of g2 of its order, in index order.  A
    node holds an injective homomorphism φ on H = <s_1..s_{i-1}>, and the
    trial s_i -> b grows it to H' = <H, s_i> by right multiplication: the
    elements of H (taking only s_i) and every element found on the way
    (taking each s_j, j <= i) map x*s to φ(x)φ(s), a product landing on an
    unmapped element gives it that image (rejected if the image is
    taken), and one landing on a mapped element must agree.  The elements
    found are H' (they hold the identity and are closed under right
    multiplication by the generators), and φ(xs) = φ(x)φ(s) for every x in
    H' and generator s makes φ a homomorphism on H' (see
    `homomorphism_witness`), injective by construction.  Conversely an
    injective homomorphism on H' extending φ with s_i -> b agrees with
    every image assigned, so the trial passes exactly when one exists.  A
    leaf maps all of g1, so it is an isomorphism, and each isomorphism is
    the leaf of its generator images.  A node costs |H'| x i lookups.

    Desk-scale only: raises BoundExceeded above `order_cap`.
    """
    if g1.order != g2.order:
        return
    if g1.order > order_cap:
        raise BoundExceeded(f"isomorphism search: order {g1.order} "
                            f"exceeds cap {order_cap}")
    n = g1.order
    orders1 = [g1.element_order(a) for a in range(n)]
    orders2 = [g2.element_order(a) for a in range(n)]
    if sorted(orders1) != sorted(orders2):
        return
    gens = g1.generators
    op1, op2 = g1.op_table, g2.op_table
    candidates = [[b for b in range(n) if orders2[b] == orders1[a]] for a in gens]

    def extend(images: list, used: bytearray, mapped: list,
               i: int) -> Iterator[tuple]:
        if i == len(gens):
            yield tuple(images)
            return
        a, step = gens[i], gens[:i + 1]
        for b in candidates[i]:
            if used[b]:
                continue
            new_images, new_used = images.copy(), bytearray(used)
            new_images[a], new_used[b] = b, 1
            found = mapped + [a]
            ok = True
            for pos, x in enumerate(found):
                row, image_row = op1[x], op2[new_images[x]]
                for s in (step if pos >= len(mapped) else (a,)):
                    y, image = row[s], image_row[new_images[s]]
                    got = new_images[y]
                    if got < 0:
                        if new_used[image]:
                            ok = False
                            break
                        new_images[y], new_used[image] = image, 1
                        found.append(y)
                    elif got != image:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                yield from extend(new_images, new_used, found, i + 1)

    start_images = [-1] * n
    start_images[0] = 0
    start_used = bytearray(n)
    start_used[0] = 1
    yield from extend(start_images, start_used, [0], 0)


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup,
                     order_cap: int = DEFAULT_ORDER_CAP) -> Optional[tuple]:
    """The first isomorphism g1 -> g2 of `isomorphisms`, or None."""
    return next(isomorphisms(g1, g2, order_cap), None)


def is_isomorphic(g1: FiniteGroup, g2: FiniteGroup,
                  order_cap: int = DEFAULT_ORDER_CAP) -> bool:
    return find_isomorphism(g1, g2, order_cap=order_cap) is not None
