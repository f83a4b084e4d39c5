"""Tour of the finite-group substrate: tables, subgroups, quotients,
and the butterfly (Zassenhaus) homomorphism.

Run:  python3 demos/01_finite_groups.py
"""

from groupsystems import (
    cyclic_group,
    direct_product,
    enumerate_extensions,
    is_isomorphic,
    is_normal,
    make_group,
    quotient,
    subdirect_product,
    subgroup_closure,
    symmetric_group_3,
    zassenhaus_hom,
)
from groupsystems.groups import Homomorphism, whole_subgroup

# -- build groups from tables -------------------------------------------------

z4 = cyclic_group(4)
s3 = symmetric_group_3()
print("Z4 table:")
for row in z4.op_table:
    print("   ", row)
print("S3 is abelian?", s3.is_abelian)

# any square table with the group axioms works; identity is relabeled to 0
klein = make_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                   name="V4")
print("V4 element orders:", [klein.element_order(a) for a in klein.elements()])

# -- subgroups, normality, quotients -------------------------------------------

h = subgroup_closure(z4, (2,))
print("\n<2> in Z4:", h.members, "normal?", is_normal(z4, h))
qp = quotient(z4, h)
print("Z4 / <2> cosets:", qp.cosets, "-> quotient of order", qp.quotient.order)

rot = next(a for a in s3.elements() if s3.element_order(a) == 3)
flip = next(a for a in s3.elements() if s3.element_order(a) == 2)
print("rotations normal in S3?", is_normal(s3, subgroup_closure(s3, (rot,))))
print("a flip normal in S3?  ", is_normal(s3, subgroup_closure(s3, (flip,))))

# -- the butterfly homomorphism -------------------------------------------------

z8 = cyclic_group(8)
hom = zassenhaus_hom(z8,
                     subgroup_closure(z8, (4,)), subgroup_closure(z8, (2,)),
                     subgroup_closure(z8, (4,)), whole_subgroup(z8))
print("\nbutterfly map on a Z8 chain: domain order", hom.domain.order,
      "bijective?", hom.is_injective() and hom.is_surjective())

# -- subdirect products and extensions -------------------------------------------

z2 = cyclic_group(2)
mod2 = Homomorphism(z4, z2, (0, 1, 0, 1))
sub, _ = subdirect_product(z4, z4, mod2, mod2)
print("\nsubdirect product of two Z4 over Z2 has order", sub.order)

search = enumerate_extensions(z2, z2)
print("extensions of Z2 by Z2:",
      [("Z4" if is_isomorphic(e, z4) else "V4") for e, _ in search.extensions],
      "complete search?", search.complete)

z6 = direct_product(z2, cyclic_group(3))[0]
search = enumerate_extensions(z2, cyclic_group(3))
names = ["S3" if is_isomorphic(e, s3) else "Z6" if is_isomorphic(e, z6) else "?"
         for e, _ in search.extensions]
print("extensions of Z2 by Z3:", names)
