"""The generator group, its triangle-local elementary groups, and recovery
of the member set from per-time homomorphisms.

Run:  python3 demos/03_generator_group.py
"""

from groupsystems import (
    alpha_t_hom,
    build_context,
    build_system,
    elementary_group,
    extract_elementary_system,
    global_product,
    lower_elementary_group,
    nested_anchors,
    parse_system,
    recover_system_fhgs,
    star,
    symmetric_group_3,
    tensor_from_items,
    triangle_projection,
)
from groupsystems.groups import normal_by_cosets

c2 = parse_system("system C2\nwindow 0 3\nrule conv Z2 x0 x0+x1\n")
ctx = build_context(c2)

# -- the transported product -----------------------------------------------------

r1 = tensor_from_items(ctx.basis, {(1, 0): 1})
r2 = tensor_from_items(ctx.basis, {(1, 1): 1})
prod = star(ctx, r1, r2)
print("star of two overlapping generators selects:",
      {slot: c for slot, c in zip(ctx.slots, prod) if c})

# member i has label tensor ctx.tensors[i], so the generator group is the
# member group itself over member indices
i, j = ctx.tensor_index[r1], ctx.tensor_index[r2]
print("the member product gives the same tensor:",
      ctx.tensors[c2.index_of(c2.mul(c2.sequences[i], c2.sequences[j]))] == prod)

# -- elementary groups on triangles ------------------------------------------------

for t in c2.times():
    elem = elementary_group(ctx, 0, t)
    print(f"time-{t} local group: order {elem.group.order} on positions "
          f"{elem.positions}")

# products computed purely through the local tables agree with the global one
es = extract_elementary_system(ctx)
print("local-table product stitches to the same tensor?",
      global_product(es, r1, r2) == prod)

# -- nested projections ---------------------------------------------------------------

print("\nanchors nested in (0,2):", nested_anchors(ctx, 0, 2))
hom = triangle_projection(ctx, (0, 2), (1, 1))
print("projection (0,2) -> (1,1) surjective?", hom.is_surjective())

# -- the letter fold and recovery -------------------------------------------------------

print("\ntime-1 local group has order", elementary_group(ctx, 0, 1).group.order)
print("alpha at t=1 is a surjective homomorphism onto the alphabet:",
      alpha_t_hom(ctx, 1).is_surjective())

recovered = recover_system_fhgs(ctx)
print("recovery reproduces the member set exactly?",
      recovered.sequences == c2.sequences)

# -- a nonabelian system flows through the same machinery --------------------------------

s3 = symmetric_group_3()
flip = next(a for a in s3.elements() if s3.element_order(a) == 2)
rot = next(a for a in s3.elements() if s3.element_order(a) == 3)
rs3 = build_system((0, 1), [s3, s3], [(flip, flip), (rot, rot)], name="RS3")
ctx3 = build_context(rs3)
print("\nS3 repetition system: order", len(rs3), "ell", ctx3.ell)
sub = lower_elementary_group(ctx3, 1, 0)
print("its span-2 tooth subgroup is everything?", len(sub) == len(rs3),
      "normal?", normal_by_cosets(sub, sub, ctx3.right_cayley, ctx3.left_cayley))
print("recovery:", recover_system_fhgs(ctx3).sequences == rs3.sequences)
