"""Sawtooth partitions, filling walks, normal chains, eigentriangles, and
the block-code specialization.

Run:  python3 demos/04_chains.py
"""

from groupsystems import (
    STANDARD_FILLINGS,
    block_code_chains,
    build_context,
    build_system,
    complementary,
    cyclic_group,
    decompose_along_chain,
    eigentriangle_expansion,
    normal_chain,
    normal_subgroup_from_ps,
    oplus_group,
    parse_system,
    purge,
    reconstruct_from_chain,
    standard_filling,
)

c2 = parse_system("system C2\nwindow 0 3\nrule conv Z2 x0 x0+x1\n")
ctx = build_context(c2)
window, ell = c2.window, ctx.ell

# -- sawtooth partitions ---------------------------------------------------------

ps = purge(window, ell, [(1, 0)])
comp = complementary(ps)
print("lower tooth at (1,0) covers:", sorted(ps.covered()))
print("complementary upper teeth:", comp.pairs,
      "covering:", sorted(comp.covered()))

sub = normal_subgroup_from_ps(ctx, ps)
print("the tooth subgroup has order", len(sub))
op = oplus_group(ctx, comp)
print("the complementary tooth group has order", op.group.order,
      "(their product is", len(sub) * op.group.order, "= system order)")

# -- the four standard walks -------------------------------------------------------

for kind in STANDARD_FILLINGS:
    f = standard_filling(window, ell, kind)
    chain = normal_chain(ctx, f)
    orders = [step.label_count for step in chain.steps]
    rebuilt = reconstruct_from_chain(ctx, f)
    print(f"{kind:9s} step orders {orders} "
          f"rebuilds exactly: {rebuilt.sequences == c2.sequences}")

# decomposing a member along the time-reverse chain recovers its own labels
f = standard_filling(window, ell, "time_rev")
chain = normal_chain(ctx, f)
member = c2.sequences[-1]
reps = decompose_along_chain(ctx, chain, member)
print("\nchain decomposition of", member, "uses labels",
      [lab[ctx.slot_pos[s.pair]] for s, lab in zip(chain.steps, reps)])

# -- eigentriangle expansion --------------------------------------------------------

eig = eigentriangle_expansion(ctx, 2)
print("\neigentriangle chain at t=2, per-step coset counts:",
      [len(s.representatives) for s in eig.steps])

# -- a linear block code ---------------------------------------------------------------

z2 = cyclic_group(2)
parity = build_system((0, 2), [z2] * 3, [(0, 1, 1), (1, 0, 1)], name="P3")
pctx = build_context(parity)
chains, truncated = block_code_chains(pctx)
print(f"\n[3,2] parity-check code: {len(chains)} normal chains "
      f"(truncated: {truncated})")
for i, ch in enumerate(chains):
    walk = " ".join(f"({p[0]},{p[1]})" for p in ch.filling.pairs)
    print(f"   chain {i}: {walk}")
