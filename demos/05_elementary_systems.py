"""Elementary systems: extraction, the global group, roundtrips, and
bottom-up construction from seed groups.

Run:  python3 demos/05_elementary_systems.py
"""

from groupsystems import (
    ConstructionStrategy,
    build_context,
    check_homomorphism_condition,
    construct_elementary_system,
    controllability_index,
    cyclic_group,
    depth_restrict,
    dump_elementary_system,
    extract_elementary_system,
    global_group_system,
    global_product,
    parse_elementary_system,
    parse_system,
    recover_original,
    roundtrip_label_maps,
)
from groupsystems.errors import RecoveryMismatch

c2 = parse_system("system C2\nwindow 0 3\nrule conv Z2 x0 x0+x1\n")
ctx = build_context(c2)

# -- extraction -------------------------------------------------------------------

es = extract_elementary_system(ctx)
print("extracted elementary system: depth", es.depth)
for anchor in es.slots():
    print(f"   anchor {anchor}: group order {es.tables[anchor].group.order}")
ok, _ = check_homomorphism_condition(es)
print("projection condition holds?", ok)

# -- the global product agrees with the transported one -----------------------------

u1 = ctx.tensors[3]
u2 = ctx.tensors[7]
print("\nslicewise product of two tensors:", global_product(es, u1, u2))
recovered = recover_original(es, ctx)
print("recovering the original system:",
      recovered.sequences == c2.sequences)

# a reloaded dump holds other table objects than the context's own: each
# (0, t) table is compared with the context's elementary group E(0, t)
reloaded = parse_elementary_system(dump_elementary_system(es))
print("recovering from a reloaded dump accepted:",
      recover_original(reloaded, ctx).sequences == c2.sequences)

# the elementary system of another system on the same slot table: its
# tables multiply the labels mod 4, so some product of C2's tensors deviates
z4 = parse_system("system Z4\nwindow 0 3\nrule conv Z4 x0 x0+x1\n")
foreign = extract_elementary_system(build_context(z4))
try:
    recover_original(foreign, ctx)
    print("recovering against a foreign elementary system accepted")
except RecoveryMismatch as exc:
    print("recovering against a foreign elementary system rejected:",
          type(exc).__name__)
    print("   witness pair:", str(exc).removeprefix("global product deviates at "))

# -- depth restriction ----------------------------------------------------------------

top = depth_restrict(es, 1)
print("\ntop row alone is a depth-1 system on window", top.window)

# -- construction from seeds -------------------------------------------------------------

built = construct_elementary_system((0, 3), 1, cyclic_group(2), name="B")
system = global_group_system(built)
print("\nseed Z2, trivial kernel: system order", len(system),
      "ell", controllability_index(system))

strategy = ConstructionStrategy(kernels={0: cyclic_group(2)})
built2 = construct_elementary_system((0, 3), 1, cyclic_group(2), strategy,
                                     name="B2")
system2 = global_group_system(built2)
print("seed Z2, kernel Z2: system order", len(system2),
      "ell", controllability_index(system2),
      "bottom group order", built2.tables[(0, 1)].group.order)

# the construction round-trips: the re-extraction of its global system is
# isomorphic to it through the members, and here by one label map per slot
maps = roundtrip_label_maps(built2, build_context(system2))
print("re-extracted system equal up to slot labels?", maps is not None)

# -- dumps reload and re-verify -----------------------------------------------------------

text = dump_elementary_system(built2)
again = parse_elementary_system(text)
print("\ndump/reload preserves structure?",
      again.label_sizes == built2.label_sizes
      and all(again.tables[a].elements == t.elements
              and again.tables[a].group.op_table == t.group.op_table
              for a, t in built2.tables.items()))
print("dump starts with:", text.splitlines()[0])
