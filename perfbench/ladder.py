"""The stage ladder: a fixed set of systems, each run once through every
traced stage under tracing, with a per-stage table of self times in ms.

The 256-member systems appear only here, so a timed run stays short.  The
ladder also makes every traced function run in every traced run.
"""

from __future__ import annotations

import math

from workloads import DATA, rule_text

# (name, what it is, expected order)
LADDER = (
    ("z2_w4", "Z2 x0 x0+x1 on [0,3]", 2 ** 4),
    ("z2_w6", "Z2 x0 x0+x1 on [0,5]", 2 ** 6),
    ("z2_w8", "Z2 x0 x0+x1 on [0,7]", 2 ** 8),
    ("z4_w4", "Z4 x0 x0+x1 on [0,3]", 4 ** 4),
    ("s3_rep", "S3 repetition on [0,1]", 6),
    ("twisted", "construct (0,4) ell=2 Z2, Z2 kernel, twisted", 128),
)

TEXTS = {
    "z2_w4": rule_text(2, 4, ("x0", "x0+x1")),
    "z2_w6": rule_text(2, 6, ("x0", "x0+x1")),
    "z2_w8": rule_text(2, 8, ("x0", "x0+x1")),
    "z4_w4": rule_text(4, 4, ("x0", "x0+x1")),
}


def run_system(gs, name: str, order: int) -> str:
    """Run every stage once on one ladder system; '' if its verdicts hold."""
    if name == "twisted":
        z2 = gs.io.resolve_group("Z2")
        strategy = gs.elementary.ConstructionStrategy(
            kernels={1: z2}, extension_indices={(1, 1): 2, (1, 2): 2})
        es = gs.elementary.construct_elementary_system((0, 4), 2, z2, strategy)
        system = gs.elementary.global_group_system(es)
        gs.systems.controllability_index(system)
        gs.io.parse_elementary_system(gs.io.dump_elementary_system(es))
        return "" if len(system) == order else f"order {len(system)}, expected {order}"
    text = TEXTS.get(name) or (DATA / f"{name}.gsys").read_text()
    system = gs.io.parse_system(text)
    ctx = gs.generators.build_context(system)
    es = gs.elementary.extract_elementary_system(ctx)
    gs.io.parse_elementary_system(gs.io.dump_elementary_system(es))
    member = system.sequences[-1]
    r = gs.systems.decode_to_tensor(ctx.basis, member)
    codec = (gs.systems.encode_time_domain(ctx.basis, r),
             gs.systems.encode_spectral_domain(ctx.basis, r))
    walk = gs.chains.standard_filling(system.window, ctx.ell, "time_rev")
    chain = gs.chains.normal_chain(ctx, walk)
    rebuilt = gs.chains.reconstruct_from_chain(ctx, walk)
    gs.chains.decompose_along_chain(ctx, chain, member)
    gs.chains.enumerate_normal_fillings(system.window, ctx.ell, 720)
    recovered = gs.elementary.recover_original(es, ctx)
    if len(system) != order or math.prod(es.label_sizes.values()) != order:
        return f"order {len(system)}, expected {order}"
    if codec != (member, member):
        return "encode(decode(x)) != x"
    if set(rebuilt.sequences) != set(system.sequences):
        return "chain reconstruction differs from the member set"
    return "" if recovered.sequences == system.sequences else "recovered member set differs"


def stage_table(per_system: dict) -> str:
    """Rows: traced stages; columns: ladder systems; cells: self ms."""
    names = [n for n, _, _ in LADDER if n in per_system]
    stages = sorted({s for rows in per_system.values() for s in rows})
    width = max(len(s) for s in stages + ["stage (self ms)"])
    lines = ["stage (self ms)".ljust(width) + "".join(f"{n:>10}" for n in names)]
    for stage in stages:
        cells = "".join(f"{per_system[n].get(stage, 0.0) * 1000:10.1f}" for n in names)
        lines.append(stage.ljust(width) + cells)
    totals = "".join(f"{sum(per_system[n].values()) * 1000:10.1f}" for n in names)
    lines.append("total".ljust(width) + totals)
    return "\n".join(lines)
