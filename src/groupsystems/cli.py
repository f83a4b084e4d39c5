"""Command-line front end.

Exit codes: 0 success, 1 parse, usage or I/O failure, 2 domain invariant
violation, 3 bound exceeded.  All output is plain text with a stable
ordering, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

from . import io as fmt
from .chains import (
    STANDARD_FILLINGS,
    FillingSequence,
    block_code_chains,
    normal_chain,
    reconstruct_from_chain,
    standard_filling,
)
from .elementary import (
    ConstructionStrategy,
    check_tensor_count,
    construct_elementary_system,
    extract_elementary_system,
    global_group_system,
    recover_original,
    roundtrip_label_maps,
)
from .errors import BoundExceeded, DomainError, ParseError, ToolkitError
from .generators import build_context, elementary_group
from .systems import (
    DEFAULT_MEMBER_CAP,
    controllability_index,
    decode_to_tensor,
    encode_spectral_domain,
    encode_time_domain,
    tensor_from_items,
)


def _emit(args, text: str) -> None:
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _check_window(window, args) -> None:
    if args.window is not None and window != args.window:
        raise DomainError(f"system window {window} does not match "
                          f"--window {args.window}")


def _load(path: str, args):
    system = fmt.load_system_file(path, member_cap=args.member_cap)
    _check_window(system.window, args)
    return system


def cmd_validate(args) -> int:
    system = _load(args.system, args)  # saturated, so closed
    ctx = build_context(system)  # runs the completeness checks
    orders = " ".join(str(g.order) for g in system.alphabets)
    lines = [f"system {system.name} order={len(system)} ell={ctx.ell} "
             f"window={system.window[0]} {system.window[1]} "
             f"alphabets={orders}"]
    if args.verbose:
        for slot in ctx.slots:
            lines.append(f"  slot k={slot[0]} t={slot[1]} "
                         f"generators={ctx.basis.label_count(slot)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_generators(args) -> int:
    system = _load(args.system, args)
    ctx = build_context(system)
    lines = []
    for slot in ctx.slots:
        trans = ctx.basis.transversal(slot)
        lines.append(f"gen k={slot[0]} t={slot[1]} count={len(trans)}")
        for i, g in enumerate(trans):
            lines.append(f"  {i}: " + " ".join(str(x) for x in g))
    if args.format == "dump":
        for slot in ctx.slots:
            lines.append(fmt.dump_egrp(elementary_group(ctx, *slot)).rstrip("\n"))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _read_int_lines(path: str, what: str, form: str) -> List[tuple]:
    """The integer fields of each non-comment line of a `what` file, each
    line shaped `form`."""
    rows = []
    for line in fmt._strip_lines(fmt.read_text(path)):
        parts = line.split()
        if len(parts) != len(form.split()):
            raise ParseError(f"{what} lines are '{form}', got {line!r}")
        rows.append(fmt._int_list(parts, line))
    return rows


def cmd_encode(args) -> int:
    system = _load(args.system, args)
    ctx = build_context(system)
    items = {}
    for k, t, c in _read_int_lines(args.tensor, "tensor", "<k> <t> <index>"):
        if (k, t) in items:
            raise ParseError(f"tensor slot ({k},{t}) given twice")
        items[k, t] = c
    r = tensor_from_items(ctx.basis, items)
    seq = encode_time_domain(ctx.basis, r)
    lines = ["seq " + " ".join(str(x) for x in seq)]
    if args.spectral:
        spec = encode_spectral_domain(ctx.basis, r)
        lines.append("spectral " + " ".join(str(x) for x in spec))
        lines.append(f"agree {'yes' if spec == seq else 'no'}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_decode(args) -> int:
    system = _load(args.system, args)
    ctx = build_context(system)
    seq = fmt._int_list(args.seq.split(), args.seq)
    r = decode_to_tensor(ctx.basis, seq)
    lines = [f"{k} {t} {c}" for (k, t), c in zip(ctx.slots, r)]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_chains(args) -> int:
    system = _load(args.system, args)
    ctx = build_context(system)
    if args.filling.startswith("@"):
        f = FillingSequence(system.window, ctx.ell, tuple(
            _read_int_lines(args.filling[1:], "walk", "<k> <t>")))
    else:
        f = standard_filling(system.window, ctx.ell, args.filling)
    chain = normal_chain(ctx, f)
    lines = []
    for i, step in enumerate(chain.steps):
        reps = " ".join(str(lab[ctx.slot_pos[step.pair]])
                        for lab in step.representatives)
        lines.append(f"step {i} add ({step.pair[0]},{step.pair[1]}) "
                     f"cosets {step.label_count} reps {reps}")
    rebuilt = reconstruct_from_chain(ctx, chain)
    lines.append(f"reconstruct ok order={len(rebuilt)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_blockchains(args) -> int:
    system = _load(args.system, args)
    ctx = build_context(system)
    chains, truncated = block_code_chains(ctx, max_orderings=args.ordering_cap)
    lines = [f"chains {len(chains)} truncated {'yes' if truncated else 'no'}"]
    for i, chain in enumerate(chains):
        order = 1
        for step in chain.steps:
            order *= step.label_count
        walk = " ".join(f"({p[0]},{p[1]})" for p in chain.filling.pairs)
        lines.append(f"chain {i} order={order} walk {walk}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_esys(args) -> int:
    system = _load(args.system, args)
    ctx = build_context(system)
    es = extract_elementary_system(ctx)
    _emit(args, fmt.dump_elementary_system(es))
    return 0


def _parse_depth_map(items: Optional[List[str]], form: str, value) -> dict:
    """Items `k=<value>` keyed by the integer depth k, each depth given
    once; `value` reads the right-hand side."""
    out = {}
    for item in items or []:
        k, sep, v = item.partition("=")
        if not sep:
            raise ParseError(f"expected {form}, got {item!r}")
        try:
            v = value(v)
            k = int(k)
        except ValueError:
            raise ParseError(f"expected {form}, got {item!r}") from None
        if k in out:
            raise ParseError(f"depth {k} given twice: {item!r}")
        out[k] = v
    return out


def cmd_construct(args) -> int:
    if args.window is None:
        raise ParseError("construct needs --window t0 t1")
    top = fmt.resolve_group(args.seed_group)
    kernels = _parse_depth_map(args.kernel, "k=GroupName", fmt.resolve_group)
    ext_indices = _parse_depth_map(args.ext_index, "k=index", int)
    # before any anchor: row k has t1 - t0 + 1 - k slots of one label size
    t0, t1 = args.window
    slot_counts = Counter()
    for k, group in {**kernels, args.ell: top}.items():
        if 0 <= k <= min(args.ell, t1 - t0):
            slot_counts[group.order] += t1 - t0 + 1 - k
    check_tensor_count(slot_counts)
    strategy = ConstructionStrategy(kernels=kernels,
                                    extension_indices=ext_indices)
    es = construct_elementary_system(args.window, args.ell, top,
                                     strategy, name=args.name)
    system = global_group_system(es)
    ell = controllability_index(system)
    report = (f"constructed {fmt._token(es.name, 'E')} depth={es.depth} "
              f"system order={len(system)} ell={ell}\n")
    if args.out is not None:
        Path(args.out).write_text(fmt.dump_elementary_system(es))
        sys.stdout.write(report)
    else:
        sys.stdout.write(fmt.dump_elementary_system(es) + report)
    return 0


def cmd_roundtrip(args) -> int:
    path = Path(args.path)
    if path.suffix == ".esys":
        es = fmt.load_elementary_system_file(path)
        _check_window(es.window, args)
        system = global_group_system(es)
    else:
        system = _load(str(path), args)
    ctx = build_context(system)
    recover_original(extract_elementary_system(ctx), ctx)
    if path.suffix == ".esys":
        note = "" if roundtrip_label_maps(es, ctx) is not None else " up to isomorphism"
        _emit(args, f"roundtrip ok system order={len(system)} "
                    f"ell={controllability_index(system)}{note}\n")
    else:
        _emit(args, f"roundtrip ok order={len(system)}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with 1, the parse-failure code; argparse's own 2 is
    the invariant-violation code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groupsystems",
        description="Analyze finite-window group systems: generators, "
                    "encoders, chains, elementary systems.")
    parser.add_argument("--window", type=int, nargs=2, default=None,
                        metavar=("T0", "T1"),
                        help="expected window; required by construct")
    parser.add_argument("--member-cap", type=int, default=DEFAULT_MEMBER_CAP)
    parser.add_argument("--ordering-cap", type=int, default=720)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--format", choices=("text", "dump"), default="text")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a .gsys file and report order/ell")
    p.add_argument("system")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generators", help="list the generator basis per slot")
    p.add_argument("system")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("encode", help="encode a tensor file into a member")
    p.add_argument("system")
    p.add_argument("tensor")
    p.add_argument("--spectral", action="store_true",
                   help="also run the span-by-span encoder and compare")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a member into its tensor")
    p.add_argument("system")
    p.add_argument("--seq", required=True, help="space-separated letters")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("chains", help="normal chain of a filling walk")
    p.add_argument("system")
    p.add_argument("--filling", default="time_rev",
                   help="|".join(STANDARD_FILLINGS) + " or @walkfile")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("blockchains", help="all normal chains of a block code")
    p.add_argument("system")
    p.set_defaults(func=cmd_blockchains)

    p = sub.add_parser("esys", help="extract the elementary system")
    p.add_argument("system")
    p.set_defaults(func=cmd_esys)

    p = sub.add_parser("construct", help="build an elementary system from seeds")
    p.add_argument("--seed-group", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--kernel", action="append",
                   help="k=GroupName kernel per depth below the top row")
    p.add_argument("--ext-index", action="append",
                   help="k=index extension choice per depth")
    p.add_argument("--name", default="E")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("roundtrip", help="extract/rebuild and compare")
    p.add_argument("path")
    p.set_defaults(func=cmd_roundtrip)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.member_cap <= 0 or args.ordering_cap <= 0:
            raise ParseError("bounds must be positive")
        if args.window is not None:  # compared with system windows, tuples
            args.window = tuple(args.window)
        inputs = [getattr(args, name) for name in ("system", "tensor", "path")
                  if getattr(args, name, None) is not None]
        if args.out is not None and any(Path(str(p)).resolve() ==
                                        Path(args.out).resolve() for p in inputs):
            raise ParseError("--out must differ from the input paths")
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
