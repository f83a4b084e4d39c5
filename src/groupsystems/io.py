"""Plain-text formats: .grp group tables, .gsys systems, .egrp local-group
dumps, .esys elementary systems.

Every dump is deterministic and reload-verifiable: groups re-run the axiom
checks, systems re-saturate and re-validate, elementary systems re-verify
the Cartesian and projection invariants.  Lines starting with '#' are
comments everywhere.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .elementary import ElementarySystem
from .errors import ParseError
from .generators import ElementaryGroupTable, Triangle, upper_triangle_positions
from .groups import FiniteGroup, cyclic_group, direct_product, make_group, symmetric_group_3
from .systems import DEFAULT_MEMBER_CAP, GroupSystem, build_system

_CYCLIC_RE = re.compile(r"^Z(\d+)$")


def resolve_group(name: str, search_dir: Optional[Path] = None) -> FiniteGroup:
    """Builtin names (Z<n>, S3) or a .grp file next to the referencing file."""
    m = _CYCLIC_RE.match(name)
    if m:
        return cyclic_group(int(m.group(1)))
    if name == "S3":
        return symmetric_group_3()
    if search_dir is not None:
        candidate = Path(search_dir) / f"{name}.grp"
        if candidate.exists():
            return load_group_file(candidate)
    raise ParseError(f"unknown group {name!r}")


# -- .grp -------------------------------------------------------------------

def dump_group(g: FiniteGroup) -> str:
    name = re.sub(r"\s+", "_", g.name) or "G"
    lines = [f"group {name} {g.order}"]
    for row in g.op_table:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _strip_lines(text: str) -> List[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r} in {line!r}") from None


def _ints(parts: List[str], count: int, line: str) -> List[int]:
    """The `count` integers after a stanza keyword."""
    if len(parts) < count + 1:
        raise ParseError(f"{parts[0]} line needs {count} integers: {line!r}")
    return [_int(x, line) for x in parts[1:count + 1]]


def parse_group(text: str) -> FiniteGroup:
    lines = _strip_lines(text)
    if not lines or not lines[0].startswith("group "):
        raise ParseError("expected 'group <name> <order>' header")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ParseError(f"malformed group header {lines[0]!r}")
    name, order_s = parts[1], parts[2]
    try:
        order = int(order_s)
    except ValueError:
        raise ParseError(f"bad order {order_s!r}") from None
    rows = []
    for line in lines[1:1 + order]:
        try:
            rows.append([int(x) for x in line.split()])
        except ValueError:
            raise ParseError(f"bad table row {line!r}") from None
    if len(rows) != order:
        raise ParseError(f"expected {order} table rows, got {len(rows)}")
    return make_group(rows, name=name)


def load_group_file(path) -> FiniteGroup:
    return parse_group(Path(path).read_text())


# -- .gsys ---------------------------------------------------------------------

def parse_system(text: str, search_dir: Optional[Path] = None,
                 member_cap: int = DEFAULT_MEMBER_CAP) -> GroupSystem:
    """Load a system: explicit `seq` members (saturated) or a `rule conv`.

    Inline `group <name> <order>` blocks define alphabets local to the file;
    otherwise names resolve to builtins or sibling .grp files.
    """
    lines = _strip_lines(text)
    name = "A"
    window: Optional[Tuple[int, int]] = None
    local_groups: Dict[str, FiniteGroup] = {}
    alphabet_spec: Dict = {}
    seqs: List[tuple] = []
    rule: Optional[tuple] = None

    i = 0
    while i < len(lines):
        parts = lines[i].split()
        head = parts[0]
        if head == "system":
            if len(parts) != 2:
                raise ParseError("system line needs a name")
            name = parts[1]
        elif head == "window":
            if len(parts) != 3:
                raise ParseError("window line needs two integers")
            try:
                window = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise ParseError("window bounds must be integers") from None
        elif head == "group":
            if len(parts) != 3:
                raise ParseError("group line needs a name and order")
            order = _int(parts[2], lines[i])
            block = "\n".join(lines[i:i + 1 + order])
            local_groups[parts[1]] = parse_group(block)
            i += order
        elif head == "alphabet":
            if len(parts) != 3:
                raise ParseError("alphabet line needs a time and group name")
            key = parts[1]
            gname = parts[2]
            alphabet_spec["all" if key == "all" else _int(key, lines[i])] = gname
        elif head == "seq":
            try:
                seqs.append(tuple(int(x) for x in parts[1:]))
            except ValueError:
                raise ParseError(f"bad seq line {lines[i]!r}") from None
        elif head == "rule":
            if len(parts) < 4 or parts[1] != "conv":
                raise ParseError("rule line must be 'rule conv <group> <taps...>'")
            rule = (parts[2], tuple(parts[3:]))
        else:
            raise ParseError(f"unknown stanza {head!r}")
        i += 1

    if window is None:
        raise ParseError("missing window line")
    if rule is not None and seqs:
        raise ParseError("a system is either explicit or rule-built, not both")

    def lookup(gname: str) -> FiniteGroup:
        if gname in local_groups:
            return local_groups[gname]
        return resolve_group(gname, search_dir)

    if rule is not None:
        return _unroll_rule(name, window, rule, lookup, member_cap)

    if not seqs:
        raise ParseError("no members given")
    length = window[1] - window[0] + 1
    alphabets = []
    for t in range(window[0], window[1] + 1):
        gname = alphabet_spec.get(t, alphabet_spec.get("all"))
        if gname is None:
            raise ParseError(f"no alphabet for time {t}")
        alphabets.append(lookup(gname))
    for s in seqs:
        if len(s) != length:
            raise ParseError(f"seq {s} does not span the window")
    # saturate; per-time alphabets shrink to the letters actually realized
    # (the alphabet at a time is by definition the projection there)
    return build_system(window, alphabets, seqs, name=name,
                        member_cap=member_cap)


_TAP_RE = re.compile(r"^x(\d+)$")


def _unroll_rule(name: str, window: Tuple[int, int], rule: tuple, lookup,
                 member_cap: int) -> GroupSystem:
    """Linear tap rule over a cyclic group: outputs are sums of delayed
    inputs, inputs free over the window with an identity boundary."""
    gname, taps = rule
    base = lookup(gname)
    if not base.is_abelian:
        raise ParseError("rule systems need a cyclic (abelian) group")
    tap_lists = []
    for expr in taps:
        delays = []
        for term in expr.split("+"):
            m = _TAP_RE.match(term)
            if not m:
                raise ParseError(f"bad tap expression {expr!r}")
            delays.append(int(m.group(1)))
        tap_lists.append(tuple(delays))
    alphabet = base
    for _ in range(len(tap_lists) - 1):
        alphabet, _, _ = direct_product(alphabet, base)
    t0, t1 = window
    length = t1 - t0 + 1
    if base.order ** length > member_cap:
        from .errors import BoundExceeded
        raise BoundExceeded("rule unrolling exceeds the member cap")
    import itertools as _it
    members = []
    for inputs in _it.product(range(base.order), repeat=length):
        seq = []
        for pos in range(length):
            letter = 0
            for delays in tap_lists:
                val = 0
                for d in delays:
                    val = base.op(val, inputs[pos - d] if pos - d >= 0 else 0)
                letter = letter * base.order + val
            seq.append(letter)
        members.append(tuple(seq))
    return build_system(window, [alphabet] * length, members, name=name,
                        member_cap=member_cap)


def dump_system(system: GroupSystem) -> str:
    """Canonical dump: inline groups (deduped by table), alphabet lines,
    then members in lexicographic order."""
    lines = [f"system {system.name}",
             f"window {system.window[0]} {system.window[1]}"]
    table_names: Dict[tuple, str] = {}
    blocks: List[str] = []
    for g in system.alphabets:
        if g.op_table not in table_names:
            gname = f"G{len(table_names)}"
            table_names[g.op_table] = gname
            named = FiniteGroup(g.op_table, name=gname, _validated=True)
            blocks.append(dump_group(named).rstrip("\n"))
    lines.extend(blocks)
    names = [table_names[g.op_table] for g in system.alphabets]
    if len(set(names)) == 1:
        lines.append(f"alphabet all {names[0]}")
    else:
        for t, gname in zip(system.times(), names):
            lines.append(f"alphabet {t} {gname}")
    for s in system.sequences:
        lines.append("seq " + " ".join(str(x) for x in s))
    return "\n".join(lines) + "\n"


def load_system_file(path, member_cap: int = DEFAULT_MEMBER_CAP) -> GroupSystem:
    p = Path(path)
    return parse_system(p.read_text(), search_dir=p.parent, member_cap=member_cap)


# -- .egrp / .esys ----------------------------------------------------------------

def dump_egrp(table: ElementaryGroupTable) -> str:
    k, t = table.anchor
    lines = [f"egrp {k} {t} {len(table.elements)}"]
    for tri in table.elements:
        lines.append("tri " + " ".join(str(x) for x in tri.labels))
    lines.append(dump_group(table.group).rstrip("\n"))
    return "\n".join(lines) + "\n"


def dump_elementary_system(es: ElementarySystem) -> str:
    lines = [f"esys {es.name} depth {es.depth} window "
             f"{es.window[0]} {es.window[1]}"]
    for slot in es.slots():
        lines.append(f"labels {slot[0]} {slot[1]} {es.label_sizes[slot]}")
    for anchor in es.slots():
        lines.append(dump_egrp(es.table(anchor)).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_elementary_system(text: str) -> ElementarySystem:
    lines = _strip_lines(text)
    if not lines or not lines[0].startswith("esys "):
        raise ParseError("expected 'esys <name> depth <d> window <t0> <t1>'")
    head = lines[0].split()
    if len(head) != 7 or head[2] != "depth" or head[4] != "window":
        raise ParseError(f"malformed esys header {lines[0]!r}")
    name = head[1]
    try:
        depth = int(head[3])
        window = (int(head[5]), int(head[6]))
    except ValueError:
        raise ParseError("bad esys header numbers") from None
    ell = depth - 1

    sizes: Dict[Tuple[int, int], int] = {}
    tables: Dict[Tuple[int, int], ElementaryGroupTable] = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] == "labels":
            k, t, n = _ints(parts, 3, lines[i])
            sizes[(k, t)] = n
            i += 1
        elif parts[0] == "egrp":
            k, t, n = _ints(parts, 3, lines[i])
            anchor = (k, t)
            if i + 1 + n >= len(lines):
                raise ParseError(f"egrp block at {anchor} is truncated")
            positions = upper_triangle_positions(window, ell, k, t)
            tris = []
            for j in range(n):
                tparts = lines[i + 1 + j].split()
                if tparts[0] != "tri":
                    raise ParseError(f"expected tri line, got {lines[i + 1 + j]!r}")
                labels = tuple(_int(x, lines[i + 1 + j]) for x in tparts[1:])
                if len(labels) != len(positions):
                    raise ParseError(f"triangle at {anchor} has wrong arity")
                tris.append(Triangle(anchor, positions, labels))
            group_header = lines[i + 1 + n].split()
            if group_header[0] != "group" or len(group_header) != 3:
                raise ParseError("expected group block after triangles")
            order = _int(group_header[2], lines[i + 1 + n])
            block = "\n".join(lines[i + 1 + n:i + 2 + n + order])
            group = parse_group(block)
            if group.order != n:
                raise ParseError(f"table order differs from element count at {anchor}")
            tables[anchor] = ElementaryGroupTable(anchor, positions,
                                                  tuple(tris), group)
            i += 2 + n + order
        else:
            raise ParseError(f"unknown esys stanza {parts[0]!r}")

    es = ElementarySystem(name=name, ell=ell, window=window,
                          label_sizes=sizes, tables=tables)
    es.verify()
    return es


def load_elementary_system_file(path) -> ElementarySystem:
    return parse_elementary_system(Path(path).read_text())
