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
from .errors import BoundExceeded, ParseError, count_text
from .generators import ElementaryGroupTable
from .groups import (FiniteGroup, cyclic_group, direct_product, make_group_of_ints,
                     symmetric_group_3)
from .slots import check_slot_table, in_slot_table, upper_triangle_positions
from .systems import DEFAULT_MEMBER_CAP, LETTER_CAP, GroupSystem, build_system

_CYCLIC_RE = re.compile(r"^Z(\d+)$")
# Z<n> builds its n x n table at once; the largest order used in the demos
# and benchmark data is 12, in the tests 256
CYCLIC_ORDER_CAP = 1024


def resolve_group(name: str, search_dir: Optional[Path] = None) -> FiniteGroup:
    """Builtin names (Z<n>, S3) or a .grp file next to the referencing file.
    A cyclic order above `CYCLIC_ORDER_CAP` raises BoundExceeded before any
    table is built."""
    m = _CYCLIC_RE.match(name)
    if m:
        try:
            order = int(m.group(1))
        except ValueError:  # more digits than int() reads, so far past the cap
            raise BoundExceeded(f"resolve_group {name}: order exceeds "
                                f"cap CYCLIC_ORDER_CAP={CYCLIC_ORDER_CAP}") from None
        if order < 1:
            raise ParseError(f"cyclic group {name!r} needs an order of at least 1")
        if order > CYCLIC_ORDER_CAP:
            raise BoundExceeded(f"resolve_group {name}: order {order} exceeds "
                                f"cap CYCLIC_ORDER_CAP={CYCLIC_ORDER_CAP}")
        return cyclic_group(order)
    if name == "S3":
        return symmetric_group_3()
    if search_dir is not None:
        candidate = Path(search_dir) / f"{name}.grp"
        if candidate.exists():
            return load_group_file(candidate)
    raise ParseError(f"unknown group {name!r}")


# -- .grp -------------------------------------------------------------------

_NON_TOKEN_RE = re.compile(r"[\s#]+")


def _lines(rows, prefix: str = "") -> str:
    """Rows of values as text, one line each, every line ended."""
    return "".join([f"{prefix}{' '.join(map(str, row))}\n" for row in rows])


def _lines_once(cache: Dict[tuple, str], rows: tuple, prefix: str = "") -> str:
    """`_lines`, formatted once per distinct `rows` kept in `cache`."""
    text = cache.get(rows)
    if text is None:
        text = cache[rows] = _lines(rows, prefix)
    return text


def _token(name: str, default: str) -> str:
    """A header name as one token: runs of blanks and of the comment
    character '#' become '_', and an empty name is `default`."""
    return _NON_TOKEN_RE.sub("_", name) or default


def dump_group(g: FiniteGroup, rows: Optional[str] = None) -> str:
    """A `group <name> <order>` header and the table rows; `rows`, if
    given, is their text (`_lines` of the table)."""
    name = _token(g.name, "G")
    return f"group {name} {g.order}\n" + (_lines(g.op_table) if rows is None else rows)


def _strip_lines(text: str) -> List[str]:
    """The lines of `text` with comments ('#' to the end of the line) and
    surrounding blanks removed, and blank lines dropped."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _int(token: str, line: str) -> int:
    """`_int_list` of one token."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r} in {line!r}") from None


def _int_list(tokens: List[str], line: str) -> Tuple[int, ...]:
    """The tokens of `line` as a tuple of integers, the one reader of
    integer fields in every format; the first token that is none raises,
    as in `_int`."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        for token in tokens:
            _int(token, line)
        raise


def _group_block(lines: List[str], i: int,
                 seen: Optional[Dict[tuple, FiniteGroup]] = None
                 ) -> Tuple[FiniteGroup, int]:
    """The group whose `group <name> <order>` header is line i, read from
    the table rows after it, and the index of the line after the table.

    `seen`, if given, maps the row lines of each table read before to its
    validated group: rows that repeat one of them give that table under
    this block's name, since the same text parses to the same table.  The
    rows are ints once read, so they are validated as they are
    (`make_group_of_ints`)."""
    header = lines[i] if i < len(lines) else ""
    parts = header.split()
    if len(parts) != 3 or parts[0] != "group":
        raise ParseError(f"expected 'group <name> <order>', got {header!r}")
    name, order = parts[1], _int(parts[2], header)
    end = i + 1 + order
    key = tuple(lines[i + 1:end])
    known = seen.get(key) if seen is not None else None
    if known is not None and known.order == order:
        return known.renamed(name), end
    rows = []
    for line in key:
        rows.append(_int_list(line.split(), line))
        if len(rows[-1]) != order:
            raise ParseError(f"table row {len(rows) - 1} of group {name} has "
                             f"{len(rows[-1])} entries, expected {order}: "
                             f"{line!r}")
    if len(rows) != order:
        raise ParseError(f"expected {order} table rows, got {len(rows)}")
    group = make_group_of_ints(tuple(rows), name=name)
    if seen is not None:
        seen[key] = group
    return group, end


def parse_group(text: str) -> FiniteGroup:
    """A .grp file: one group block, and no line after its table."""
    lines = _strip_lines(text)
    group, end = _group_block(lines, 0)
    if end < len(lines):
        raise ParseError(f"a line after the table of group {group.name}: "
                         f"{lines[end]!r}")
    return group


def read_text(path) -> str:
    """The contents of a UTF-8 text file; other bytes are a ParseError that
    names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from None


def load_group_file(path) -> FiniteGroup:
    return parse_group(read_text(path))


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
    seen = set()  # the stanzas a file gives at most once

    i = 0
    while i < len(lines):
        parts = lines[i].split()
        head = parts[0]
        if head in ("system", "window", "rule"):
            if head in seen:
                raise ParseError(f"a second {head} line")
            seen.add(head)
        if head == "group":
            if len(parts) > 1 and parts[1] in local_groups:
                raise ParseError(f"group {parts[1]} defined twice")
            group, i = _group_block(lines, i)
            local_groups[group.name] = group
            continue
        if head == "system":
            if len(parts) != 2:
                raise ParseError("system line needs a name")
            name = parts[1]
        elif head == "window":
            if len(parts) != 3:
                raise ParseError("window line needs two integers")
            window = _int_list(parts[1:], lines[i])
        elif head == "alphabet":
            if len(parts) != 3:
                raise ParseError("alphabet line needs a time and group name")
            key = parts[1] if parts[1] == "all" else _int(parts[1], lines[i])
            if key in alphabet_spec:
                raise ParseError(f"alphabet {key} given twice")
            alphabet_spec[key] = parts[2]
        elif head == "seq":
            seqs.append(_int_list(parts[1:], lines[i]))
        elif head == "rule":
            if len(parts) < 4 or parts[1] != "conv":
                raise ParseError("rule line must be 'rule conv <group> <taps...>'")
            rule = (parts[2], tuple(parts[3:]))
        else:
            raise ParseError(f"unknown stanza {head!r}")
        i += 1

    if window is None:
        raise ParseError("missing window line")
    for t in alphabet_spec:
        if t != "all" and not window[0] <= t <= window[1]:
            raise ParseError(f"alphabet time {t} outside the window "
                             f"[{window[0]},{window[1]}]")
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
    # the window, then seq lengths: they bound the window, which may be huge
    length = check_slot_table(window, 0)
    for s in seqs:
        if len(s) != length:
            raise ParseError(f"seq {s} does not span the window")
    resolved: Dict[str, FiniteGroup] = {}  # each name resolved once
    alphabets = []
    for t in range(window[0], window[1] + 1):
        gname = alphabet_spec.get(t, alphabet_spec.get("all"))
        if gname is None:
            raise ParseError(f"no alphabet for time {t}")
        if gname not in resolved:
            resolved[gname] = lookup(gname)
        alphabets.append(resolved[gname])
    # saturate; per-time alphabets shrink to the letters actually realized
    # (the alphabet at a time is by definition the projection there)
    return build_system(window, alphabets, seqs, name=name,
                        member_cap=member_cap)


_TAP_RE = re.compile(r"^x(\d+)$")


def _unroll_rule(name: str, window: Tuple[int, int], rule: tuple, lookup,
                 member_cap: int) -> GroupSystem:
    """Linear tap rule over an abelian group: outputs are sums of delayed
    inputs, inputs free over the window with an identity boundary.

    The rule maps the input words homomorphically onto the members, so the
    members are generated by the images of one base generator g at one
    input time p (the identity elsewhere).  At time p + d such an image's
    output is g added once per delay d, and the letter packs the outputs
    as base-q digits, the first most significant: the lexicographic index
    in the direct product of the output groups.  So the image is the
    letter profile of g shifted to p and cut at the window's end, and it
    is the identity unless p + d_min < length, d_min the least offset with
    a letter other than the identity.  `build_system` closes the images
    that are not the identity once, and judges the member cap on the
    closed member count; the q^length input words are never listed.

    Before any image is built, the images of one g give a lower bound:
    their leading letters sit at distinct times p + d_min, so the products
    of their powers below the order o of the leading letter are distinct
    members (the least p whose powers differ leaves a letter other than
    the identity at p + d_min), at least o^n of them for n images, and
    exactly q^n for q prime.  A bound past the member cap, or past
    `LETTER_CAP` letters at the window's length each, raises here, since
    the closure would pass it too."""
    gname, taps = rule
    base = lookup(gname)
    if not base.is_abelian:
        raise ParseError("rule systems need a cyclic (abelian) group")
    tap_lists = []
    for expr in taps:
        delays = []
        for term in expr.split("+"):
            m = _TAP_RE.match(term)
            try:
                delays.append(int(m.group(1)))
            except (AttributeError, ValueError):  # no match, or too many digits
                raise ParseError(f"bad tap expression {expr!r}") from None
        tap_lists.append(tuple(delays))
    q = base.order
    # the output alphabet's table has (q^outputs)^2 entries, like Z<n>'s
    if q ** len(tap_lists) > CYCLIC_ORDER_CAP:
        raise BoundExceeded(f"rule unrolling: output alphabet order "
                            f"{q}^{len(tap_lists)} exceeds cap "
                            f"CYCLIC_ORDER_CAP={CYCLIC_ORDER_CAP}")
    alphabet = base
    for _ in range(len(tap_lists) - 1):
        alphabet, _, _ = direct_product(alphabet, base)
    length = check_slot_table(window, 0)
    # every member is a word as long as the window
    if length > member_cap:
        raise BoundExceeded(f"rule unrolling: a window of {count_text(length)} "
                            f"times exceeds cap {member_cap}")
    op = base.op_table
    offsets = sorted({d for delays in tap_lists for d in delays if d < length})
    seeds_of = []  # per base generator: its letter profile and image count
    for g in base.generators:
        profile = [0] * length
        for d in offsets:
            for delays in tap_lists:
                val = 0
                for _ in range(delays.count(d)):
                    val = op[val][g]
                profile[d] = profile[d] * q + val
        d_min = next((d for d in offsets if profile[d]), length)
        n = length - d_min
        if n:
            o = alphabet.element_order(profile[d_min])
            count = o ** n
            if count > member_cap or count * length > LETTER_CAP:
                # for q prime the images are independent over GF(q): q^n
                least = "" if all(q % f for f in range(2, q)) else "at least "
                value = f" = {count}" if n * o.bit_length() <= 4096 else ""
                cap = (f"members exceed cap {member_cap}" if count > member_cap
                       else f"members of {length} letters exceed cap "
                            f"LETTER_CAP={LETTER_CAP} letters")
                raise BoundExceeded(f"rule unrolling: {least}{o}^{n}{value} {cap}")
        seeds_of.append((profile, n))
    seeds = [(0,) * p + tuple(profile[:length - p])
             for p in range(length) for profile, n in seeds_of if p < n]
    return build_system(window, [alphabet] * length, seeds, name=name,
                        member_cap=member_cap)


def dump_system(system: GroupSystem) -> str:
    """Canonical dump: inline groups (deduped by table), alphabet lines,
    then members in lexicographic order."""
    lines = [f"system {_token(system.name, 'A')}",
             f"window {system.window[0]} {system.window[1]}"]
    table_names: Dict[tuple, str] = {}
    blocks: List[str] = []
    for g in system.alphabets:
        if g.op_table not in table_names:
            gname = f"G{len(table_names)}"
            table_names[g.op_table] = gname
            blocks.append(dump_group(g.renamed(gname)).rstrip("\n"))
    lines.extend(blocks)
    names = [table_names[g.op_table] for g in system.alphabets]
    if len(set(names)) == 1:
        lines.append(f"alphabet all {names[0]}")
    else:
        for t, gname in zip(system.times(), names):
            lines.append(f"alphabet {t} {gname}")
    for s in system.sequences:
        lines.append("seq " + " ".join(map(str, s)))
    return "\n".join(lines) + "\n"


def load_system_file(path, member_cap: int = DEFAULT_MEMBER_CAP) -> GroupSystem:
    p = Path(path)
    return parse_system(read_text(p), search_dir=p.parent, member_cap=member_cap)


# -- .egrp / .esys ----------------------------------------------------------------

def dump_egrp(table: ElementaryGroupTable, tris: Optional[str] = None,
              rows: Optional[str] = None) -> str:
    """An `egrp` block: header, triangles, then the table; `tris` and
    `rows`, if given, are the text of the triangles and table rows."""
    k, t = table.anchor
    if tris is None:
        tris = _lines(table.elements, "tri ")
    return f"egrp {k} {t} {len(table.elements)}\n{tris}" + dump_group(table.group, rows)


def dump_elementary_system(es: ElementarySystem) -> str:
    """Header, label counts, then one `egrp` block per anchor; each
    distinct triangle list and table is formatted once (extracted systems
    repeat both)."""
    out = [f"esys {_token(es.name, 'E')} depth {es.depth} window "
           f"{es.window[0]} {es.window[1]}\n"]
    out.extend([f"labels {k} {t} {es.label_sizes[(k, t)]}\n" for k, t in es.slots()])
    tri_text: Dict[tuple, str] = {}
    row_text: Dict[tuple, str] = {}
    for anchor in es.slots():
        table = es.table(anchor)
        out.append(dump_egrp(table, _lines_once(tri_text, table.elements, "tri "),
                             _lines_once(row_text, table.group.op_table)))
    return "".join(out)


def _tri_block(tri_lines: Tuple[str, ...], anchor: Tuple[int, int],
               arity: int) -> Tuple[Tuple[int, ...], ...]:
    """The triangles of an egrp block, each `arity` labels long."""
    tris = []
    for line in tri_lines:
        tparts = line.split()
        if tparts[0] != "tri":
            raise ParseError(f"expected tri line, got {line!r}")
        labels = _int_list(tparts[1:], line)
        if len(labels) != arity:
            raise ParseError(f"triangle at {anchor} has wrong arity")
        tris.append(labels)
    return tuple(tris)


def parse_elementary_system(text: str) -> ElementarySystem:
    lines = _strip_lines(text)
    head = lines[0].split() if lines else []
    if not head or head[0] != "esys":
        raise ParseError("expected 'esys <name> depth <d> window <t0> <t1>'")
    if len(head) != 7 or head[2] != "depth" or head[4] != "window":
        raise ParseError(f"malformed esys header {lines[0]!r}")
    name = head[1]
    depth, t0, t1 = _int_list([head[3], head[5], head[6]], lines[0])
    window = (t0, t1)
    ell = depth - 1
    # every time of the window anchors a table of its own
    if check_slot_table(window, ell) > len(lines):
        raise ParseError(f"esys window {t0} {t1} has more times "
                         f"than the file has lines")

    sizes: Dict[Tuple[int, int], int] = {}
    tables: Dict[Tuple[int, int], ElementaryGroupTable] = {}
    # each distinct text of tri lines and of table rows is read once
    seen_tris: Dict[tuple, tuple] = {}
    seen_groups: Dict[tuple, FiniteGroup] = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] not in ("labels", "egrp"):
            raise ParseError(f"unknown esys stanza {parts[0]!r}")
        if len(parts) != 4:
            raise ParseError(f"{parts[0]} line takes 3 integers: {lines[i]!r}")
        k, t, n = _int_list(parts[1:], lines[i])
        anchor = (k, t)
        if not in_slot_table(window, ell, anchor):
            raise ParseError(f"{parts[0]} anchor ({k},{t}) is not in the slot "
                             f"table of depth {depth} on [{t0},{t1}]")
        if anchor in (sizes if parts[0] == "labels" else tables):
            raise ParseError(f"{parts[0]} anchor ({k},{t}) given twice")
        if parts[0] == "labels":
            sizes[anchor] = n
            i += 1
            continue
        if n < 0:
            raise ParseError(f"egrp block at {anchor} has a negative size")
        if i + 1 + n >= len(lines):
            raise ParseError(f"egrp block at {anchor} is truncated")
        positions = upper_triangle_positions(window, ell, k, t)
        tri_lines = tuple(lines[i + 1:i + 1 + n])
        tris = seen_tris.get(tri_lines)
        if tris is None:
            tris = seen_tris[tri_lines] = _tri_block(tri_lines, anchor,
                                                     len(positions))
        elif tris and len(tris[0]) != len(positions):
            # a text read before: all its triangles share one arity
            raise ParseError(f"triangle at {anchor} has wrong arity")
        group, i = _group_block(lines, i + 1 + n, seen_groups)
        if group.order != n:
            raise ParseError(f"table order differs from element count at {anchor}")
        tables[anchor] = ElementaryGroupTable(anchor, positions, tris, group)

    es = ElementarySystem(name=name, ell=ell, window=window,
                          label_sizes=sizes, tables=tables)
    es.verify()
    return es


def load_elementary_system_file(path) -> ElementarySystem:
    return parse_elementary_system(read_text(path))
