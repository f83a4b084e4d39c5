import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzing import SEEDS, fuzzed_texts

import oracles
import groupsystems.io as io
import groupsystems.systems as systems
from groupsystems.elementary import (
    ConstructionStrategy,
    construct_elementary_system,
    extract_elementary_system,
    global_group_system,
)
from groupsystems.errors import (
    AxiomViolation,
    BoundExceeded,
    NotAGroupSystem,
    ParseError,
    ToolkitError,
    WellDefinednessFailure,
)
from groupsystems.generators import build_context
from groupsystems.groups import cyclic_group, find_isomorphism, symmetric_group_3
from groupsystems.io import (
    CYCLIC_ORDER_CAP,
    dump_elementary_system,
    dump_group,
    dump_system,
    load_system_file,
    parse_elementary_system,
    parse_group,
    parse_system,
    resolve_group,
)
from groupsystems.systems import GroupSystem, build_system


def test_group_roundtrip_bit_exact():
    for g in (cyclic_group(1), cyclic_group(4), symmetric_group_3()):
        text = dump_group(g)
        again = parse_group(text)
        assert again.op_table == g.op_table
        assert dump_group(again) == text  # bit-exact round trip


def test_group_parse_errors():
    with pytest.raises(ParseError):
        parse_group("not a group")
    with pytest.raises(ParseError):
        parse_group("group X 2\n0 1")
    with pytest.raises(ParseError):
        parse_group("group X two\n0 1\n1 0")


def test_a_line_after_the_table_of_a_grp_file_is_a_parse_error():
    """A .grp file holds one table and nothing after it but comments and
    blank lines."""
    for extra in ("1 0", "group H 1\n0", "x"):
        with pytest.raises(ParseError, match=rf"^a line after the table of group X: "
                                             rf"'{extra.splitlines()[0]}'$"):
            parse_group(f"group X 2\n0 1\n1 0\n{extra}\n")
    assert parse_group("group X 2\n0 1\n1 0\n# a comment\n\n").order == 2


def test_group_comments_ignored():
    g = parse_group("# a comment\ngroup Z2 2\n0 1\n1 0\n")
    assert g.order == 2


def test_resolve_builtins():
    assert resolve_group("Z6").order == 6
    assert resolve_group("S3").order == 6
    with pytest.raises(ParseError):
        resolve_group("Q8")


def test_resolve_sibling_file(tmp_path):
    (tmp_path / "K4.grp").write_text(dump_group(cyclic_group(4)))
    g = resolve_group("K4", tmp_path)
    assert g.order == 4


def test_parse_explicit_system():
    text = """
system R2
window 0 1
alphabet all Z2
seq 0 0
seq 1 1
"""
    system = parse_system(text)
    assert len(system) == 2
    assert system.name == "R2"


def test_parse_explicit_saturates():
    text = "system X\nwindow 0 1\nalphabet all Z2\nseq 1 1\nseq 1 0\n"
    system = parse_system(text)
    assert len(system) == 4


def test_parse_rule_system():
    text = "system C2\nwindow 0 3\nrule conv Z2 x0 x0+x1\n"
    system = parse_system(text)
    assert len(system) == 16
    # alphabets restrict to the realized letters at the left edge
    assert system.alphabets[0].order == 2
    assert system.alphabets[1].order == 4


def test_rule_matches_fixture(c2):
    text = "system C2\nwindow 0 3\nrule conv Z2 x0 x0+x1\n"
    system = parse_system(text)
    assert system.sequences == c2.sequences


def test_explicit_loads_restrict_to_realized_letters():
    # the identity system declared over Z2 is the trivial system
    text = "system T\nwindow 0 1\nalphabet all Z2\nseq 0 0\n"
    system = parse_system(text)
    assert len(system) == 1
    assert all(g.order == 1 for g in system.alphabets)
    # {00, 22} over Z4 is a repetition pair over the realized Z2 subgroup
    text = "system B\nwindow 0 1\nalphabet all Z4\nseq 0 0\nseq 2 2\n"
    system = parse_system(text)
    assert len(system) == 2
    assert all(g.order == 2 for g in system.alphabets)


def test_letter_out_of_range_is_an_error():
    text = "system B\nwindow 0 1\nalphabet all Z2\nseq 0 0\nseq 5 5\n"
    with pytest.raises(NotAGroupSystem) as exc:
        parse_system(text)
    assert exc.value.reason == "letter out of range"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_system("system X\nalphabet all Z2\nseq 0\n")  # no window
    with pytest.raises(ParseError):
        parse_system("system X\nwindow 0 0\nalphabet all Z2\n")  # no members
    with pytest.raises(ParseError):
        parse_system("system X\nwindow 0 0\nbogus 1\n")
    with pytest.raises(ParseError):
        parse_system("system X\nwindow 0 1\nrule conv Z2 y0\n")


def test_repeated_and_stray_gsys_stanzas_are_parse_errors():
    head = "system X\nwindow 0 1\n"
    for text, message in (
            (head + "window 0 2\nalphabet all Z2\nseq 1 1\n", "second window"),
            (head + "rule conv Z2 x0\nrule conv Z2 x1\n", "second rule"),
            (head + "alphabet 0 Z2\nalphabet 0 Z3\nalphabet 1 Z2\nseq 1 1\n",
             "alphabet 0 given twice"),
            (head + "alphabet all Z2\nalphabet all Z3\nseq 1 1\n",
             "alphabet all given twice"),
            (head + "alphabet all Z2\nalphabet 2 Z3\nseq 1 1\n",
             r"alphabet time 2 outside the window \[0,1\]"),
            ("alphabet -1 Z2\n" + head + "rule conv Z2 x0\n", "time -1 outside"),
            ("system Y\n" + head + "alphabet all Z2\nseq 1 1\n", "second system"),
            (head + "group G 2\n0 1\n1 0\ngroup G 3\n0 1 2\n1 2 0\n2 0 1\n"
             "alphabet all G\nseq 1 1\n", "group G defined twice")):
        with pytest.raises(ParseError, match=message):
            parse_system(text)
    # one default and per-time overrides stay valid, and so do two groups
    system = parse_system(head + "alphabet all Z2\nalphabet 1 Z3\nseq 1 1\nseq 0 1\n")
    assert [g.order for g in system.alphabets] == [2, 3]
    system = parse_system(head + "group G 2\n0 1\n1 0\ngroup H 2\n0 1\n1 0\n"
                          "alphabet 0 G\nalphabet 1 H\nseq 1 1\n")
    assert system.name == "X" and len(system) == 2


def test_repeated_and_stray_esys_anchors_are_parse_errors(c2):
    lines = c2_esys_lines(c2)
    labels = next(i for i, line in enumerate(lines) if line.startswith("labels 0 3 "))
    egrp = next(i for i, line in enumerate(lines) if line.startswith("egrp 0 3 "))
    end = next(i for i in range(egrp + 1, len(lines)) if lines[i].startswith("egrp "))
    stray = [(["labels 0 4 2"], r"labels anchor \(0,4\) is not in the slot table"),
             (["labels 2 0 2"], r"anchor \(2,0\) is not in"),
             (["labels 0 -1 2"], r"anchor \(0,-1\) is not in"),
             (["egrp 0 99999999999999999999 1"], r"anchor \(0,9+\) is not in")]
    for bad, message in (
            (lines[:labels] + ["labels 0 3 5"] + lines[labels:],
             r"labels anchor \(0,3\) given twice"),
            (lines[:end] + lines[egrp:], r"egrp anchor \(0,3\) given twice"),
            *((lines[:1] + extra + lines[1:], message) for extra, message in stray)):
        with pytest.raises(ParseError, match=message):
            parse_elementary_system("\n".join(bad) + "\n")


def test_esys_stanzas_with_stray_tokens_are_parse_errors(c2):
    """A labels or egrp line is its keyword and three integers, nothing
    after them and nothing missing; the error quotes the line."""
    lines = c2_esys_lines(c2)
    for head in ("labels 0 3 ", "egrp 0 3 "):
        i = next(i for i, line in enumerate(lines) if line.startswith(head))
        for bad_line in (lines[i] + " junk 7", lines[i] + " 2", lines[i] + " more",
                         head.rstrip()):
            bad = lines[:i] + [bad_line] + lines[i + 1:]
            with pytest.raises(ParseError, match=re.escape(repr(bad_line))):
                parse_elementary_system("\n".join(bad) + "\n")


def test_esys_header_is_split_on_whitespace(c2):
    text = "\n".join(c2_esys_lines(c2)) + "\n"
    for sep in ("\t", "  ", " \t "):
        again = parse_elementary_system(text.replace("esys ", "esys" + sep, 1))
        assert dump_elementary_system(again) == text
    for head in ("esysC2 depth 2 window 0 3", "esys", "ESYS C2 depth 2 window 0 3"):
        lines = [head] + text.splitlines()[1:]
        with pytest.raises(ParseError):
            parse_elementary_system("\n".join(lines) + "\n")


def test_system_dump_roundtrip(r2, c2, s3_rep):
    for system in (r2, c2, s3_rep):
        text = dump_system(system)
        again = parse_system(text)
        assert again.sequences == system.sequences
        assert tuple(g.op_table for g in again.alphabets) == \
            tuple(g.op_table for g in system.alphabets)
        assert dump_system(again) == text.replace(
            f"system {system.name}", f"system {again.name}")


def test_inline_group_block():
    text = """
system D
window 0 0
group K 2
0 1
1 0
alphabet all K
seq 0
seq 1
"""
    system = parse_system(text)
    assert len(system) == 2


def test_elementary_system_dump_roundtrip(c2):
    es = extract_elementary_system(build_context(c2))
    text = dump_elementary_system(es)
    again = parse_elementary_system(text)
    assert again.label_sizes == es.label_sizes
    assert again.tables.keys() == es.tables.keys()
    for anchor, table in es.tables.items():
        assert again.tables[anchor].elements == table.elements
        assert again.tables[anchor].group.op_table == table.group.op_table
    assert dump_elementary_system(again) == text


def repeated_blocks_text() -> str:
    """Z2 top, ell 3 on [0, 5], a Z2 kernel at depth 2: 18 egrp blocks,
    whose tables have 6 distinct texts and whose triangles 9."""
    z2 = cyclic_group(2)
    return dump_elementary_system(construct_elementary_system(
        (0, 5), 3, z2, ConstructionStrategy(kernels={2: z2})))


def repeated_tables(lines: list) -> list:
    """(header index, order) of each table block of order >= 3 whose rows
    repeat an earlier block's."""
    seen, out = set(), []
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[0] == "group":
            n = int(parts[2])
            rows = tuple(lines[i + 1:i + 1 + n])
            if rows in seen and n >= 3:
                out.append((i, n))
            seen.add(rows)
    return out


def raised(parse, text: str):
    try:
        parse(text)
    except ToolkitError as exc:
        return type(exc), str(exc)
    return None


def test_repeated_blocks_reload_under_their_own_names():
    text = repeated_blocks_text()
    es = parse_elementary_system(text)
    assert len(es.tables) == 18
    assert all(table.group.name == f"E({k},{t})"
               for (k, t), table in es.tables.items())
    assert dump_elementary_system(es) == text
    assert (parsed("esys", parse_elementary_system, text)
            == parsed("esys", oracles.parse_elementary_system, text))
    # each distinct text was read once: repeats share its objects
    assert len({id(t.group.op_table) for t in es.tables.values()}) == 6
    assert len({id(t.elements) for t in es.tables.values()}) == 9


def test_tampered_repeated_table_is_rejected_as_before():
    """Two entries of one row swapped in a later copy of a table: the copy
    is read afresh, and fails as the parser that read every block did."""
    lines = repeated_blocks_text().splitlines()
    repeats = repeated_tables(lines)
    assert len(repeats) >= 5
    for head, n in repeats:
        for a, b, c in ((1, 1, 2), (n - 1, n - 2, n - 1)):
            bad = list(lines)
            row = bad[head + 1 + a].split()
            row[b], row[c] = row[c], row[b]
            bad[head + 1 + a] = " ".join(row)
            text = "\n".join(bad) + "\n"
            new = raised(parse_elementary_system, text)
            assert new is not None and new == raised(oracles.parse_elementary_system, text)


def test_tampered_repeated_triangles_are_rejected_as_before():
    """A later copy of a triangle text with one label changed, and one
    moved under an anchor of another arity: the same error as before."""
    lines = repeated_blocks_text().splitlines()
    heads = {tuple(map(int, line.split()[1:3])): i
             for i, line in enumerate(lines) if line.startswith("egrp ")}
    cases = []
    for anchor in ((0, 0), (1, 1), (0, 2)):  # repeats of earlier texts
        i = heads[anchor]
        for label in ("1", "7"):
            bad = list(lines)
            parts = bad[i + 2].split()
            parts[1] = label
            bad[i + 2] = " ".join(parts)
            cases.append(bad)
    # (0, 5) and (2, 0) both have 4 triangles, of 4 and 2 labels
    bad = list(lines)
    src, dst = heads[(0, 5)], heads[(2, 0)]
    bad[dst + 1:dst + 5] = lines[src + 1:src + 5]
    cases.append(bad)
    for bad in cases:
        text = "\n".join(bad) + "\n"
        new = raised(parse_elementary_system, text)
        assert new is not None and new == raised(oracles.parse_elementary_system, text)
    assert new == (ParseError, "triangle at (2, 0) has wrong arity")


def test_elementary_parse_error():
    with pytest.raises(ParseError):
        parse_elementary_system("esys X depth 2\n")


def c2_esys_lines(c2) -> list:
    return dump_elementary_system(extract_elementary_system(build_context(c2))).splitlines()


def without_block(lines: list, header: str) -> list:
    """The dump lines with the egrp block that starts at `header` removed."""
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("egrp ")), len(lines))
    return lines[:start] + lines[end:]


def test_missing_anchor_is_a_well_definedness_failure(c2):
    text = "\n".join(without_block(c2_esys_lines(c2), "egrp 0 3 ")) + "\n"
    with pytest.raises(WellDefinednessFailure, match=r"anchor \(0, 3\)"):
        parse_elementary_system(text)


def test_truncated_egrp_block_is_a_parse_error(c2):
    lines = c2_esys_lines(c2)
    start = next(i for i, line in enumerate(lines) if line.startswith("egrp 0 3 "))
    with pytest.raises(ParseError, match="truncated"):
        parse_elementary_system("\n".join(lines[:start + 3]) + "\n")


def test_non_integer_group_order_is_a_parse_error():
    with pytest.raises(ParseError, match="abc"):
        parse_system("system X\nwindow 0 1\ngroup G abc\nalphabet all Z2\nseq 1 1\n")


def test_ragged_group_row_is_a_parse_error():
    with pytest.raises(ParseError, match=r"table row 0 of group X has 1 entries"):
        parse_group("group X 2\n0\n1 0")
    with pytest.raises(ParseError, match=r"table row 1 of group X has 3 entries"):
        parse_system("system S\nwindow 0 0\ngroup X 2\n0 1\n1 0 0\n"
                     "alphabet all X\nseq 1\n")


def test_bound_messages_name_the_stage_the_value_and_the_cap():
    with pytest.raises(BoundExceeded,
                       match=r"^rule unrolling: 2\^5 = 32 members exceed cap 16$"):
        parse_system("system R\nwindow 0 4\nrule conv Z2 x0 x1\n", member_cap=16)
    with pytest.raises(BoundExceeded,
                       match=r"^build_system saturation: 5 members exceed cap 4$"):
        parse_system("system S\nwindow 0 2\nalphabet all Z2\nseq 1 0 0\n"
                     "seq 0 1 0\nseq 0 0 1\n", member_cap=4)
    z2 = cyclic_group(2)
    with pytest.raises(BoundExceeded,
                       match=r"^GroupSystem G: 4 members exceed cap 3$"):
        GroupSystem((0, 1), [z2, z2], [(0, 0), (0, 1), (1, 0), (1, 1)],
                    name="G", member_cap=3)
    z4 = cyclic_group(4)
    with pytest.raises(BoundExceeded,
                       match=r"^isomorphism search: order 4 exceeds cap 2$"):
        find_isomorphism(z4, z4, order_cap=2)
    over = CYCLIC_ORDER_CAP + 1
    with pytest.raises(BoundExceeded,
                       match=rf"^resolve_group Z{over}: order {over} exceeds "
                             rf"cap CYCLIC_ORDER_CAP={CYCLIC_ORDER_CAP}$"):
        resolve_group(f"Z{over}")


@pytest.mark.parametrize("t1", [15, 16])
def test_rule_cap_counts_members_not_input_words(t1):
    """x0+x0 is the identity over Z2: one member on both windows, though
    [0, 16] has 2^17 input words, past the cap."""
    system = parse_system(f"system X\nwindow 0 {t1}\nrule conv Z2 x0+x0\n")
    assert len(system) == 1 and system.length == t1 + 1


def test_rule_cap_bound_and_saturation():
    """The leading letters bound the members below before any is built,
    exactly for q prime; under the cap the closure judges the count."""
    with pytest.raises(BoundExceeded, match=r"^rule unrolling: at least 2\^5 = 32 "
                                            r"members exceed cap 16$"):
        parse_system("system R\nwindow 0 4\nrule conv Z4 x0+x0\n", member_cap=16)
    with pytest.raises(BoundExceeded, match=r"^rule unrolling: 2\^31 = 2147483648 "
                                            r"members exceed cap 65536$"):
        parse_system("system R\nwindow 0 40\nrule conv Z2 x10\n")
    # Z4 x0+x0+x1 on [0, 2]: leading letters 2 of order 2 bound it by 2^3
    assert len(parse_system("system R\nwindow 0 2\nrule conv Z4 x0+x0+x1\n")) == 16
    with pytest.raises(BoundExceeded, match=r"^build_system saturation: 9 "
                                            r"members exceed cap 8$"):
        parse_system("system R\nwindow 0 2\nrule conv Z4 x0+x0+x1\n", member_cap=8)


def test_letter_cap_stops_a_rule_with_long_members():
    """x500 on [0, 515]: 2^16 members, within the member cap, but of 516
    letters each, past LETTER_CAP; the bound raises before any member is
    built."""
    with pytest.raises(BoundExceeded, match=r"^rule unrolling: 2\^16 = 65536 members "
                                            r"of 516 letters exceed cap "
                                            r"LETTER_CAP=16777216 letters$"):
        parse_system("system X\nwindow 0 515\nrule conv Z2 x500\n")
    assert len(parse_system("system X\nwindow 0 515\nrule conv Z2 x508\n")) == 2 ** 8


def test_letter_cap_stops_the_saturation_of_seq_members(monkeypatch):
    """Seven free letters on a window of 64 times close to 128 members,
    8,192 letters.  A cap of 4,096 letters holds 64 such members, and the
    closure stops when it would pass them."""
    seqs = "".join("seq " + " ".join("1" if t == p else "0" for t in range(64)) + "\n"
                   for p in range(7))
    text = "system S\nwindow 0 63\nalphabet all Z2\n" + seqs
    assert len(parse_system(text)) == 128
    monkeypatch.setattr(systems, "LETTER_CAP", 2 ** 12)
    with pytest.raises(BoundExceeded, match=r"^build_system saturation: 65 members "
                                            r"of 64 letters exceed cap "
                                            r"LETTER_CAP=4096 letters$"):
        parse_system(text)


def test_too_few_triangles_are_rejected_by_the_cartesian_count(c2):
    """One more label at slot (0, 1) leaves the anchor (0, 1), and only it,
    with fewer triangles than its label sets multiply to.  Every other
    check passes: the triangles are distinct and their labels in range, and
    the projections are as before.  So the Cartesian count rejects it."""
    lines = c2_esys_lines(c2)
    i = lines.index(next(line for line in lines if line.startswith("labels 0 1 ")))
    size = int(lines[i].split()[3])
    lines[i] = f"labels 0 1 {size + 1}"
    count = int(next(line for line in lines if line.startswith("egrp 0 1 ")).split()[3])
    with pytest.raises(WellDefinednessFailure,
                       match=rf"^anchor \(0, 1\): {count} triangles, Cartesian "
                             rf"product needs {count // size * (size + 1)}$"):
        parse_elementary_system("\n".join(lines) + "\n")


@pytest.mark.parametrize("rule", ["Z2 x0+x0", "Z2 x3", "Z2 x0+x0 x0+x0+x1",
                                  "Z3 x1 x0+x2", "Z4 x0+x0", "Z4 x0+x0+x1",
                                  "Z4 x2+x2 x1", "Z1 x0"])
def test_rule_members_match_the_earlier_unrolling(rule):
    """Identity images skipped and images cut at the window's end: the
    members of every input word, as the walk over all of them finds."""
    for t1 in range(4):
        text = f"system R\nwindow 0 {t1}\nrule conv {rule}\n"
        new = parsed("gsys", parse_system, text)
        assert isinstance(new, tuple) and new == parsed("gsys", oracles.parse_system, text)


def test_cyclic_groups_above_the_cap_are_refused_everywhere(monkeypatch):
    """`alphabet` and `rule conv` names go through the cap before any table
    is built; the cap itself is still accepted."""
    built = []
    monkeypatch.setattr(io, "cyclic_group", lambda n: built.append(n) or cyclic_group(2))
    over = f"Z{CYCLIC_ORDER_CAP + 1}"
    for text in (f"system X\nwindow 0 1\nalphabet all {over}\nseq 0 1\n",
                 f"system X\nwindow 0 1\nrule conv {over} x0\n"):
        with pytest.raises(BoundExceeded, match=over):
            parse_system(text)
    assert built == []
    resolve_group(f"Z{CYCLIC_ORDER_CAP}")
    assert built == [CYCLIC_ORDER_CAP]


def test_long_windows_fail_on_the_seq_length_first(monkeypatch):
    """Seq lengths are checked before any alphabet is resolved, and each
    alphabet name is resolved once, however long the window."""
    resolved = []
    monkeypatch.setattr(io, "resolve_group",
                        lambda name, search_dir=None: resolved.append(name) or cyclic_group(2))
    with pytest.raises(ParseError, match="does not span the window"):
        parse_system("system X\nwindow 0 1000000\nalphabet all Z2\nseq 0\n")
    assert resolved == []
    system = parse_system("system X\nwindow 0 3\nalphabet all Z2\nalphabet 2 Z3\n"
                          "seq 1 1 0 0\n")
    assert len(system) == 2 and resolved == ["Z2", "Z3"]


def test_reload_reports_bad_triangle_labels_by_token(c2):
    text = dump_elementary_system(extract_elementary_system(build_context(c2)))
    line = next(line for line in text.splitlines() if line.startswith("tri ") and " 1" in line)
    bad = line.replace(" 1", " one", 1)
    with pytest.raises(ParseError, match=rf"^expected an integer, got 'one' in {bad!r}$"):
        parse_elementary_system(text.replace(line, bad, 1))


def test_triangle_labels_outside_the_label_sets_are_rejected(r2):
    """A triangle label past its slot's label count (or negative) keeps the
    element count and the triangles distinct; the reload rejects it, where
    the global group system used to fail on a missing slice."""
    text = dump_elementary_system(extract_elementary_system(build_context(r2)))
    for label in ("9223372036854775808", "-1"):
        bad = text.replace("tri 1 0\ngroup E(0,0)", f"tri 1 {label}\ngroup E(0,0)", 1)
        assert bad != text
        with pytest.raises(WellDefinednessFailure,
                           match=r"label at slot \(0, 0\) is outside 0\.\.0"):
            parse_elementary_system(bad)


# -- fuzzing the parsers ------------------------------------------------------------

PARSERS = {"grp": parse_group, "gsys": parse_system, "esys": parse_elementary_system}


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_texts_end_in_typed_errors(kind, data):
    text = data.draw(fuzzed_texts(kind))
    try:
        PARSERS[kind](text)
    except ToolkitError:
        pass


def parsed(kind: str, parse, text: str):
    """What a parser makes of a text: the type of the typed error it
    raises, or the tables, members and dump it loads."""
    try:
        result = parse(text)
    except ToolkitError as exc:
        return type(exc)
    if kind == "grp":
        return result.name, result.op_table
    if kind == "gsys":
        return (result.name, result.window, result.sequences,
                tuple(g.op_table for g in result.alphabets), dump_system(result))
    return (result.label_sizes, {a: (tab.elements, tab.group.op_table)
                                 for a, tab in result.tables.items()},
            dump_elementary_system(result))


ORACLE_PARSERS = {"grp": oracles.parse_group, "gsys": oracles.parse_system,
                  "esys": oracles.parse_elementary_system}


@pytest.mark.parametrize("kind, text", [(kind, text) for kind in sorted(SEEDS)
                                        for text in SEEDS[kind]])
def test_valid_texts_load_as_with_the_earlier_parsers(kind, text):
    new = parsed(kind, PARSERS[kind], text)
    assert isinstance(new, tuple) and new == parsed(kind, ORACLE_PARSERS[kind], text)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_texts_load_as_with_the_earlier_parsers(kind, data):
    """The readers and the parsers before them load the same objects, or
    raise the same error type; only a .grp text with a line after its
    table, and an .esys labels or egrp line with tokens after its three
    integers, which the earlier parsers ignored, are now parse errors.
    A table whose identity is not element 0, which the earlier parsers
    relabeled before going on, is now an identity AxiomViolation; the
    earlier parse took that table for a group, so it raised no
    AxiomViolation, and the table's element 0 is no identity."""
    text = data.draw(fuzzed_texts(kind))
    new = parsed(kind, PARSERS[kind], text)
    old = parsed(kind, ORACLE_PARSERS[kind], text)
    if new is AxiomViolation and old is not AxiomViolation:
        with pytest.raises(AxiomViolation) as exc:
            PARSERS[kind](text)
        assert (exc.value.kind, exc.value.witness) == ("identity", 0)
        return
    if kind == "grp" and new is ParseError and isinstance(old, tuple):
        assert len(io._strip_lines(text)) > 1 + len(old[1])
        with pytest.raises(ParseError, match="^a line after the table"):
            parse_group(text)
        return
    if kind == "esys" and new is ParseError and isinstance(old, tuple):
        with pytest.raises(ParseError, match="^(labels|egrp) line takes 3 integers"):
            parse_elementary_system(text)
        return
    assert new == old


# -- tables are read as written --------------------------------------------------

def assert_identity_off_zero(load, *args) -> None:
    with pytest.raises(AxiomViolation) as exc:
        load(*args)
    assert exc.value.kind == "identity"


def test_an_inline_group_with_its_identity_off_zero_is_rejected():
    """Z2 with its identity at 1.  The earlier loader relabeled the table
    but read `seq 0 0` in the file's labels, (a, a), and loaded the
    trivial system; written identity first, the same system has two
    members and ell 1."""
    text = "system X\nwindow 0 1\ngroup G 2\n1 0\n0 1\nalphabet all G\nseq 0 0\n"
    assert_identity_off_zero(parse_system, text)
    assert len(oracles.parse_system(text)) == 1
    system = parse_system("system X\nwindow 0 1\ngroup G 2\n0 1\n1 0\n"
                          "alphabet all G\nseq 1 1\n")
    assert len(system) == 2 and systems.controllability_index(system) == 1


def test_a_sibling_group_with_its_identity_off_zero_is_rejected(tmp_path):
    """Z3 with its identity at 1, in `G.grp` beside the system file: the
    earlier loader read `seq 0 1 0` as a system of ell 0, not 2."""
    (tmp_path / "G.grp").write_text("group G 3\n2 0 1\n0 1 2\n1 2 0\n")
    path = tmp_path / "uses_g.gsys"
    path.write_text("system X\nwindow 0 2\nalphabet all G\nseq 0 1 0\n")
    assert_identity_off_zero(load_system_file, path)


def egrp_blocks(lines: list) -> list:
    """(header line, element count) of each egrp block of a dump: its
    triangles follow the header, then the group header and the rows."""
    return [(i, int(line.split()[3])) for i, line in enumerate(lines)
            if line.startswith("egrp ")]


def relabeled_block(lines: list, h: int, n: int, perm: list,
                    triangles: bool = True) -> None:
    """Element a of the block at line h becomes element perm[a], in its
    table and, if `triangles`, in its triangle lines."""
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    rows = [list(map(int, line.split())) for line in lines[h + n + 2:h + 2 * n + 2]]
    lines[h + n + 2:h + 2 * n + 2] = [
        " ".join(str(perm[rows[inv[a]][inv[b]]]) for b in range(n)) for a in range(n)]
    if triangles:
        lines[h + 1:h + n + 1] = [lines[h + 1 + inv[a]] for a in range(n)]


def test_a_consistently_relabeled_esys_block_is_rejected():
    """Elements 0 and 1 of the first block of a constructed dump swapped in
    its triangles and its table: the same group with its identity at 1.
    The earlier loader relabeled the table alone and reported a
    projection condition failure that the file does not have."""
    lines = dump_elementary_system(construct_elementary_system(
        (0, 2), 1, symmetric_group_3())).splitlines()
    (h, n), *_ = egrp_blocks(lines)
    relabeled_block(lines, h, n, [1, 0, *range(2, n)])
    assert_identity_off_zero(parse_elementary_system, "\n".join(lines) + "\n")


TAMPERED_BASES = [
    ((0, 3), 1, cyclic_group(2), ConstructionStrategy(kernels={0: cyclic_group(2)})),
    ((0, 4), 2, cyclic_group(2), ConstructionStrategy(
        kernels={1: cyclic_group(2)}, extension_indices={(1, 1): 2, (1, 2): 2})),
    ((0, 2), 1, symmetric_group_3(), None),
]
TAMPERED_DUMPS = [dump_elementary_system(construct_elementary_system(*args))
                  for args in TAMPERED_BASES]


@st.composite
def tampered_dumps(draw):
    """A constructed dump with one or two blocks changed: two entries of a
    table row swapped, two triangle lines swapped, or the elements
    relabeled by a permutation fixing 0, in the table alone or in the
    table and the triangles.  Returns the text and whether every change
    was a relabel of both, which leaves a system that loads."""
    lines = draw(st.sampled_from(TAMPERED_DUMPS)).splitlines()
    consistent = True
    for _ in range(draw(st.integers(1, 2))):
        h, n = draw(st.sampled_from([b for b in egrp_blocks(lines) if b[1] > 2]))
        kind = draw(st.sampled_from(("entries", "triangles", "relabel")))
        if kind == "relabel":
            perm = [0, *draw(st.permutations(range(1, n)))]
            both = draw(st.booleans())
            relabeled_block(lines, h, n, perm, triangles=both)
            consistent = consistent and both
            continue
        consistent = False
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        if kind == "triangles":
            lines[h + 1 + i], lines[h + 1 + j] = lines[h + 1 + j], lines[h + 1 + i]
        else:
            a = h + n + 2 + draw(st.integers(0, n - 1))
            row = lines[a].split()
            row[i], row[j] = row[j], row[i]
            lines[a] = " ".join(row)
    return "\n".join(lines) + "\n", consistent


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tampered_dumps())
def test_global_systems_of_tampered_dumps_pass_the_system_check(case):
    """`global_group_system` builds its system closed, unchecked but for
    its identity; on every tampered dump that still loads, every pass of
    the system check accepts it.  A dump relabeled consistently loads."""
    text, consistent = case
    try:
        es = parse_elementary_system(text)
    except ToolkitError:
        assert not consistent
        return
    oracles.validate_system(global_group_system(es))


FIXED_POINT_GROUPS = {"Z2": cyclic_group(2), "Z3": cyclic_group(3), "S3": symmetric_group_3()}


@st.composite
def saturated_systems(draw):
    name = draw(st.sampled_from(sorted(FIXED_POINT_GROUPS)))
    g = FIXED_POINT_GROUPS[name]
    length = draw(st.integers(1, 4 if name != "S3" else 3))
    letter = st.integers(0, g.order - 1)
    seeds = draw(st.lists(st.tuples(*[letter] * length), min_size=1, max_size=4))
    return build_system((0, length - 1), [g] * length, seeds, name="F")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(saturated_systems())
def test_dump_parse_dump_is_a_fixed_point(system):
    text = dump_system(system)
    again = parse_system(text)
    assert again.sequences == system.sequences
    assert dump_system(again) == text
