import pytest

from groupsystems.elementary import extract_elementary_system, structurally_equal
from groupsystems.errors import NotAGroupSystem, ParseError, WellDefinednessFailure
from groupsystems.generators import build_context
from groupsystems.groups import cyclic_group, symmetric_group_3
from groupsystems.io import (
    dump_elementary_system,
    dump_group,
    dump_system,
    parse_elementary_system,
    parse_group,
    parse_system,
    resolve_group,
)


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
    assert structurally_equal(es, again) is not None
    assert dump_elementary_system(again) == text


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
