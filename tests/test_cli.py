import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzing import LINES, construct_argvs, fuzzed_texts

import oracles

import groupsystems.chains as chains
import groupsystems.cli as cli
import groupsystems.elementary as elementary
from groupsystems.cli import main
from groupsystems.elementary import (
    ConstructionStrategy,
    construct_elementary_system,
    extract_elementary_system,
)
from groupsystems.errors import ParseError
from groupsystems.generators import build_context
from groupsystems.groups import FiniteGroup, cyclic_group
from groupsystems.io import CYCLIC_ORDER_CAP, dump_elementary_system, parse_system


R2_TEXT = "system R2\nwindow 0 1\nalphabet all Z2\nseq 0 0\nseq 1 1\n"
C2_TEXT = "system C2\nwindow 0 3\nrule conv Z2 x0 x0+x1\n"


@pytest.fixture()
def r2_file(tmp_path):
    p = tmp_path / "r2.gsys"
    p.write_text(R2_TEXT)
    return p


@pytest.fixture()
def c2_file(tmp_path):
    p = tmp_path / "c2.gsys"
    p.write_text(C2_TEXT)
    return p


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_past_the_letter_cap_exits_3(capsys, tmp_path):
    """2^16 members of 516 letters: within the member cap, past LETTER_CAP;
    the run ends in exit 3 naming the stage and the cap, not in a
    MemoryError in the controllability index."""
    path = tmp_path / "x500.gsys"
    path.write_text("system X\nwindow 0 515\nrule conv Z2 x500\n")
    code, out, err = run(capsys, "validate", path)
    assert code == 3 and out == ""
    assert "rule unrolling" in err and "exceed cap LETTER_CAP=16777216 letters" in err


def test_validate_r2(capsys, r2_file):
    code, out, _ = run(capsys, "validate", r2_file)
    assert code == 0
    assert "order=2" in out and "ell=1" in out


def test_validate_trivial(capsys, tmp_path):
    p = tmp_path / "t.gsys"
    p.write_text("system T\nwindow 0 0\nalphabet all Z1\nseq 0\n")
    code, out, _ = run(capsys, "validate", p)
    assert code == 0
    assert "order=1 ell=0" in out


def test_validate_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.gsys"
    p.write_text("window 0 1\nnonsense\n")
    code, _, err = run(capsys, "validate", p)
    assert code == 1
    assert "error" in err


def test_validate_invariant_violation(capsys, tmp_path):
    p = tmp_path / "bad.gsys"
    p.write_text("system B\nwindow 0 1\nalphabet all Z2\nseq 0 0\nseq 3 3\n")
    code, _, err = run(capsys, "validate", p)
    assert code == 2
    assert "invariant" in err


def test_corrupted_group_table(capsys, tmp_path):
    p = tmp_path / "bad.gsys"
    p.write_text("system B\nwindow 0 0\ngroup K 2\n0 1\n1 1\n"
                 "alphabet all K\nseq 0\nseq 1\n")
    code, _, err = run(capsys, "validate", p)
    assert code == 2


def test_generators_r2(capsys, r2_file):
    code, out, _ = run(capsys, "generators", r2_file)
    assert code == 0
    assert "gen k=1 t=0 count=2" in out
    assert "1: 1 1" in out


def test_generators_c2_counts(capsys, c2_file):
    code, out, _ = run(capsys, "generators", c2_file)
    assert code == 0
    for t in (0, 1, 2):
        assert f"gen k=1 t={t} count=2" in out
    assert "gen k=0 t=3 count=2" in out


def test_encode_decode_roundtrip(capsys, r2_file, tmp_path):
    tensor = tmp_path / "t.rt"
    tensor.write_text("1 0 1\n")
    code, out, _ = run(capsys, "encode", r2_file, tensor)
    assert code == 0
    assert out.startswith("seq 1 1")
    code, out, _ = run(capsys, "decode", r2_file, "--seq", "1 1")
    assert code == 0
    assert "1 0 1" in out.splitlines()


def test_encode_spectral_agreement(capsys, c2_file, tmp_path):
    tensor = tmp_path / "t.rt"
    tensor.write_text("1 0 1\n1 1 1\n")
    code, out, _ = run(capsys, "encode", c2_file, tensor, "--spectral")
    assert code == 0
    assert "agree yes" in out


def test_chains_all_fillings(capsys, c2_file):
    for kind in ("time_rev", "time_fwd", "spec_rev", "spec_fwd"):
        code, out, _ = run(capsys, "chains", c2_file, "--filling", kind)
        assert code == 0
        assert "reconstruct ok order=16" in out


C2_TIME_REV_CHAINS = (
    "step 0 add (0,3) cosets 2 reps 0 1\n"
    "step 1 add (0,2) cosets 1 reps 0\n"
    "step 2 add (1,2) cosets 2 reps 0 1\n"
    "step 3 add (0,1) cosets 1 reps 0\n"
    "step 4 add (1,1) cosets 2 reps 0 1\n"
    "step 5 add (0,0) cosets 1 reps 0\n"
    "step 6 add (1,0) cosets 2 reps 0 1\n"
    "reconstruct ok order=16\n")


def test_chains_builds_its_chain_once(capsys, c2_file, monkeypatch):
    """`chains` reconstructs from the chain it printed; the output is the
    one it gave when reconstruction built a second chain."""
    calls = []
    real = chains.normal_chain

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(chains, "normal_chain", counted)
    monkeypatch.setattr(cli, "normal_chain", counted)
    code, out, _ = run(capsys, "chains", c2_file, "--filling", "time_rev")
    assert (code, out) == (0, C2_TIME_REV_CHAINS)
    assert len(calls) == 1


def test_chains_on_4096_members_builds_no_member_table(capsys, tmp_path, monkeypatch):
    """Z2 x0 x0+x1 over [0,11]: 4096 members, twice as many as the member
    table the chains once needed allowed.  Every walk reconstructs, and no
    group table of order |A| or more is built on the way."""
    path = tmp_path / "z2w12.gsys"
    path.write_text("system Z\nwindow 0 11\nrule conv Z2 x0 x0+x1\n")
    orders = []
    init = FiniteGroup.__init__
    monkeypatch.setattr(FiniteGroup, "__init__", lambda self, table, *a, **k:
                        orders.append(len(table)) or init(self, table, *a, **k))
    for kind in ("time_rev", "spec_fwd"):
        code, out, err = run(capsys, "chains", path, "--filling", kind)
        assert (code, err) == (0, "")
        assert out.endswith("reconstruct ok order=4096\n")
        assert out.count("\nstep ") == 22
    assert max(orders) < 4096


def test_chains_walk_file(capsys, r2_file, tmp_path):
    walk = tmp_path / "walk.txt"
    walk.write_text("0 1\n0 0\n1 0\n")
    code, out, _ = run(capsys, "chains", r2_file, "--filling", f"@{walk}")
    assert code == 0
    assert "step 2 add (1,0) cosets 2" in out


def test_chains_invalid_walk(capsys, r2_file, tmp_path):
    walk = tmp_path / "walk.txt"
    walk.write_text("1 0\n0 0\n0 1\n")
    code, _, err = run(capsys, "chains", r2_file, "--filling", f"@{walk}")
    assert code == 2
    assert "prefix" in err


def test_blockchains_parity(capsys, tmp_path):
    p = tmp_path / "p3.gsys"
    p.write_text("system P3\nwindow 0 2\nalphabet all Z2\n"
                 "seq 0 0 0\nseq 0 1 1\nseq 1 0 1\nseq 1 1 0\n")
    code, out, _ = run(capsys, "blockchains", p)
    assert code == 0
    assert "truncated no" in out
    for line in out.splitlines():
        if line.startswith("chain "):
            assert "order=4" in line


def test_esys_dump_and_roundtrip(capsys, c2_file, tmp_path):
    out_path = tmp_path / "c2.esys"
    code, _, _ = run(capsys, "--out", out_path, "esys", c2_file)
    assert code == 0
    assert out_path.read_text().startswith("esys")
    code, out, _ = run(capsys, "roundtrip", out_path)
    assert code == 0
    assert "roundtrip ok" in out


def test_esys_stray_tokens_exit_1_and_a_tab_header_loads(capsys, c2_file, tmp_path):
    out_path = tmp_path / "c2.esys"
    run(capsys, "--out", out_path, "esys", c2_file)
    text = out_path.read_text()
    tab = tmp_path / "tab.esys"
    tab.write_text(text.replace("esys ", "esys\t", 1))
    code, out, _ = run(capsys, "roundtrip", tab)
    assert code == 0 and "roundtrip ok" in out
    for stanza, extra in (("labels", " junk 7"), ("egrp", " more")):
        bad = tmp_path / f"{stanza}.esys"
        bad.write_text(re.sub(rf"^({stanza} .*)$", rf"\1{extra}", text, count=1,
                              flags=re.M))
        code, _, err = run(capsys, "roundtrip", bad)
        assert code == 1 and f"{stanza} line takes 3 integers" in err
        assert extra in err and "Traceback" not in err


def test_roundtrip_gsys(capsys, c2_file):
    code, out, _ = run(capsys, "roundtrip", c2_file)
    assert code == 0
    assert "roundtrip ok order=16" in out


def test_construct_and_verify(capsys, tmp_path):
    out_path = tmp_path / "built.esys"
    code, out, _ = run(capsys, "--out", out_path, "--window", "0", "3",
                       "construct", "--seed-group", "Z2", "--ell", "1",
                       "--kernel", "0=Z2")
    assert code == 0
    assert "system order=128 ell=1" in out
    code, out, _ = run(capsys, "roundtrip", out_path)
    assert code == 0


def test_construct_rejects_negative_extension_index(capsys):
    code, _, err = run(capsys, "--window", "0", "3", "construct",
                       "--seed-group", "Z2", "--ell", "1", "--kernel", "0=Z2",
                       "--ext-index", "0=-3")
    assert code == 2 and "extension index -3" in err


def test_window_flag_checked(capsys, r2_file):
    code, _, err = run(capsys, "--window", "0", "2", "validate", r2_file)
    assert code == 2
    assert "window" in err
    code, _, _ = run(capsys, "--window", "0", "1", "validate", r2_file)
    assert code == 0


def test_out_must_differ_from_input(capsys, r2_file):
    code, _, err = run(capsys, "--out", r2_file, "esys", r2_file)
    assert code == 1
    assert "differ" in err


def test_deterministic_output(capsys, c2_file):
    code1, out1, _ = run(capsys, "generators", c2_file)
    code2, out2, _ = run(capsys, "generators", c2_file)
    assert (code1, out1) == (code2, out2)


def test_generators_dump_format(capsys, r2_file):
    code, out, _ = run(capsys, "--format", "dump", "generators", r2_file)
    assert code == 0
    assert "egrp 1 0 2" in out  # local-group blocks appended


def test_validate_verbose(capsys, r2_file):
    code, out, _ = run(capsys, "--verbose", "validate", r2_file)
    assert code == 0
    assert "slot k=1 t=0 generators=2" in out


def test_malformed_inputs_exit_with_their_codes(capsys, c2_file, tmp_path):
    run(capsys, "--out", tmp_path / "c2.esys", "esys", c2_file)
    lines = (tmp_path / "c2.esys").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("egrp 0 3 "))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("egrp "))
    missing = tmp_path / "missing.esys"
    missing.write_text("\n".join(lines[:start] + lines[end:]) + "\n")
    code, _, err = run(capsys, "roundtrip", missing)
    assert code == 2 and "anchor (0, 3)" in err
    truncated = tmp_path / "truncated.esys"
    truncated.write_text("\n".join(lines[:start + 3]) + "\n")
    code, _, err = run(capsys, "roundtrip", truncated)
    assert code == 1 and "truncated" in err
    bad_order = tmp_path / "bad.gsys"
    bad_order.write_text("system X\nwindow 0 1\ngroup G abc\nalphabet all Z2\nseq 1 1\n")
    code, _, err = run(capsys, "validate", bad_order)
    assert code == 1 and "abc" in err
    construct = ("--window", "0", "3", "construct", "--seed-group", "Z2",
                 "--ell", "1")
    for flags in (("--ext-index", "0=x"), ("--ext-index", "0"),
                  ("--kernel", "x=Z2")):
        code, _, err = run(capsys, *construct, *flags)
        assert code == 1 and flags[1] in err
    for flags in (("--seed-group", "Z0", "--ell", "1"),
                  ("--seed-group", "Z2", "--ell", "1", "--kernel", "0=Z0")):
        code, _, err = run(capsys, "--window", "0", "3", "construct", *flags)
        assert code == 1 and "Z0" in err
    # no slot of [0,3] spans 6 times, so the seed group would have no row
    code, out, err = run(capsys, "--window", "0", "3", "construct",
                         "--seed-group", "Z2", "--ell", "5")
    assert code == 2 and out == ""
    assert "ell 5 exceeds the window [0,3]" in err
    over = f"Z{CYCLIC_ORDER_CAP + 1}"
    for flags in (("--seed-group", over, "--ell", "1"),
                  ("--seed-group", "Z2", "--ell", "1", "--kernel", f"0={over}")):
        code, _, err = run(capsys, "--window", "0", "3", "construct", *flags)
        assert code == 3 and f"order {CYCLIC_ORDER_CAP + 1} exceeds cap" in err
    for body in (f"alphabet all {over}\nseq 0 1\n", f"rule conv {over} x0\n"):
        big = tmp_path / "big.gsys"
        big.write_text(f"system X\nwindow 0 1\n{body}")
        code, _, err = run(capsys, "validate", big)
        assert code == 3 and over in err
    zero = tmp_path / "zero.gsys"
    zero.write_text("system X\nwindow 0 1\nalphabet all Z0\nseq 0 0\n")
    code, _, err = run(capsys, "validate", zero)
    assert code == 1 and "Z0" in err
    walk = tmp_path / "walk.txt"
    walk.write_text("0 x\n")
    code, _, err = run(capsys, "chains", c2_file, "--filling", f"@{walk}")
    assert code == 1 and "0 x" in err
    for argv in (("--member-cap", "x", "validate", c2_file), ("validate",)):
        with pytest.raises(SystemExit) as usage:
            run(capsys, *argv)
        assert usage.value.code == 1
    with pytest.raises(SystemExit) as usage:
        run(capsys, "--help")
    assert usage.value.code == 0


def test_caps_must_be_positive_and_the_window_matches_as_a_tuple(capsys, c2_file):
    for flags in (("--member-cap", "0"), ("--ordering-cap", "-1")):
        code, out, err = run(capsys, *flags, "validate", c2_file)
        assert (code, out) == (1, "") and "bounds must be positive" in err
    code, out, _ = run(capsys, "--window", "0", "3", "validate", c2_file)
    assert code == 0 and "order=16" in out
    code, _, err = run(capsys, "--window", "0", "2", "validate", c2_file)
    assert code == 2 and "does not match --window (0, 2)" in err


def test_4096_member_system_runs_end_to_end(capsys, tmp_path):
    """Z4 x0 x0+x1 on [0,5] has 4096 members, twice the sequence-table cap;
    no command on this path builds that table."""
    p = tmp_path / "z4.gsys"
    p.write_text("system Z4W6\nwindow 0 5\nrule conv Z4 x0 x0+x1\n")
    code, out, _ = run(capsys, "validate", p)
    assert code == 0 and "order=4096" in out
    code, _, _ = run(capsys, "--out", tmp_path / "z4.esys", "esys", p)
    assert code == 0
    assert (tmp_path / "z4.esys").read_text().startswith("esys")
    code, out, _ = run(capsys, "roundtrip", p)
    assert code == 0 and "roundtrip ok order=4096" in out


def test_construct_s3_with_trivial_kernels(capsys):
    code, out, _ = run(capsys, "--window", "0", "4", "construct",
                       "--seed-group", "S3", "--ell", "2")
    assert code == 0 and "system order=216 ell=2" in out


def test_construct_s3_with_kernel_below_it(capsys, tmp_path):
    """A Z2 kernel under S3: the extension search that used to stop at its
    2^25 factor sets finds Z2 x S3 first."""
    out_path = tmp_path / "s3z2.esys"
    code, out, _ = run(capsys, "--out", out_path, "--window", "0", "1",
                       "construct", "--seed-group", "S3", "--ell", "1",
                       "--kernel", "0=Z2")
    assert code == 0 and "system order=24 ell=1" in out
    code, _, _ = run(capsys, "roundtrip", out_path)
    assert code == 0


def test_construct_s3_by_s3_past_order_64(capsys, tmp_path):
    """An S3 kernel under S3 x S3: the extensions have order 216, and the
    search's isomorphism tests take that order as their cap instead of
    stopping at 64.  The dump reloads and round-trips."""
    out_path = tmp_path / "s3s3.esys"
    code, out, err = run(capsys, "--out", out_path, "--window", "0", "2",
                         "construct", "--seed-group", "S3", "--ell", "1",
                         "--kernel", "0=S3")
    assert code == 0, err
    assert "system order=7776 ell=1" in out
    code, out, _ = run(capsys, "roundtrip", out_path)
    assert code == 0 and "roundtrip ok system order=7776 ell=1" in out


@pytest.mark.parametrize("top,order", [("Z7", 7), ("Z12", 12), ("Z64", 64)])
def test_construct_cyclic_tops_past_the_automorphism_cap(capsys, tmp_path, top, order):
    """The top row runs no extension search, so seed groups whose
    automorphism candidates pass the search's cap construct, and their
    dumps round-trip."""
    out_path = tmp_path / "top.esys"
    code, out, err = run(capsys, "--out", out_path, "--window", "0", "1",
                         "construct", "--seed-group", top, "--ell", "1")
    assert (code, err) == (0, "")
    assert out == f"constructed E depth=2 system order={order} ell=1\n"
    code, out, _ = run(capsys, "roundtrip", out_path)
    assert code == 0 and f"roundtrip ok system order={order} ell=1" in out


def test_construct_caps_its_anchor_tables_before_building_one(capsys, monkeypatch):
    """Z256 on [0, 2] has 2^16 label tensors, under the member cap, but its
    anchor (0, 1) would hold a 2^16 x 2^16 table: the sum of the squared
    anchor orders is counted from the label sizes, and no anchor is
    built."""
    def no_anchor(*args):
        raise AssertionError("an anchor was built")

    monkeypatch.setattr(elementary, "_build_anchor", no_anchor)
    for window, top, ell, entries in (("2", "Z256", "1", 4295229440),
                                      ("4", "Z64", "3", 100696064)):
        code, _, err = run(capsys, "--window", "0", window, "construct",
                           "--seed-group", top, "--ell", ell)
        assert (code, err) == (3, f"bound exceeded: construction: {entries} anchor "
                                  f"table entries exceed cap 67108864\n")


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv,code", [
    ("--window 0 3 construct --seed-group S3 --ell 1 --kernel 0=Z3", 0),
    ("--window 0 3 construct --seed-group S3 --ell 1 --kernel 0=Z2", 0),
    ("--window 0 2 construct --seed-group Z4 --ell 1 --kernel 0=Z2", 0),
    ("--window 0 3 construct --seed-group S3 --ell 1 --kernel 0=Z2 --ext-index 0=1", 3),
    ("--window 0 2 construct --seed-group Z4 --ell 1 --kernel 0=Z2 --ext-index 0=1", 3),
    ("--window 0 2 construct --seed-group Z10 --ell 1 --kernel 0=Z2 --ext-index 0=1", 3),
], ids=["s3-z3", "s3-z2", "z4-z2", "s3-z2-index1", "z4-z2-index1", "z10-z2-index1"])
def test_large_extension_searches_finish_or_name_their_cap(argv, code, tmp_path):
    """Kernels under bases of order 16, 36 and 100: index 0, the direct
    product, needs no search and finishes; index 1 stops in the cocycle
    search with a message that names the stage, the value and the node
    cap, in a minute and without a traceback.  Under the bases of order
    36 and 100 the search is refused before it starts, as it is bound to
    pass the cap."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "groupsystems.cli", *argv.split()],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert "Traceback" not in done.stderr
    assert done.returncode == code, done.stderr
    if code == 3:
        assert re.fullmatch(r"bound exceeded: [a-z ]+: .*\b\d+\b.* exceeds? "
                            r"cap \d+\n", done.stderr), done.stderr
        assert "cocycle search too large" in done.stderr


def test_roundtrip_twisted_esys(capsys, tmp_path):
    """A twisted construction has no per-slot label bijection to its own
    extraction; it round-trips up to isomorphism.  An untwisted one still
    matches exactly, and its output line is unchanged."""
    z2 = cyclic_group(2)
    strategy = ConstructionStrategy(kernels={1: z2},
                                    extension_indices={(1, 1): 2, (1, 2): 2})
    twisted = tmp_path / "twisted.esys"
    twisted.write_text(dump_elementary_system(
        construct_elementary_system((0, 4), 2, z2, strategy)))
    code, out, _ = run(capsys, "roundtrip", twisted)
    assert (code, out) == (0, "roundtrip ok system order=128 ell=2 up to isomorphism\n")
    plain = tmp_path / "plain.esys"
    plain.write_text(dump_elementary_system(
        construct_elementary_system((0, 4), 2, z2, ConstructionStrategy(kernels={1: z2}))))
    code, out, _ = run(capsys, "roundtrip", plain)
    assert code == 0 and out.startswith("roundtrip ok system order=") \
        and "isomorphism" not in out


def test_roundtrip_twisted_esys_with_anchors_past_order_64(capsys, tmp_path):
    """Twisted depth-2 anchors on [0,6] have 128 elements.  The roundtrip
    checks the isomorphism it holds, with no search and so no cap (an
    anchor-by-anchor search stopped at order 64 with exit 3), and an
    `.esys` is held to --window like a `.gsys`."""
    z2 = cyclic_group(2)
    strategy = ConstructionStrategy(kernels={2: z2},
                                    extension_indices={(2, t): 2 for t in (1, 2, 3)})
    path = tmp_path / "twisted06.esys"
    path.write_text(dump_elementary_system(
        construct_elementary_system((0, 6), 3, z2, strategy)))
    code, out, _ = run(capsys, "roundtrip", path)
    assert (code, out) == (0, "roundtrip ok system order=512 ell=3 up to isomorphism\n")
    code, out, err = run(capsys, "--window", "0", "9", "roundtrip", path)
    assert (code, out) == (2, "")
    assert err == ("invariant violation: system window (0, 6) does not match "
                   "--window (0, 9)\n")
    code, out, _ = run(capsys, "--window", "0", "6", "roundtrip", path)
    assert code == 0 and out.endswith(" up to isomorphism\n")


# -- the input boundary ------------------------------------------------------------

NOT_UTF8 = b"system X\nwindow 0 1\n\xff\n"


def test_non_utf8_inputs_are_parse_errors(capsys, r2_file, tmp_path):
    """A byte that is no UTF-8 ends in a parse error naming the file, for
    each of the four formats the CLI reads."""
    bad_gsys = tmp_path / "bad.gsys"
    bad_gsys.write_bytes(NOT_UTF8)
    code, _, err = run(capsys, "validate", bad_gsys)
    assert code == 1 and str(bad_gsys) in err and "UTF-8" in err

    (tmp_path / "K.grp").write_bytes(b"group K 2\n0 1\n1 0\xff\n")
    uses_grp = tmp_path / "uses_grp.gsys"
    uses_grp.write_text("system X\nwindow 0 1\nalphabet all K\nseq 1 1\n")
    code, _, err = run(capsys, "validate", uses_grp)
    assert code == 1 and str(tmp_path / "K.grp") in err and "UTF-8" in err

    bad_esys = tmp_path / "bad.esys"
    bad_esys.write_bytes(b"esys E depth 1 window 0 1\n\xff\n")
    code, _, err = run(capsys, "roundtrip", bad_esys)
    assert code == 1 and str(bad_esys) in err and "UTF-8" in err

    bad_tensor = tmp_path / "bad.tensor"
    bad_tensor.write_bytes(b"1 0 1\n\xfe\n")
    code, _, err = run(capsys, "encode", r2_file, bad_tensor)
    assert code == 1 and str(bad_tensor) in err and "UTF-8" in err


def test_ragged_group_rows_are_parse_errors(capsys, tmp_path):
    """A table row of the wrong length is a parse error naming the row, in
    a .grp file and in an inline group block."""
    (tmp_path / "G.grp").write_text("group G 2\n0 1\n1\n")
    uses_grp = tmp_path / "uses_grp.gsys"
    uses_grp.write_text("system X\nwindow 0 1\nalphabet all G\nseq 1 1\n")
    inline = tmp_path / "inline.gsys"
    inline.write_text("system X\nwindow 0 1\ngroup G 2\n0 1\n1 0 1\n"
                      "alphabet all G\nseq 1 1\n")
    for path, entries in ((uses_grp, 1), (inline, 3)):
        code, _, err = run(capsys, "validate", path)
        assert code == 1
        assert f"table row 1 of group G has {entries} entries, expected 2" in err


R2_ESYS = dump_elementary_system(extract_elementary_system(build_context(
    parse_system(R2_TEXT))))


def bad_integer_cases():
    """(files to write, command line, the line holding the bad token 'x')
    for every integer field the command line reads."""
    def gsys(old, new):
        return ({"r2.gsys": R2_TEXT.replace(old, new)}, ("validate", "r2.gsys"),
                new.splitlines()[-1])

    def grp(text, line):
        return ({"G.grp": text, "g.gsys": "system X\nwindow 0 1\nalphabet all G\nseq 1 1\n"},
                ("validate", "g.gsys"), line)

    def esys(old, new, line):
        text = R2_ESYS.replace(old, new, 1)
        assert text != R2_ESYS
        return {"r2.esys": text}, ("roundtrip", "r2.esys"), line

    def r2_with(name, text, *argv):
        return {"r2.gsys": R2_TEXT, **({name: text} if name else {})}, argv

    return {
        "gsys window": gsys("window 0 1", "window 0 x"),
        "gsys seq": gsys("seq 1 1", "seq 1 x"),
        "gsys alphabet time": gsys("alphabet all Z2", "alphabet x Z2"),
        "gsys group header": gsys("alphabet all Z2", "group G x"),
        "gsys group row": gsys("alphabet all Z2", "group G 2\n0 1\n1 x"),
        "grp header": grp("group G x\n", "group G x"),
        "grp row": grp("group G 2\n0 x\n1 0\n", "0 x"),
        "esys header": esys("depth 2", "depth x", "esys E(R2) depth x window 0 1"),
        "esys labels": esys("labels 0 0 1", "labels 0 x 1", "labels 0 x 1"),
        "esys egrp": esys("egrp 0 1 2", "egrp 0 1 x", "egrp 0 1 x"),
        "esys tri": esys("tri 1 0\ngroup E(0,1)", "tri 1 x\ngroup E(0,1)", "tri 1 x"),
        "esys group header": esys("E(0,0) 2", "E(0,0) x", "group E(0,0) x"),
        "esys group row": esys("E(1,0) 2\n0 1\n1 0", "E(1,0) 2\n0 1\n1 x", "1 x"),
        "tensor file": (*r2_with("t.rt", "1 0 1\n1 x 1\n", "encode", "r2.gsys", "t.rt"),
                        "1 x 1"),
        "walk file": (*r2_with("walk.txt", "0 1\n0 x\n", "chains", "r2.gsys",
                               "--filling", "@walk.txt"), "0 x"),
        "decode --seq": (*r2_with(None, None, "decode", "r2.gsys", "--seq", "1 x"), "1 x"),
    }


@pytest.mark.parametrize("case", sorted(bad_integer_cases()))
def test_every_integer_field_reports_the_bad_token(capsys, tmp_path, monkeypatch, case):
    """A token that is no integer, in any field of any input, is one
    parse error naming the token and its line."""
    files, argv, line = bad_integer_cases()[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: expected an integer, got 'x' in {line!r}\n")


def test_a_tensor_slot_given_twice_is_a_parse_error(capsys, r2_file, tmp_path):
    """A tensor file names each slot at most once."""
    tensor = tmp_path / "t.rt"
    tensor.write_text("0 1 1\n1 0 1\n0 1 0\n")
    code, out, err = run(capsys, "encode", r2_file, tensor)
    assert (code, out, err) == (1, "", "error: tensor slot (0,1) given twice\n")


@pytest.mark.parametrize("flag, items", [("--kernel", ("0=Z2", "0=Z3")),
                                         ("--kernel", ("0=Z3", "0=Z2")),
                                         ("--ext-index", ("0=0", "0=1"))])
def test_a_construct_depth_given_twice_is_a_parse_error(capsys, flag, items):
    """Each depth is given at most once per flag."""
    argv = ["--window", "0", "3", "construct", "--seed-group", "Z2", "--ell", "1"]
    for item in items:
        argv += [flag, item]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: depth 0 given twice: {items[1]!r}\n"


@pytest.mark.parametrize("flags, message", [
    (("--kernel", "1=Z2"), "kernel key 1 names no anchor below the top row of"),
    (("--kernel", "5=Z2"), "kernel key 5 names no anchor below the top row of"),
    (("--ext-index", "2=0"), "extension index key 2 names no anchor in"),
])
def test_construct_depths_no_anchor_reads_exit_2(capsys, flags, message):
    """At ell 1 a kernel is read at depth 0 only and an extension index
    at depths 0 and 1; any other depth exits 2, as an `--ell` past the
    window does."""
    code, out, err = run(capsys, "--window", "0", "3", "construct",
                         "--seed-group", "Z2", "--ell", "1", *flags)
    assert (code, out) == (2, "")
    assert err == (f"invariant violation: {message} the slot table of ell 1 "
                   f"on [0,3]\n")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.one_of(LINES, LINES.map("{} # note".format),
                                st.sampled_from(["", "   ", "# only", "1 0 1", "0 1"])),
                      max_size=6),
       form=st.sampled_from(["<k> <t> <index>", "<k> <t>"]))
def test_tensor_and_walk_files_read_as_before(tmp_path, lines, form):
    """`_read_int_lines` on `_strip_lines` and `_int_list` gives the rows
    the earlier reader gave, or a parse error where it gave one."""
    path = tmp_path / "rows.txt"
    path.write_text("\n".join(lines) + "\n")
    results = []
    for read in (cli._read_int_lines, oracles.read_int_lines):
        try:
            results.append(read(str(path), "tensor", form))
        except ParseError:
            results.append(ParseError)
    assert results[0] == results[1]


def run_limited(argv: str, cwd, timeout: int = 60) -> subprocess.CompletedProcess:
    """The command line in a child process whose address space is limited
    to 2 GB, so an input that makes the program allocate without bound
    fails there instead of exhausting the host."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, 2 * 1024 ** 3))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "groupsystems.cli", *argv.split()],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit)


def test_oversized_construct_names_its_cap_before_enumerating(tmp_path):
    """2^40 label tensors on [0, 40]: the global group system counts them
    against the member cap before building any."""
    done = run_limited("--window 0 40 construct --seed-group Z2 --ell 1", tmp_path,
                       timeout=30)
    assert "Traceback" not in done.stderr
    assert done.returncode == 3, done.stderr
    assert done.stderr == ("bound exceeded: global group system: 1099511627776 "
                           "label tensors exceed cap 65536\n")


def test_over_cap_construct_fails_before_building_an_anchor(capsys, monkeypatch):
    """2^30000 label tensors on [0, 30000]: the label sizes are counted
    from the request, with the message the global group system gives,
    and no anchor is built; where a row of more than 2^16 slots has a
    size above 1, the power of two is summed size by size."""
    def no_anchor(*args):
        raise AssertionError("an anchor was built")

    monkeypatch.setattr(elementary, "_build_anchor", no_anchor)
    got, _, err = run(capsys, "--window", "0", "30000", "construct",
                      "--seed-group", "Z2", "--ell", "1")
    assert (got, err) == (3, "bound exceeded: global group system: at least "
                             "2^30000 label tensors exceed cap 65536\n")
    got, _, err = run(capsys, "--window", "0", str(10 ** 30), "construct",
                      "--seed-group", "Z3", "--ell", "1", "--kernel", "0=Z4")
    assert (got, err) == (3, "bound exceeded: global group system: at least "
                             f"2^{3 * 10 ** 30 + 2} label tensors exceed cap 65536\n")


def test_long_windows_end_in_typed_errors(capsys, tmp_path):
    """Inputs whose size comes from a window, not from the text: each fails
    at once with its documented exit code."""
    cases = [
        ("system X\nwindow 0 1000000\nalphabet all Z2\nseq 0\n", 1,
         "does not span the window"),
        ("system X\nwindow 0 100000\nrule conv Z2 x0 x1\n", 3,
         "rule unrolling: a window of 100001 times exceeds cap 65536"),
        ("system X\nwindow 0 100000000\nrule conv Z1 x0\n", 3,
         "a window of 100000001 times exceeds cap"),
        ("system X\nwindow 0 3\nrule conv Z2 x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10\n", 3,
         "output alphabet order 2^11 exceeds cap CYCLIC_ORDER_CAP=1024"),
        (f"system X\nwindow 0 3\nrule conv Z2 x{'9' * 5000}\n", 1, "bad tap expression"),
        ("system X\nwindow 0 -1000000000000000000000000000000\nrule conv Z2 x0\n", 2,
         "empty window [0,-1000000000000000000000000000000]"),
    ]
    for text, code, message in cases:
        p = tmp_path / "long.gsys"
        p.write_text(text)
        got, _, err = run(capsys, "validate", p)
        assert (got, message in err) == (code, True), err
    esys = tmp_path / "wide.esys"
    esys.write_text("esys E depth 1000000000 window 0 1000000000\nlabels 0 0 1\n")
    got, _, err = run(capsys, "roundtrip", esys)
    assert got == 1 and "more times than the file has lines" in err
    huge = "Z" + "9" * 5000
    got, _, err = run(capsys, "--window", "0", "2", "construct", "--seed-group", huge,
                      "--ell", "1")
    assert got == 3 and "exceeds cap CYCLIC_ORDER_CAP" in err


FUZZ_COMMANDS = {
    "gsys": (("validate",), ("generators",), ("esys",), ("roundtrip",), ("chains",)),
    "esys": (("roundtrip",),),
    "grp": (("validate",),),
}


@pytest.mark.parametrize("kind", sorted(FUZZ_COMMANDS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_files_exit_with_a_documented_code(kind, data):
    """`main` on fuzzed files returns 0-3 and raises nothing; a .grp file
    is read as the alphabet of a system next to it."""
    text = data.draw(fuzzed_texts(kind))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if kind == "grp":
            (tmp / "G0.grp").write_text(text)
            path = tmp / "uses_g0.gsys"
            path.write_text("system X\nwindow 0 1\nalphabet all G0\nseq 1 1\n")
        else:
            path = tmp / f"fuzzed.{kind}"
            path.write_text(text)
        for command in FUZZ_COMMANDS[kind]:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*command, str(path)])
            assert code in (0, 1, 2, 3)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=construct_argvs())
def test_fuzzed_construct_flags_exit_with_a_documented_code(argv):
    """`main` on fuzzed construct flags returns 0-3 and raises nothing but
    the usage error's SystemExit(1) (an item such as `-1=Z1` reads as an
    option)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
