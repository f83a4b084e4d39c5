import pytest

from groupsystems.cli import main


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
