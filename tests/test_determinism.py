"""Every CLI command prints the same bytes in processes that hash strings
differently (PYTHONHASHSEED 0 and 1), so no output depends on the
iteration order of a set or dict keyed by strings or tuples."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from groupsystems.elementary import ConstructionStrategy, construct_elementary_system
from groupsystems.groups import cyclic_group
from groupsystems.io import dump_elementary_system

SRC = Path(__file__).resolve().parents[1] / "src"

FILES = {
    "c2.gsys": "system C2\nwindow 0 3\nrule conv Z2 x0 x0+x1\n",
    "s3.gsys": "system RS3\nwindow 0 2\nalphabet all S3\nseq 1 1 0\nseq 3 3 0\n"
               "seq 0 1 1\n",
    "p3.gsys": "system P3\nwindow 0 2\nalphabet all Z2\nseq 0 1 1\nseq 1 0 1\n",
    "c2.tensor": "1 2 1\n0 3 1\n",
}

COMMANDS = {
    "validate": ["-v", "validate", "s3.gsys"],
    "generators": ["--format", "dump", "generators", "s3.gsys"],
    "encode": ["encode", "c2.gsys", "c2.tensor", "--spectral"],
    "decode": ["decode", "c2.gsys", "--seq", "1 1 3 2"],
    "chains": ["chains", "s3.gsys", "--filling", "time_rev"],
    "blockchains": ["blockchains", "p3.gsys"],
    "esys": ["esys", "s3.gsys"],
    "construct": ["--window", "0", "3", "construct", "--seed-group", "Z2",
                  "--ell", "1", "--kernel", "0=Z2"],
    "roundtrip": ["roundtrip", "twisted.esys"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    for name, text in FILES.items():
        (root / name).write_text(text)
    z2 = cyclic_group(2)
    twisted = ConstructionStrategy(kernels={1: z2},
                                   extension_indices={(1, 1): 2, (1, 2): 2})
    (root / "twisted.esys").write_text(dump_elementary_system(
        construct_elementary_system((0, 4), 2, z2, twisted)))
    return root


def cli_stdout(root: Path, argv, hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "groupsystems.cli", *argv],
                          cwd=root, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_is_identical_across_hash_seeds(inputs, command):
    argv = COMMANDS[command]
    first = cli_stdout(inputs, argv, "0")
    assert first
    assert cli_stdout(inputs, argv, "1") == first
