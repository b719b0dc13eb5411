"""Pinned SHA-256 digests of the CLI's report bytes.

Each digest is of the stdout of one command, run through click's CliRunner
as tests/test_cli.py runs it.  A change that keeps every report
byte-identical keeps every digest, so a failure here names a report whose
bytes moved.  The verify reports embed terwalg.__version__: a version bump
changes their bytes, and the digests must then be pinned again from the
bumped release, after checking that nothing but the version moved.  The
d=10 and d=12 digests that CI compares are in tests/golden.sha256.

Every entry of the cube reports' P, Q and Krein tables is an integer.  The
Petersen graph report pins proper fractions: 4 in Q and 8 in the Krein
table, whose common denominator is 9.
"""

import hashlib

import pytest
from click.testing import CliRunner

from terwalg.cli import main

GOLDEN = {
    "verify --max-d 8 --format json --vertex 0": (
        "32da5e3de5badab32ada75fb768efa2b3db2343d0640cfe5b7da0e476d09e692"
    ),
    "verify --max-d 8 --format json --vertex 37": (
        "42bdd9b4f83c4566c1004b2391f7825a663b5623df1d849650b4fa5db7c9d5cf"
    ),
    "report --d 9 --format json --vertex 0": (
        "36f443cf53247e25e42fd8f064fc0d3fa6d78c9cb872c0a1b1b9e161dbb6b310"
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_bytes_match_pinned_digest(command):
    result = CliRunner().invoke(main, command.split())
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == GOLDEN[command]


PETERSEN = (
    "10 15\n0 7\n0 8\n0 9\n1 5\n1 6\n1 9\n2 4\n2 6\n2 8\n"
    "3 4\n3 5\n3 7\n4 9\n5 8\n6 7\n"
)
PETERSEN_DIGEST = "c99e030486c3e87705ca87e8d22ecb6b25df31f0082a6f2338c292011082fe06"


def test_petersen_graph_report_bytes_match_pinned_digest(tmp_path):
    path = tmp_path / "petersen.txt"
    path.write_text(PETERSEN)
    result = CliRunner().invoke(main, ["graph", "--file", str(path), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == PETERSEN_DIGEST
