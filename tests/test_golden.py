"""Byte-identical output for a recorded set of commands (see tests/golden/record.py)."""

import json
import os

import pytest

from golden.record import CASES, HERE, run

with open(os.path.join(HERE, "expected.json")) as fh:
    EXPECTED = json.load(fh)


def test_every_case_has_a_golden():
    assert sorted(EXPECTED) == sorted(CASES)
    assert all(EXPECTED[name]["argv"] == argv for name, argv in CASES.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, stdout, stderr = run(CASES[name])
    with open(os.path.join(HERE, f"{name}.out"), "rb") as fh:
        assert stdout == fh.read()
    assert code == EXPECTED[name]["exit"]
    assert stderr == EXPECTED[name]["stderr"]


def _reject(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


@pytest.mark.parametrize("name", sorted(name for name, argv in CASES.items()
                                         if argv[0] in ("verify", "integrate", "special")))
def test_cli_golden_is_strict_json(name):
    # json.loads alone accepts NaN, Infinity and -Infinity; an error (exit 2) prints nothing
    with open(os.path.join(HERE, f"{name}.out"), "rb") as fh:
        stdout = fh.read()
    if EXPECTED[name]["exit"] == 2:
        assert stdout == b""
    else:
        json.loads(stdout, parse_constant=_reject)
