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
