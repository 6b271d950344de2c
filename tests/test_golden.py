"""The CLI's outputs against the golden files in tests/golden/: JSON,
stdout, stderr and exit code of each case, apart from the manifest's
wallTimeMs.  tests/golden/regenerate.py defines the cases and rewrites the
files; a change that moves an output rewrites them and names each file it
moved."""

import json

import pytest

from golden.regenerate import CASES, GOLDEN, run_cases


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


def test_every_case_has_one_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(records, name):
    assert records[name] == json.loads((GOLDEN / f"{name}.json").read_text())
