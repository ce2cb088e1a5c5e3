"""The value report on synthetic dumps; no tree is extracted."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "value_diff.py"


@pytest.fixture(scope="module")
def diff():
    spec = importlib.util.spec_from_file_location("value_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_identical_fields_and_the_largest_moves(diff):
    assert diff.compare("1.0,2.0", "1.0,2.0") == "identical"
    assert diff.compare("None", "None") == "identical"
    assert diff.compare("1.0,2.0,0.0", "1.0,2.5,0.0") == (
        "1 of 3 moved, max abs 0.5, max rel 0.25")
    assert diff.compare("0.0", "1e-17") == "1 of 1 moved, max abs 1e-17, max rel n/a (moved from 0)"
    assert diff.compare("1.0,2.0", "1.0") == "changed shape: 2 -> 1 values"


def test_report_covers_every_field_draws_and_laws_in_one_dump(diff):
    old = {"a": {"alpha": "1.0", "density": "0.5,0.25", "draws": "ab"},
           "gone": {"alpha": "2.0", "draws": "cd"}}
    new = {"a": {"alpha": "1.0", "density": "0.5,0.5", "draws": "ef"},
           "added": {"alpha": "3.0", "draws": "gh"}}
    assert diff.report(old, new) == [
        "a alpha: identical",
        "a density: 1 of 2 moved, max abs 0.25, max rel 1",
        "a draws: hashes differ",
        "added: only in the new dump",
        "gone: only in the old dump",
    ]
