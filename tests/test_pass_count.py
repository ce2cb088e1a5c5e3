"""The pass report of scripts/pass_count.py: its counter, its output and the
counts of the transforms that no other pass-count test builds."""

import numpy as np
import pytest

import biasforge as bf
import biasforge.distributions as D
from primitives import pass_count

# construct, read, draws, moments: the order-6 lift reads its base beyond
# the recorded order 4 and the operator's second-difference part is a unit
# record with none, so each takes a moments pass; a step's seed tilt and a
# step's identity table take a pass each
COUNTS = {
    "normal-lift-order6": (2, 1, 2, 1),
    "normal-operator-order2": (2, 1, 1, 1),
}


@pytest.mark.parametrize("name", list(COUNTS))
def test_counts_per_step(name):
    counts = pass_count.count_passes(pass_count.transforms()[name])
    assert tuple(counts[s] for s in pass_count.STEPS) == COUNTS[name]


def test_the_count_is_restored_after_an_error():
    def fail():
        raise RuntimeError("build failed")

    original = D._panels
    with pytest.raises(RuntimeError):
        pass_count.count_passes(fail)
    assert D._panels is original
    calls = {"panels": 0}
    with pass_count.counted_panels(calls):
        bf.expectation(bf.normal(), lambda x: np.asarray(x, float) ** 2)
    assert calls == {"panels": 1} and D._panels is original


def test_main_prints_a_row_per_transform(capsys):
    pass_count.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["transform", *pass_count.STEPS, "total"]
    rows = {line.split()[0]: [int(v) for v in line.split()[1:]] for line in lines[1:]}
    assert list(rows) == list(pass_count.transforms())
    for name, (*steps, total) in rows.items():
        assert total == sum(steps) and min(steps) >= 0, name
