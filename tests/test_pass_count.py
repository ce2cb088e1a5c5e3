"""The pass report of scripts/pass_count.py: its counter, its output and the
counts of the transforms that no other pass-count test builds."""

import numpy as np
import pytest

import biasforge as bf
import biasforge.distributions as D
from primitives import pass_count

# construct, read, draws, moments: a chain's pass records its base's
# moments to order 4 + m - k, so the order-6 lift's normalizers and every
# chain's moments to order 4 read them; the operator's construction is its
# two parts' passes; a chain's one draw tilt takes a pass on first draw,
# and its identity table reads the chain's table, whose rows rode the
# construction
COUNTS = {
    "normal-lift-order6": (1, 0, 1, 0),
    "normal-operator-order2": (2, 0, 1, 0),
    "uniform-zero-bias-lift-order5": (1, 0, 1, 0),
}


@pytest.mark.parametrize("name", list(pass_count.transforms()))
def test_every_moment_read_takes_no_pass(name):
    # every transform's moments to order 4 read its construction's record
    assert pass_count.count_passes(pass_count.transforms()[name])["moments"] == 0


@pytest.mark.parametrize("name", list(COUNTS))
def test_counts_per_step(name):
    counts = pass_count.count_passes(pass_count.transforms()[name])
    assert tuple(counts[s] for s in pass_count.STEPS) == COUNTS[name]


@pytest.mark.parametrize("name", list(pass_count.transforms()))
def test_every_first_read_takes_no_pass(name):
    # every table a transform's density reads sums the final panels of its
    # construction's pass: bias laws, lifts, second-order laws and operators
    assert pass_count.count_passes(pass_count.transforms()[name])["read"] == 0


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
