import math
from pathlib import Path

import numpy as np
import pytest

import biasforge as bf
import biasforge.verify as verify
from biasforge import Polynomial


# ---------------------------------------------------------------------------
# the test-function bank
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
def test_bank_exact_derivative_contract(m):
    bank = bf.TestFunctionBank.build(m, d_max=4, n_kinked=2, n_smooth=3, seed=m)
    h = 1e-3
    for F in bank.members:
        if F.order is not None and F.order != m:
            continue
        probe = np.array([-0.73, 0.31, 1.17])
        vals = [np.asarray(F.value(probe + s * h), float) for s in range(-m, m + 1)]
        d = np.stack(vals)
        for _ in range(m):
            d = (d[2:] - d[:-2]) / (2 * h)
        declared = np.asarray(F.derivative(m)(probe), float)
        assert np.max(np.abs(d[0] - declared)) <= 1e-4, F.name


def test_bank_membership_filtering():
    bank = bf.TestFunctionBank.build(2, d_max=3, n_kinked=0, n_smooth=2, seed=0)
    for F in bank.for_order(2):
        assert F.supports(2)
    kinked = bf.TestFunctionBank.build(1, d_max=0, n_kinked=1, n_smooth=0, seed=0)
    assert all(not F.supports(2) for F in kinked.members if F.order == 1)


def test_bank_smooth_members_have_compact_mass():
    bank = bf.TestFunctionBank.build(2, d_max=0, n_kinked=0, n_smooth=1, seed=4)
    F = bank.members[0]
    # second derivative is the bump itself: zero outside the knots
    lo, hi = F.fn.breaks[0], F.fn.breaks[-1]
    assert F.derivative(2)(lo - 1.0) == 0.0
    assert F.derivative(2)(hi + 1.0) == 0.0


# ---------------------------------------------------------------------------
# exact reports
# ---------------------------------------------------------------------------

def test_check_identity_exact_worked_example():
    d = bf.from_atoms([(-1, 1 / 3), (0, 1 / 3), (2, 1 / 3)])
    rep = bf.check_identity_exact(d, bf.zero_bias_spec(), 1, Polynomial.monomial(3),
                                  tol=1e-10)
    assert rep.passed and rep.method == "exact-atoms"
    assert rep.lhs == pytest.approx(17 / 3, rel=1e-12)  # E[X * X^3]
    assert rep.rhs == pytest.approx(17 / 3, rel=1e-12)


def test_check_identity_exact_symmetric_coin():
    coin = bf.from_atoms([(-1, 0.5), (1, 0.5)])
    rep = bf.check_identity_exact(coin, bf.zero_bias_spec(), 1, Polynomial.monomial(2),
                                  tol=1e-12)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-15)  # odd moment of a symmetric law
    assert rep.rhs == pytest.approx(0.0, abs=1e-15)


def test_check_identity_exact_requires_atoms(uniform_sym):
    with pytest.raises(bf.InputError):
        bf.check_identity_exact(uniform_sym, bf.zero_bias_spec(), 1, Polynomial.monomial(2))


# ---------------------------------------------------------------------------
# Monte Carlo reports
# ---------------------------------------------------------------------------

def test_check_identity_mc_passes_and_documents_seeds(uniform_sym):
    spec = bf.SignChangeSpec(bf.plus_part, bf.NodeSet((0.0,)), kinks=(0.0,))
    bank = bf.TestFunctionBank.build(1, d_max=3, n_kinked=2, n_smooth=1, seed=2)
    for F in bank.for_order(1)[:4]:
        rep = bf.check_identity_mc(uniform_sym, spec, 1, F, 20_000, seed=77)
        assert rep.passed, (F.name, rep.z)
        assert rep.seeds == {"seed": 77, "lhs_seed": 77 + 1_000_003,
                             "rhs_seed": 77 + 2_000_003}


def test_check_identity_mc_zero_bias_fixed_point():
    bank = bf.TestFunctionBank.build(1, d_max=0, n_kinked=0, n_smooth=3, seed=5)
    t = bf.bias(bf.normal(), bf.zero_bias_spec())
    for F in bank.for_order(1):
        rep = bf.check_identity_mc(bf.normal(), bf.zero_bias_spec(), 1, F, 20_000,
                                   seed=13, transform=t)
        assert rep.passed


def test_check_identity_mc_bit_reproducible(uniform_sym):
    bank = bf.TestFunctionBank.build(2, d_max=4, n_kinked=0, n_smooth=1, seed=6)
    F = bank.for_order(2)[-1]
    t = bf.bias_to_order(uniform_sym, bf.unit_bias_spec(), 2)
    a = bf.check_identity_mc(uniform_sym, bf.unit_bias_spec(), 2, F, 10_000, seed=99,
                             transform=t)
    b = bf.check_identity_mc(uniform_sym, bf.unit_bias_spec(), 2, F, 10_000, seed=99,
                             transform=t)
    assert (a.lhs, a.rhs, a.z) == (b.lhs, b.rhs, b.z)


def test_check_identity_mc_needs_two_draws_for_its_standard_errors(uniform_sym):
    F = bf.TestFunctionBank.build(1, d_max=2, n_kinked=0, n_smooth=0, seed=1).members[1]
    with pytest.raises(bf.InputError, match="n >= 2"):
        bf.check_identity_mc(uniform_sym, bf.zero_bias_spec(), 1, F, 1, seed=3)


def test_check_identity_mc_rejects_unsupported_order(uniform_sym):
    kinked = bf.TestFunctionBank.build(1, d_max=0, n_kinked=1, n_smooth=0, seed=1).members[0]
    with pytest.raises(bf.InputError):
        bf.check_identity_mc(uniform_sym, bf.unit_bias_spec(), 2, kinked, 100, seed=0)


def _node_product(x):
    x = np.asarray(x, dtype=float)
    return (x + 0.5) * (x - 0.5)


# float.hex of (lhs, rhs, se_lhs, se_rhs) of the kinked and spline members,
# 2e4 draws at seed 31, as the per-piece evaluation of PiecewisePoly gave them
_PINNED_MC = {
    ("x-plus@0", "kinked-0"): ("-0x1.18bc14b854945p-8", "-0x1.15773413eba0ap-8",
                               "0x1.96b96d2cd1a26p-15", "0x1.cf6bcc474281ap-68"),
    ("x-plus@0", "kinked-1"): ("-0x1.af773de092dafp-8", "-0x1.d4e1cd73da127p-8",
                               "0x1.f4f0917a92708p-15", "0x1.2de910a32f24ap-12"),
    ("x-plus@0", "spline-0"): ("-0x1.13dcb8fce8c18p-10", "-0x1.121eabcf9bb82p-10",
                               "0x1.4d8ce2210ddd7p-17", "0x1.000db28d5c441p-17"),
    ("x-plus@0", "spline-1"): ("-0x1.480ac6b7b9691p-6", "-0x1.46baf61ac170ep-6",
                               "0x1.8f3a550a2c9b2p-13", "0x1.316d43b9cd1bbp-13"),
    ("order-2-lift", "spline-0"): ("0x1.a8763f3d1460cp-4", "0x1.a86a618b49c31p-4",
                                   "0x1.56f961726b729p-11", "0x1.b8ffdb15ca17dp-17"),
    ("order-2-lift", "spline-1"): ("0x1.498eeb69528c0p-5", "0x1.4e98e7400e4d8p-5",
                                   "0x1.083f188ca0a09p-11", "0x1.6ff26e42f1866p-12"),
    ("seed-and-shrink", "spline-0"): ("0x1.e6ce9266b3e81p-6", "0x1.e7b5c52bc8320p-6",
                                      "0x1.2cb13e8dcb805p-12", "0x1.56a566c0db8e8p-18"),
    ("seed-and-shrink", "spline-1"): ("0x1.bd77a285a8625p-7", "0x1.c6dc27f4130ecp-7",
                                      "0x1.9a0e9c417b4eap-13", "0x1.d71c46c1d7689p-14"),
}


@pytest.mark.parametrize("label, m", [("x-plus@0", 1), ("order-2-lift", 2),
                                      ("seed-and-shrink", 2)])
def test_check_identity_mc_piecewise_members_pinned(uniform_sym, label, m):
    spec = {"x-plus@0": bf.SignChangeSpec(bf.plus_part, bf.NodeSet((0.0,)), kinks=(0.0,)),
            "order-2-lift": bf.unit_bias_spec(),
            "seed-and-shrink": bf.SignChangeSpec(_node_product, bf.NodeSet((-0.5, 0.5)))}[label]
    t = bf.bias_to_order(uniform_sym, spec, m)
    bank = bf.TestFunctionBank.build(m, d_max=0, n_kinked=2, n_smooth=2, seed=7)
    names = []
    for F in bank.for_order(m):
        rep = bf.check_identity_mc(uniform_sym, spec, m, F, 20_000, seed=31, transform=t)
        got = tuple(float.hex(v) for v in (rep.lhs, rep.rhs, rep.se_lhs, rep.se_rhs))
        assert got == _PINNED_MC[label, F.name], F.name
        names.append(F.name)
    assert len(names) == (4 if m == 1 else 2)


def test_masqueraded_fixed_point_is_detected():
    # claim: the uniform on [0,1] is its own zero-bias transform.  Checking
    # alpha E[F'(X)] against E[B(X)(F(X) - L_F(X))] with X in both roles must
    # blow up for some bank member.
    X = bf.uniform(0, 1)
    spec = bf.zero_bias_spec()
    alpha = bf.alpha_of(X, spec)
    bank = bf.TestFunctionBank.build(1, d_max=4, n_kinked=3, n_smooth=3, seed=8)
    n = 100_000
    worst = 0.0
    for i, F in enumerate(bank.for_order(1)):
        xs = bf.sample(X, bf.RandomSource(1_000 + i), n)
        ys = bf.sample(X, bf.RandomSource(2_000 + i), n)
        lhs = np.asarray(xs, float) * (np.asarray(F.value(xs), float) - float(F.value(0.0)))
        rhs = alpha * np.asarray(F.derivative(1)(ys), float)
        se = math.hypot(lhs.std(ddof=1) / math.sqrt(n), rhs.std(ddof=1) / math.sqrt(n))
        if se > 0:
            worst = max(worst, abs(lhs.mean() - rhs.mean()) / se)
    assert worst > 10


# ---------------------------------------------------------------------------
# the worked ambiguity example
# ---------------------------------------------------------------------------

def test_ambiguity_demo_values():
    rep = bf.ambiguity_demo()
    assert rep["passed"]
    assert rep["alpha"] == pytest.approx(5 / 12, abs=1e-10)
    assert rep["beta"] == pytest.approx(1 / 6, abs=1e-10)
    assert rep["b_mean"] == pytest.approx(0.25, abs=1e-10)
    ts = np.asarray(rep["grid"])
    q = np.asarray(rep["q"])
    p = np.asarray(rep["p"])
    i_half = np.argmin(np.abs(ts - 0.5))
    assert q[i_half] == pytest.approx(1.5 * 0.75, abs=1e-8)
    i_neg = np.argmin(np.abs(ts + 0.5))
    assert p[i_neg] == pytest.approx(0.6, abs=1e-8)


# ---------------------------------------------------------------------------
# goodness-of-fit machinery
# ---------------------------------------------------------------------------

def test_ks_statistic_behaviour():
    rs = bf.RandomSource(4)
    u = rs.uniform(50_000)
    ident = lambda t: np.clip(np.asarray(t, float), 0, 1)
    assert bf.ks_statistic(u, ident) < bf.ks_critical(50_000, 0.01)
    assert bf.ks_statistic(u * 0.8, ident) > 10 * bf.ks_critical(50_000, 0.01)
    with pytest.raises(bf.InputError):
        bf.ks_critical(100, 0.2)


def _ks_in_one_pass(samples, cdf):
    """The statistic with the CDF and the steps k / n formed on all points at once."""
    xs = np.sort(np.asarray(samples, dtype=float))
    F = np.asarray(cdf(xs), dtype=float)
    steps = np.arange(xs.size + 1, dtype=float) / xs.size
    return float(max((steps[1:] - F).max(), (F - steps[:-1]).max()))


@pytest.mark.parametrize("n", [1, 2, 16_383, 16_384, 16_385, 100_000, 123_457])
def test_ks_statistic_in_blocks_equals_one_pass(n):
    draws = np.random.default_rng(n).normal(size=n)
    cdf = bf.numeric_cdf(bf.normal(), n=513)
    assert bf.ks_statistic(draws, cdf) == _ks_in_one_pass(draws, cdf)
    assert bf.ks_statistic(draws, bf.normal().cdf) == _ks_in_one_pass(draws, bf.normal().cdf)


def test_ks_statistic_is_nan_when_the_cdf_is():
    draws = np.linspace(0.0, 1.0, 40_000)
    cdf = lambda t: np.where(np.asarray(t) > 0.9, np.nan, np.asarray(t))  # NaN in the last block
    assert math.isnan(bf.ks_statistic(draws, cdf))
    assert math.isnan(_ks_in_one_pass(draws, cdf))


def test_ks_statistic_rejects_a_cdf_that_is_not_elementwise():
    draws = np.linspace(0.0, 1.0, 40_000)
    for cdf in (lambda t: 0.5, lambda t: np.full(3, 0.5), lambda t: np.asarray(t)[:-1]):
        with pytest.raises(bf.InputError, match="elementwise"):
            bf.ks_statistic(draws, cdf)


def test_ks_critical_values():
    assert bf.ks_critical(10_000, 0.01) == pytest.approx(1.6276 / 100)
    assert bf.ks_critical(10_000, 0.05) == pytest.approx(1.3581 / 100)


@pytest.mark.parametrize("n", [0, -4])
def test_ks_critical_needs_a_positive_sample_size(n):
    with pytest.raises(bf.InputError, match="n >= 1"):
        bf.ks_critical(n)


# ---------------------------------------------------------------------------
# randomized configuration generators
# ---------------------------------------------------------------------------

def test_random_valid_specs_validate():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(0, 4))
        X = bf.random_discrete(rng)
        spec = bf.random_valid_spec(rng, k)
        assert bf.validate_spec(spec, X).passed


def test_suite_runner_names():
    with pytest.raises(bf.InputError):
        bf.run_suite("nope")
    rep = bf.run_suite("ambi")
    assert rep["passed"] and rep["suite"] == "ambi"
    assert "grid" not in rep  # the CLI report carries numbers, not tables


def test_mc_suite_smoke():
    rep = bf.run_suite("mc", seed=12, n=10_000)
    assert rep["passed"], rep["max_abs_z"]
    assert rep["lifted_beta"] == pytest.approx(1 / 6, abs=1e-12)
    assert all(r["seeds"] is not None for r in rep["reports"])


def test_cli_exact_suite_reports_pinned(monkeypatch):
    # float.hex of lhs and rhs of every report of ``verify --suite exact
    # --seed 7`` (matched order, then the chain), as the numpy.polynomial
    # algebra and a bias that evaluated the weight three times gave them
    pinned = [line.split() for line in
              (Path(__file__).parent / "data" / "exact_suite_seed7.txt").read_text().splitlines()
              if not line.startswith("#")]
    got = []
    check = verify.check_identity_exact

    def recorded(*args, **kwargs):
        rep = check(*args, **kwargs)
        got.append([rep.label.replace(" ", ""), rep.lhs.hex(), rep.rhs.hex()])
        return rep

    monkeypatch.setattr(verify, "check_identity_exact", recorded)
    assert bf.run_suite("exact", seed=7)["passed"]
    assert len(got) == len(pinned) == 300
    for i, (g, want) in enumerate(zip(got, pinned)):
        assert g == want, i
