import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biasforge as bf
from biasforge.cli import run

UNIFORM = '{"family":"uniform","params":{"lo":-1,"hi":1}}'


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_catalog_lists_builtins(capsys):
    assert run(["catalog"]) == 0
    report = read_json(capsys)
    assert "uniform" in report["families"]
    assert "x-plus" in report["bias_functions"]
    assert report["suites"] == ["exact", "mc", "ambi", "fixed-point"]


def test_density_matches_closed_form(tmp_path):
    out = tmp_path / "density.csv"
    code = run(["density", "--dist", UNIFORM, "--bias", "x-plus", "--nodes", "[0]",
                "--m", "1", "--grid", "-1", "1", "201", "--out", str(out)])
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    ts, p = rows[:, 0], rows[:, 1]
    closed = np.where((ts >= 0) & (ts <= 1), 1.5 * (1 - ts**2), 0.0)
    assert np.max(np.abs(p - closed)) <= 1e-8


def test_density_of_raw_distribution(tmp_path):
    out = tmp_path / "raw.csv"
    assert run(["density", "--dist", UNIFORM, "--grid", "-2", "2", "5",
                "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[2, 1] == pytest.approx(0.5)


def test_verify_ambi_report(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "ambi", "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert report["alpha"] == pytest.approx(5 / 12, abs=1e-10)


def test_transform_report_with_chain(tmp_path, capsys):
    code = run(["bias-km", "--dist", UNIFORM, "--bias", "identity", "--nodes", "[]",
                "--k", "0", "--m", "2", "--seed", "5"])
    assert code == 0
    report = read_json(capsys)
    assert report["beta"] == pytest.approx(1 / 6, abs=1e-12)
    assert report["chain_normalizers"] == [pytest.approx(1 / 6, abs=1e-12)]
    assert report["k"] == 0 and report["m"] == 2


def test_transform_k_mismatch_is_validation_error(capsys):
    code = run(["bias-km", "--dist", UNIFORM, "--bias", "x", "--nodes", "[0]",
                "--k", "2", "--m", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InputError"


def test_sample_seed_determinism(tmp_path, monkeypatch):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["sample", "--dist", UNIFORM, "--bias", "x", "--nodes", "[0]",
            "--n", "200"]
    monkeypatch.setenv("BIASFORGE_SEED", "777")
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert run(args + ["--seed", "778", "--out", str(c)]) == 0
    assert a.read_text() != c.read_text()


def test_sample_density_round_trip(tmp_path):
    n = 30_000
    samples = tmp_path / "draws.csv"
    dens = tmp_path / "dens.csv"
    args = ["--dist", UNIFORM, "--bias", "x-plus", "--nodes", "[0]", "--m", "1"]
    assert run(["sample", *args, "--n", str(n), "--seed", "4", "--out", str(samples)]) == 0
    assert run(["density", *args, "--grid", "-1", "1", "2049", "--out", str(dens)]) == 0
    draws = np.loadtxt(samples, skiprows=1)
    rows = np.loadtxt(dens, delimiter=",", skiprows=1)
    ts, p = rows[:, 0], rows[:, 1]
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(ts))))
    cum /= cum[-1]
    cdf = lambda x: np.interp(x, ts, cum)
    assert bf.ks_statistic(draws, cdf) < bf.ks_critical(n, 0.01)


def test_csv_text_matches_a_per_row_format(capsys):
    from biasforge.cli import build_spec, parse_distribution
    dist = parse_distribution(UNIFORM)
    law = bf.bias_to_order(dist, build_spec("x-plus", "[0]", dist), 1)
    args = ["--dist", UNIFORM, "--bias", "x-plus", "--nodes", "[0]"]

    assert run(["sample", *args, "--n", "3000", "--seed", "8"]) == 0
    draws = law.sample(3000, bf.RandomSource(8))
    assert capsys.readouterr().out == "x\n" + "".join(f"{float(v):.17g}\n" for v in draws)

    assert run(["density", *args, "--grid", "-1.5", "1.5", "301"]) == 0
    ts = np.linspace(-1.5, 1.5, 301)
    rows = zip(ts.tolist(), np.asarray(law.density(ts), dtype=float).tolist())
    assert capsys.readouterr().out == "t,p\n" + "".join(f"{t:.17g},{p:.17g}\n" for t, p in rows)


def test_distance_csv_text_matches_the_report(tmp_path):
    out, csv_out = tmp_path / "bound.json", tmp_path / "bound.csv"
    exp = {"target": {"family": "normal", "params": {}},
           "test_distribution": {"family": "uniform", "params": {"lo": -1, "hi": 1}},
           "operator": {"order": 1, "bias": "x", "nodes": [0]},
           "constants": {"c0": 1, "c1": 1, "c2": 1}, "n_samples": 5_000, "seed": 3}
    assert run(["distance", "--experiment", json.dumps(exp),
                "--out", str(out), "--out-csv", str(csv_out)]) == 0
    r = json.loads(out.read_text())
    se = r["ingredient_se"]
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "ingredient,estimate,se"
    assert lines[1] == f"coupling_gap,{r['coupling_gap']:.17g},{se['coupling_gap']:.17g}"
    assert lines[2].startswith("alpha,") and lines[2].endswith(f",{se['alpha']:.17g}")
    assert lines[3] == f"b_mean,{r['b_mean']:.17g},{se['b_mean']:.17g}"
    assert lines[4:] == [f"bound,{r['bound']:.17g},nan"]


def test_invalid_family_is_validation_error(capsys):
    code = run(["density", "--dist", '{"family":"cauchy"}', "--bias", "x",
                "--grid", "0", "1", "10"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InputError"
    assert "cauchy" in err["error"]["message"]


def test_sign_violation_is_validation_error(capsys):
    code = run(["transform", "--dist", UNIFORM, "--bias", "x", "--nodes", "[1]"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "SignViolation"


def test_bad_grid_is_validation_error(capsys):
    code = run(["density", "--dist", UNIFORM, "--bias", "x", "--nodes", "[0]",
                "--grid", "0", "1", "1"])
    assert code == 2
    capsys.readouterr()


def test_piecewise_bias_json(capsys):
    # B(x) = x on [0, 1], zero elsewhere: one sign change at 0 over U[-1,1]
    bias_json = '{"pieces": [{"interval": [0, 1], "coeffs": [0, 1]}]}'
    code = run(["transform", "--dist", UNIFORM, "--bias", bias_json,
                "--nodes", "[0]"])
    assert code == 0
    report = read_json(capsys)
    assert report["alpha"] == pytest.approx(1 / 6, abs=1e-10)


def test_sign_bias_parsing(capsys):
    code = run(["transform", "--dist", '{"family":"exponential","params":{"rate":1}}',
                "--bias", "sign(x-0)"])
    assert code == 0
    assert read_json(capsys)["alpha"] == pytest.approx(1.0, rel=1e-9)


def test_x_mean_bias_centers_on_the_distribution(capsys):
    code = run(["transform", "--dist", '{"family":"normal","params":{"mean":0.7,"std":1}}',
                "--bias", "x-mean"])
    assert code == 0
    report = read_json(capsys)
    assert report["nodes"] == [pytest.approx(0.7, abs=1e-9)]
    assert report["alpha"] == pytest.approx(1.0, rel=1e-9)  # the variance


def test_verify_fixed_point_suite_cli(tmp_path):
    out = tmp_path / "fp.json"
    assert run(["verify", "--suite", "fixed-point", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert set(report["sup_gaps"]) == {"normal-zero-bias", "half-normal-mixture",
                                       "shifted-normal-centered-bias",
                                       "exponential-equilibrium"}


def test_verify_exact_suite_cli(capsys):
    assert run(["verify", "--suite", "exact", "--seed", "3"]) == 0
    report = read_json(capsys)
    assert report["matched_order"]["passed"] and report["chain"]["passed"]


def test_verify_mc_suite_cli(tmp_path):
    out = tmp_path / "mc.json"
    assert run(["verify", "--suite", "mc", "--seed", "12", "--n", "4000",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and report["count"] == 33


def test_distance_experiment(tmp_path):
    out = tmp_path / "bound.json"
    csv_out = tmp_path / "bound.csv"
    exp = {
        "target": {"family": "normal", "params": {}},
        "test_distribution": {"family": "normal", "params": {}},
        "operator": {"order": 1, "bias": "x", "nodes": [0]},
        "constants": {"c0": 1, "c1": 1, "c2": 1},
        "n_samples": 20_000,
        "seed": 9,
        "coupling": "self",
    }
    code = run(["distance", "--experiment", json.dumps(exp),
                "--out", str(out), "--out-csv", str(csv_out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["coupling_gap"] == 0.0
    assert report["bound"] == pytest.approx(report["alpha_dev"] + abs(report["b_mean"]))
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "ingredient,estimate,se"
    assert len(lines) == 5


def test_distance_malformed_target_is_validation_error(capsys):
    exp = {
        "target": {"family": "nope"},
        "test_distribution": {"family": "normal", "params": {}},
        "operator": {"order": 1, "bias": "x", "nodes": [0]},
        "constants": {"c0": 1, "c1": 1, "c2": 1},
        "n_samples": 1_000,
    }
    assert run(["distance", "--experiment", json.dumps(exp)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InputError"
    assert "nope" in err["error"]["message"]


@pytest.mark.parametrize("spec", [
    '{"atoms": [[0, 1.0], [1, NaN]]}',
    '{"atoms": [[Infinity, 0.5], [0, 0.5]]}',
    '{"empirical": [0, Infinity]}',
    '{"family": "normal", "params": {"std": NaN}}',
    '{"mixture": {"weights": [1.0]}}',
    '{"atoms": [[0, 0.5], [1]]}',
    '{"atoms": 5}',
    '{"family": "normal", "params": {"std": "a"}}',
    '{"family": "uniform"}',
    '{"empirical": "abc"}',
    '{"empirical_csv": "MISSING"}',
])
def test_malformed_distribution_is_validation_error(spec, tmp_path, capsys):
    spec = spec.replace("MISSING", str(tmp_path / "missing.csv"))
    assert run(["sample", "--dist", spec, "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "InputError"


def test_distance_experiment_from_file(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "test_distribution": {"atoms": [[0, 0.5], [1, 0.5]]},
        "operator": {"order": 1, "bias": "sign(x-0)"},
        "constants": {"c0": 1, "c1": 1, "c2": 1},
        "n_samples": 5_000,
        "coupling": "independent",
    }))
    assert run(["distance", "--experiment", f"@{path}"]) == 0
    report = read_json(capsys)
    assert report["coupling_gap"] > 0.0


def test_transform_command_runs_without_scipy():
    # scipy is loaded on first use only: a one-node transform of a uniform
    # law reads its expectations from the panel integral, and normal draws
    # come from the numpy quantile.  numpy.ma is not loaded either (plain
    # np.unique imports it on its first call in numpy 2.4).
    code = ("import sys; from biasforge.cli import run; "
            "code = run(sys.argv[1:]); "
            "sys.exit(code or 3 * any(m.split('.')[0] == 'scipy' or m == 'numpy.ma' "
            "for m in sys.modules))")
    normal = '{"family":"normal","params":{"mean":0,"std":1}}'
    experiment = json.dumps({"test_distribution": json.loads(normal),
                             "operator": {"order": 1, "bias": "x", "nodes": [0]},
                             "constants": {"c0": 1, "c1": 1, "c2": 1},
                             "coupling": "self", "n_samples": 1000, "seed": 4})
    env = dict(os.environ, PYTHONPATH=str(Path(bf.__file__).resolve().parents[1]))

    def child(*argv):
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv[0], proc.returncode, proc.stderr)
        return proc.stdout

    out = child("transform", "--dist", UNIFORM, "--bias", "x-plus", "--nodes", "[0]")
    assert json.loads(out)["alpha"] == pytest.approx(1 / 6, abs=1e-12)
    out = child("sample", "--dist", normal, "--n", "500", "--seed", "3")
    assert len(out.splitlines()) == 501
    out = child("distance", "--experiment", experiment)
    assert json.loads(out)["coupling_gap"] == 0.0
    out = child("density", "--dist", normal, "--bias", "x", "--grid", "-4", "4", "9")
    assert len(out.splitlines()) == 10


def test_import_leaves_numpy_polynomial_out():
    # the Gauss-Legendre rule's nodes and weights are literals: a fresh
    # interpreter that imports the package does not load numpy.polynomial
    code = "import sys, biasforge; sys.exit(3 * ('numpy.polynomial' in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(bf.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _experiment(**fields):
    exp = {"test_distribution": {"family": "normal", "params": {}},
           "operator": {"order": 1, "bias": "x", "nodes": [0]},
           "constants": {"c0": 1, "c1": 1, "c2": 1}, "n_samples": 1_000}
    exp.update(fields)
    return ["distance", "--experiment", json.dumps(exp)]


def _transform(bias, nodes="[0]"):
    return ["transform", "--dist", UNIFORM, "--bias", bias, "--nodes", nodes]


@pytest.mark.parametrize("argv", [
    _transform("x", '["a"]'),
    _experiment(operator={"order": 1, "nodes": [0]}),
    _experiment(operator={"order": 1, "bias": "x", "nodes": ["z"]}),
    _experiment(operator={"order": "one", "bias": "x"}),
    _experiment(operator="x"),
    _experiment(operator={"bias": 5}),
    _experiment(n_samples="abc"),
    _experiment(seed=[1]),
    _experiment(constants={"c0": 1, "c1": "a", "c2": 1}),
    _experiment(constants={"c0": 1}),
    _experiment(f_at_node="abc"),
    ["distance", "--experiment", "@MISSING"],
    ["distance", "--experiment", "[1, 2]"],
    _transform('{"pieces": [{"coeffs": [0, 1]}]}'),
    _transform('{"pieces": [{"interval": [0, 1], "coeffs": ["a"]}]}'),
    _transform('{"pieces": [{"interval": [0], "coeffs": [0, 1]}]}'),
    _transform('{"pieces": 5}'),
    _transform("sign(x-.)"),
    _transform("sign(x+-1)"),
    _transform("sign(x-1e)"),
    ["density", "--dist", UNIFORM, "--grid", "a", "1", "201"],
    ["density", "--dist", UNIFORM, "--grid", "0", "1", "2.5"],
    ["density", "--dist", UNIFORM, "--grid", "0", "inf", "3"],
    ["verify", "--suite", "mc", "--n", "1"],
    _experiment(n_samples=1),
], ids=["nodes-not-numbers", "operator-without-bias", "operator-nodes-not-numbers",
        "operator-order-not-a-number", "operator-not-an-object", "bias-not-a-string",
        "n-samples-not-a-number", "seed-not-a-number", "constant-not-a-number",
        "constants-missing", "f-at-node-not-a-number", "experiment-file-missing", "experiment-not-an-object",
        "piece-without-interval", "piece-coeffs-not-numbers", "piece-interval-one-end",
        "pieces-not-a-list", "sign-shift-a-dot", "sign-shift-two-signs",
        "sign-shift-bare-exponent", "grid-bound-not-a-number", "grid-points-not-an-integer",
        "grid-bound-not-finite", "mc-suite-one-draw", "distance-one-sample"])
def test_malformed_command_input_is_validation_error(argv, tmp_path, capsys):
    argv = [a.replace("MISSING", str(tmp_path / "missing.json")) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "InputError"


def test_transform_k_is_checked_against_the_default_nodes(capsys):
    # the bias x brings its node 0: --k 1 without --nodes matches it
    assert run(["transform", "--dist", UNIFORM, "--bias", "x", "--k", "1"]) == 0
    assert read_json(capsys)["nodes"] == [0.0]
    assert run(["transform", "--dist", UNIFORM, "--bias", "x", "--k", "2"]) == 2
    assert "does not match 1 nodes" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_cli_module_runs_as_a_script():
    argv = ["transform", "--dist", UNIFORM, "--bias", "x-plus", "--nodes", "[0]"]
    env = dict(os.environ, PYTHONPATH=str(Path(bf.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "biasforge.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["alpha"] == pytest.approx(1 / 6, abs=1e-12)
