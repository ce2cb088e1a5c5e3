"""Command-line front end: transform construction, sampling, density
tabulation, verification suites and distance-bound experiments.

Structured inputs are JSON, numeric tables are CSV.  Exit codes: 0 on
success, 2 on input validation failure (machine-readable error JSON on
stderr), 1 on internal error.  The environment variable BIASFORGE_SEED
supplies the default seed when --seed is omitted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from itertools import chain

import numpy as np

from .errors import BiasforgeError, InputError
from .distributions import (
    Distribution,
    RandomSource,
    _floats,
    catalog_families,
    dist_from_json,
    moment,
    sample,
)
from .polynomials import NodeSet, PiecewisePoly, Polynomial
from .transform import SignChangeSpec
from .higher import ChainRecipe, bias_to_order
from .stein import first_order_bound, first_order_coupling_stats
from .verify import _SUITES, run_suite

DEFAULT_SEED = 12345
_SIGN_RE = re.compile(r"^sign\(x([+-][0-9.eE+-]+)?\)$")

BUILTIN_BIAS = ("identity", "x", "x-plus", "sign(x-a)", "x-mean")


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON for {what}: {exc}") from exc


def parse_distribution(text: str) -> Distribution:
    return dist_from_json(_parse_json(text, "distribution"))


def _int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be an integer: {exc}") from exc


def _piece(piece) -> tuple:
    """(l, r, coefficients) of one piece of a piecewise bias."""
    if not (isinstance(piece, dict) and isinstance(piece.get("interval"), list)
            and len(piece["interval"]) == 2 and isinstance(piece.get("coeffs"), list)):
        raise InputError("each piece needs an 'interval' [l, r] and a 'coeffs' list")
    lo, hi = _floats(piece["interval"], "piece interval")
    return lo, hi, tuple(_floats(piece["coeffs"], "piece coefficients"))


def parse_bias(text: str, dist: Distribution | None = None):
    """Named built-in biasing functions, or a piecewise-polynomial JSON
    object {"pieces": [{"interval": [l, r], "coeffs": [...]}]}.

    Returns (callable, default_nodes or None, kink locations).
    """
    text = text.strip()
    if text == "identity":
        return (lambda x: np.ones_like(np.asarray(x, dtype=float)), (), ())
    if text == "x":
        return (lambda x: np.asarray(x, dtype=float), (0.0,), ())
    if text == "x-plus":
        return (lambda x: np.maximum(np.asarray(x, dtype=float), 0.0), None, (0.0,))
    m = _SIGN_RE.match(text)
    if m:
        shift = m.group(1)
        a = -float(shift) if shift else 0.0  # "sign(x-1.5)" carries "-1.5"
        return (lambda x: np.sign(np.asarray(x, dtype=float) - a), (a,), (a,))
    if text == "x-mean":
        if dist is None:
            raise InputError("x-mean needs a distribution to center on")
        mu = moment(dist, 1)
        return (lambda x: np.asarray(x, dtype=float) - mu, (mu,), ())
    if text.startswith("{"):
        obj = _parse_json(text, "bias")
        pieces = obj.get("pieces")
        if not pieces or not isinstance(pieces, list):
            raise InputError("piecewise bias needs a nonempty 'pieces' list")
        breaks = []
        polys = [Polynomial(())]
        last = None
        for lo, hi, coeffs in sorted(map(_piece, pieces), key=lambda p: p[0]):
            if not lo < hi:
                raise InputError("piece interval must satisfy l < r")
            if last is not None and lo < last:
                raise InputError("piece intervals must not overlap")
            if last is None or lo > last:
                breaks.append(lo)
                if last is not None:
                    polys.append(Polynomial(()))
            polys.append(Polynomial(coeffs))
            breaks.append(hi)
            last = hi
        polys.append(Polynomial(()))
        return (PiecewisePoly(tuple(breaks), tuple(polys)), None, tuple(breaks))
    raise InputError(f"unknown bias {text!r}; built-ins: {', '.join(BUILTIN_BIAS)}")


def build_spec(bias_text: str, nodes_text: str | None, dist: Distribution) -> SignChangeSpec:
    return _spec(bias_text, None if nodes_text is None else _parse_json(nodes_text, "nodes"), dist)


def _spec(bias_text, nodes, dist: Distribution) -> SignChangeSpec:
    """The spec of a bias and its nodes as parsed JSON (None: the bias's
    default nodes)."""
    if not isinstance(bias_text, str):
        raise InputError("bias must be a name or a piecewise JSON string")
    fn, default_nodes, kinks = parse_bias(bias_text, dist)
    if nodes is None:
        if default_nodes is None:
            raise InputError(f"bias {bias_text!r} needs explicit --nodes")
        nodes = list(default_nodes)
    if not isinstance(nodes, list):
        raise InputError("nodes must be a JSON array")
    return SignChangeSpec(fn, NodeSet(_floats(nodes, "nodes")), kinks=kinks, label=bias_text)


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return _int(os.environ.get("BIASFORGE_SEED", DEFAULT_SEED), "BIASFORGE_SEED")


def _write(path: str | None, text: str):
    """``text`` to the file at ``path``, or to standard output."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)


def _emit(payload: dict, out: str | None):
    _write(out, json.dumps(payload, indent=2, default=float) + "\n")


def _write_csv(path: str | None, header: str, *columns):
    """CSV text of equal-length columns: a column of strings as it is, any
    other column as floats in ``.17g`` form, in one ``%`` format of the
    whole table."""
    cols = [c if isinstance(c[0], str) else np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join("%s" if isinstance(c[0], str) else "%.17g" for c in cols) + "\n"
    _write(path, header + "\n" + (row * len(cols[0])) % tuple(chain.from_iterable(zip(*cols))))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_catalog(args) -> int:
    _emit({
        "families": catalog_families(),
        "bias_functions": list(BUILTIN_BIAS),
        "bias_piecewise_format": {"pieces": [{"interval": ["l", "r"], "coeffs": ["c0", "c1"]}]},
        "distribution_formats": ["{'family': name, 'params': {...}}",
                                 "{'atoms': [[x, p], ...]}",
                                 "{'empirical': [x, ...]}",
                                 "{'empirical_csv': 'samples.csv'}",
                                 "{'mixture': {'components': [...], 'weights': [...]}}"],
        "suites": list(_SUITES),
    }, getattr(args, "out", None))
    return 0


def _transform_of(dist: Distribution, args, k=None):
    """The spec, the order m (default: the node count) and the transform
    that ``--bias``, ``--nodes``, ``--m`` and (if given) ``--k`` ask for."""
    spec = build_spec(args.bias, args.nodes, dist)
    if k is not None and k != spec.k:
        raise InputError(f"--k {k} does not match {spec.k} nodes")
    m = int(args.m if args.m is not None else spec.k)
    return spec, m, bias_to_order(dist, spec, m)


def _cmd_transform(args) -> int:
    spec, m, transform = _transform_of(parse_distribution(args.dist), args, k=args.k)
    report = {
        "k": spec.k,
        "m": m,
        "nodes": list(spec.nodes),
        "alpha": transform.alpha,
        "beta": transform.beta,
        "support": [transform.law.lo, transform.law.hi],
        "seed": _seed(args),
    }
    if isinstance(transform.recipe, ChainRecipe):
        report["chain_normalizers"] = list(transform.recipe.step_normalizers)
    _emit(report, args.out)
    return 0


def _cmd_sample(args) -> int:
    dist = parse_distribution(args.dist)
    rng = RandomSource(_seed(args))
    if args.bias is None:
        draws = sample(dist, rng, args.n)
    else:
        draws = _transform_of(dist, args)[2].sample(args.n, rng)
    _write_csv(args.out, "x", draws)
    return 0


def _cmd_density(args) -> int:
    dist = parse_distribution(args.dist)
    lo, hi = _floats(args.grid[:2], "grid bounds")
    pts = _int(args.grid[2], "grid points")
    if pts < 2:
        raise InputError("grid needs at least 2 points")
    if not lo < hi:
        raise InputError("grid needs lo < hi")
    ts = np.linspace(lo, hi, pts)
    if args.bias is None:
        if dist.density is None:
            raise InputError("this distribution has no density; supply --bias")
        vals = np.asarray(dist.density(ts), dtype=float)
    else:
        vals = np.asarray(_transform_of(dist, args)[2].density(ts), dtype=float)
    _write_csv(args.out, "t,p", ts, vals)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=_seed(args), n=args.n)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_distance(args) -> int:
    text = args.experiment
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read the experiment file: {exc}") from exc
    exp = _parse_json(text, "experiment")
    if not isinstance(exp, dict):
        raise InputError("experiment spec must be a JSON object")
    for key in ("test_distribution", "operator", "constants"):
        if key not in exp:
            raise InputError(f"experiment spec needs {key!r}")
    X = dist_from_json(exp["test_distribution"])
    if "target" in exp:
        dist_from_json(exp["target"])  # validated only: the report echoes it as given
    op = exp["operator"]
    if not isinstance(op, dict) or "bias" not in op:
        raise InputError("operator must be a JSON object with a 'bias'")
    if _int(op.get("order", 1), "operator order") != 1:
        raise InputError("distance experiments support first-order operators")
    spec = _spec(op["bias"], op.get("nodes"), X)
    n = _int(exp.get("n_samples", 100_000), "n_samples")
    seed = _int(exp.get("seed", _seed(args)), "seed")
    coupling = exp.get("coupling", "independent")
    f_node = exp.get("f_at_node")
    f_node = None if f_node is None else _floats([f_node], "f_at_node")[0]

    stats = first_order_coupling_stats(X, spec, n, seed, coupling=coupling)
    db = first_order_bound(stats["coupling_gap"], stats["alpha"], stats["b_mean"],
                           exp["constants"], f_at_node=f_node)
    report = {
        "order": 1,
        "coupling": coupling,
        "n_samples": n,
        "seed": seed,
        "target": exp.get("target"),
        "constants": list(db.constants),
        "coupling_gap": db.coupling_gap,
        "alpha_dev": db.alpha_dev,
        "b_mean": stats["b_mean"],
        "bound": db.bound,
        "ingredient_se": {"coupling_gap": stats["coupling_gap_se"],
                          "alpha": stats["alpha_se"], "b_mean": stats["b_mean_se"]},
    }
    _emit(report, args.out)
    if args.out_csv:
        _write_csv(args.out_csv, "ingredient,estimate,se",
                   ["coupling_gap", "alpha", "b_mean", "bound"],
                   [stats["coupling_gap"], stats["alpha"], stats["b_mean"], db.bound],
                   [stats["coupling_gap_se"], stats["alpha_se"], stats["b_mean_se"], float("nan")])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biasforge",
                                     description="sign-change biased distributional transforms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in distributions and biasing functions")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_catalog)

    def add_transform_args(p, need_bias=True):
        p.add_argument("--dist", required=True, help="distribution JSON")
        p.add_argument("--bias", required=need_bias, help="bias name or piecewise JSON")
        p.add_argument("--nodes", default=None, help="JSON array of sign-change nodes")
        p.add_argument("--m", type=int, default=None, help="derivative order (default: k)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    for name in ("transform", "bias-km"):
        p = sub.add_parser(name, help="construct a transform and report its normalizers")
        add_transform_args(p)
        p.add_argument("--k", type=int, default=None,
                       help="expected sign-change count (checked against the spec's nodes)")
        p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("sample", help="draw from a distribution or its transform")
    add_transform_args(p, need_bias=False)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("density", help="tabulate a density on a grid as CSV")
    add_transform_args(p, need_bias=False)
    p.add_argument("--grid", nargs=3, required=True, metavar=("LO", "HI", "POINTS"))
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=tuple(_SUITES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("distance", help="coupling-based distance bound experiment")
    p.add_argument("--experiment", required=True,
                   help="experiment JSON (inline, or @path to a file)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(handler=_cmd_distance)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BiasforgeError as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # internal error
        json.dump({"error": {"type": "InternalError",
                             "message": f"{type(exc).__name__}: {exc}"}}, sys.stderr)
        sys.stderr.write("\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
