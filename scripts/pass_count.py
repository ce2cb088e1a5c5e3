#!/usr/bin/env python3
"""Print the panel passes each transform takes, step by step.

    PYTHONPATH=src python3 scripts/pass_count.py

A panel pass is one call of ``distributions._panels``, counted through
every module that binds the name.  For each transform the steps are its
construction, a first 257-point density read, 1,000 draws and
``recipe_moments(., 4)``, in that order on one fresh transform; the read
spans the law's window (``effective_support``).  The transforms are the
nine of catalog laws that the benchmark's continuous-cold workload
builds, the order-4 and order-6 unit lifts of ``normal()``,
``higher_order_transform`` of the second-order operator (unit B0,
zero-bias B1) on ``normal()``, the second-difference transform of
``normal(0.3, 1.2)`` at 0.37 and the zero bias of ``uniform(-1, 1)``
lifted to order 5, a chain on a one-node base.  Reports and does not gate.
"""

from __future__ import annotations

import contextlib

import numpy as np

import biasforge as bf
import biasforge.distributions as distributions
import biasforge.higher as higher
import biasforge.stein as stein
import biasforge.transform as transform

STEPS = ("construct", "read", "draws", "moments")
READ_POINTS = 257
DRAWS = 1000


def _ident(x):
    return np.asarray(x, dtype=float)


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _plus(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def _product(nodes):
    return bf.SignChangeSpec(lambda x: np.prod([np.asarray(x, float) - a for a in nodes], axis=0),
                             bf.NodeSet(nodes))


def bias_cases() -> list:
    """(name, X, spec) of the seven ``bias`` transforms of catalog densities
    that the benchmark's continuous-cold workload builds."""
    zero = bf.SignChangeSpec(_ident, bf.NodeSet((0.0,)))
    U = bf.uniform(-1.0, 1.0)
    halves = bf.make_mixture([bf.half_normal(1.2), bf.negative_half_normal(1.2)], [0.3, 0.7])
    return [("normal-zero-bias", bf.normal(), zero),
            ("exponential-equilibrium", bf.exponential(1.0),
             bf.SignChangeSpec(np.sign, bf.NodeSet((0.0,)), kinks=(0.0,))),
            ("half-normal-mixture-zero-bias", halves, zero),
            ("uniform-xplus-node-1", U, bf.SignChangeSpec(_plus, bf.NodeSet((-1.0,)), kinks=(0.0,))),
            ("uniform-xplus-node0", U, bf.SignChangeSpec(_plus, bf.NodeSet((0.0,)), kinks=(0.0,))),
            ("uniform-chain-k2", U, _product((-0.5, 0.5))),
            ("uniform-chain-k3", U, _product((-0.6, 0.0, 0.6)))]


def transforms() -> dict:
    """Name -> a function that builds the transform afresh."""
    zero = bf.SignChangeSpec(_ident, bf.NodeSet((0.0,)))
    operator = bf.SteinOperator(2, (bf.unit_bias_spec(), zero))
    return {
        **{name: (lambda X=X, spec=spec: bf.bias(X, spec)) for name, X, spec in bias_cases()},
        "uniform-lift-order2": lambda: bf.bias_to_order(bf.uniform(-1.0, 1.0), bf.SignChangeSpec(_ones), 2),
        "normal-second-order": lambda: bf.second_order_transform(bf.normal(), _ones, zero),
        "normal-lift-order4": lambda: bf.bias_to_order(bf.normal(), bf.unit_bias_spec(), 4),
        "normal-lift-order6": lambda: bf.bias_to_order(bf.normal(), bf.unit_bias_spec(), 6),
        "normal-operator-order2": lambda: bf.higher_order_transform(bf.normal(), operator),
        "normal-second-difference": lambda: bf.second_difference_transform(bf.normal(0.3, 1.2), 0.37),
        "uniform-zero-bias-lift-order5": lambda: bf.bias_to_order(bf.uniform(-1.0, 1.0), zero, 5),
    }


@contextlib.contextmanager
def counted_panels(calls: dict):
    """Count in ``calls["panels"]`` the ``_panels`` calls made inside the
    block, through every module that binds the name."""
    original = distributions._panels

    def wrapper(*args, **kwargs):
        calls["panels"] += 1
        return original(*args, **kwargs)

    modules = [m for m in (distributions, transform, higher, stein) if hasattr(m, "_panels")]
    for module in modules:
        module._panels = wrapper
    try:
        yield calls
    finally:
        for module in modules:
            module._panels = original


def count_passes(build) -> dict:
    """The panel passes of each step of ``STEPS`` on the transform ``build()`` makes."""
    out, calls = {}, {"panels": 0}
    with counted_panels(calls):
        t = build()
        out["construct"] = calls["panels"]
        t.density(np.linspace(*t.law.effective_support(), READ_POINTS))
        out["read"] = calls["panels"] - sum(out.values())
        t.sample(DRAWS, bf.RandomSource(1))
        out["draws"] = calls["panels"] - sum(out.values())
        bf.recipe_moments(t.recipe, 4)
        out["moments"] = calls["panels"] - sum(out.values())
    return out


def main() -> None:
    print(f"{'transform':32s}" + "".join(f"{s:>10s}" for s in STEPS) + f"{'total':>8s}")
    for name, build in transforms().items():
        counts = count_passes(build)
        print(f"{name:32s}" + "".join(f"{counts[s]:10d}" for s in STEPS)
              + f"{sum(counts.values()):8d}")


if __name__ == "__main__":
    main()
