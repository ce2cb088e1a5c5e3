#!/usr/bin/env python3
"""Print the values of a fixed set of laws, one line per law, so that the
dumps of two source trees can be compared with ``diff``: an empty diff is
the bit-identity check of a change that should move no value.

Each line holds the law's name, alpha, beta, support, its density at 257
points of its window, ``numeric_cdf(law, 513)`` at the same points, its
moments of orders 0..8 (``recipe_moments``, or ``moment`` for a law with
no recipe) and the sha256 of 1e5 draws from a fixed seed.  Floats are
printed by ``repr``, which round-trips.

The laws: the nine transforms of the benchmark's ``continuous-cold``
workload, the five kinds of its ``sampling-warm`` workload, the order-4
lifts of ``uniform(-1, 1)`` under the unit bias and under the node product
(x + 0.5)(x - 0.5), and the other second-difference chains: a
second-difference transform and a second-order law, each at a node other
than 0, the same second difference far from the origin (``normal(1000,
1)`` at 1000), the second-order operator's ``higher_order_transform`` and
the order-6 unit lift of ``normal()``; the second difference at 1000 of
the atoms {999, 1000.5, 1001} (masses 1/4, 1/2, 1/4) and of the mixture of
two two-atom laws with the same masses, and the zero bias of
``uniform(-1, 1)`` lifted to order 5, a chain on a one-node base; the
node product (x + 0.5)(x - 0.5) on five atoms, an identity table on point
masses, the zero bias of the mixture of the atoms {0, 1} and
``uniform(-1, 1)``, which reads one table per component, and the zero bias
of 1e3 samples lifted to order 3, a one-node base on atoms inside a chain.
Only the public API is used.

    PYTHONPATH=src python scripts/dump_values.py > values.txt
"""

import hashlib
import sys

import numpy as np

import biasforge as bf

GRID = 257
CDF_GRID = 513
TOP = 8
DRAWS = 100_000
DRAW_SEED = 20240531
EMPIRICAL_SEED = 1  # the seed of the empirical law's 5e4 samples, normal(0.3, 1.1)
FAR_ATOMS = [(999.0, 0.25), (1000.5, 0.5), (1001.0, 0.25)]
FIVE_ATOMS = [(-1.0, 0.2), (-0.25, 0.3), (0.1, 0.1), (0.75, 0.15), (1.5, 0.25)]


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _identity(x):
    return np.asarray(x, dtype=float)


def _plus_part(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def _sign(x):
    return np.sign(np.asarray(x, dtype=float))


def _zero_bias():
    return bf.SignChangeSpec(_identity, bf.NodeSet((0.0,)), label="x")


def _unit():
    return bf.SignChangeSpec(_ones, bf.NodeSet(()), label="1")


def _centered(mean):
    """B(x) = x - mean with its node at the mean."""
    return bf.SignChangeSpec(lambda x: np.asarray(x, dtype=float) - mean, bf.NodeSet((mean,)),
                             label=f"x-{mean}")


def _xplus(node):
    return bf.SignChangeSpec(_plus_part, bf.NodeSet((float(node),)), kinks=(0.0,),
                             label=f"x-plus@{node}")


def _node_product(nodes):
    """B(x) = prod(x - x_j) at the nodes x_j."""
    def B(x):
        arr = np.asarray(x, dtype=float)
        out = np.ones_like(arr)
        for xj in nodes:
            out = out * (arr - xj)
        return out
    return bf.SignChangeSpec(B, bf.NodeSet(nodes), label=f"prod(x-{nodes})")


def laws():
    """(name, builder) of every law the dump covers."""
    U = bf.uniform(-1.0, 1.0)
    half_normals = lambda: bf.make_mixture([bf.half_normal(1.2), bf.negative_half_normal(1.2)],
                                           [0.3, 0.7])
    samples = np.random.default_rng([EMPIRICAL_SEED, 4]).normal(0.3, 1.1, 50_000)
    few = np.random.default_rng([EMPIRICAL_SEED, 5]).normal(0.3, 1.1, 1_000)
    return [
        # continuous-cold
        ("normal-zero-bias", lambda: bf.bias(bf.normal(), _zero_bias())),
        ("exponential-equilibrium", lambda: bf.bias(bf.exponential(1.0), bf.SignChangeSpec(
            _sign, bf.NodeSet((0.0,)), kinks=(0.0,)))),
        ("half-normal-mixture-zero-bias", lambda: bf.bias(half_normals(), _zero_bias())),
        ("uniform-xplus-node-1", lambda: bf.bias(U, _xplus(-1.0))),
        ("uniform-xplus-node0", lambda: bf.bias(U, _xplus(0.0))),
        ("uniform-chain-k2", lambda: bf.bias(U, _node_product((-0.5, 0.5)))),
        ("uniform-chain-k3", lambda: bf.bias(U, _node_product((-0.6, 0.0, 0.6)))),
        ("uniform-lift-order2", lambda: bf.bias_to_order(U, _unit(), 2)),
        ("normal-second-order", lambda: bf.second_order_transform(bf.normal(), _ones,
                                                                  _zero_bias())),
        # sampling-warm
        ("warm/seed-and-shrink", lambda: bf.bias(U, _node_product((-0.5, 0.5)))),
        ("warm/inverse-cdf-tilt", lambda: bf.tilt(bf.exponential(1.0), _identity)),
        ("warm/order-2-lift", lambda: bf.bias_to_order(U, _unit(), 2)),
        ("warm/second-order-mixture", lambda: bf.second_order_transform(bf.normal(), _ones,
                                                                       _zero_bias())),
        ("warm/empirical-bootstrap", lambda: bf.bias(bf.from_samples(samples), _zero_bias())),
        # order-4 lifts, whose draws tilt a tabulated law
        ("uniform-lift-order4-unit", lambda: bf.bias_to_order(U, _unit(), 4)),
        ("uniform-lift-order4-k2", lambda: bf.bias_to_order(U, _node_product((-0.5, 0.5)), 4)),
        # the other second-difference chains
        ("normal-second-difference", lambda: bf.second_difference_transform(
            bf.normal(0.3, 1.2), 0.37)),
        ("normal-second-difference-far", lambda: bf.second_difference_transform(
            bf.normal(1000.0, 1.0), 1000.0)),
        ("normal-second-order-node", lambda: bf.second_order_transform(
            bf.normal(0.5, 1.0), _ones, _centered(0.5))),
        ("normal-operator-order2", lambda: bf.higher_order_transform(
            bf.normal(), bf.SteinOperator(2, (_unit(), _zero_bias())))),
        ("normal-lift-order6", lambda: bf.bias_to_order(bf.normal(), _unit(), 6)),
        ("atoms-second-difference-far", lambda: bf.second_difference_transform(
            bf.from_atoms(FAR_ATOMS), 1000.0)),
        ("atom-mixture-second-difference-far", lambda: bf.second_difference_transform(
            bf.make_mixture([bf.from_atoms([(999.0, 0.5), (1000.5, 0.5)]),
                             bf.from_atoms([(1000.5, 0.5), (1001.0, 0.5)])], [0.5, 0.5]), 1000.0)),
        ("uniform-zero-bias-lift-order5", lambda: bf.bias_to_order(U, _zero_bias(), 5)),
        # every tail-table branch: an identity table and a one-node base on atoms,
        # and one table per component of a mixture without a density
        ("atoms-chain-k2", lambda: bf.bias(bf.from_atoms(FIVE_ATOMS), _node_product((-0.5, 0.5)))),
        ("atoms-and-uniform-zero-bias", lambda: bf.bias(bf.make_mixture(
            [bf.from_atoms([(0.0, 0.5), (1.0, 0.5)]), U], [0.5, 0.5]), _zero_bias())),
        ("empirical-zero-bias-lift-order3", lambda: bf.bias_to_order(
            bf.from_samples(few), _zero_bias(), 3)),
    ]


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in np.ravel(values))


def dump_line(name: str, made) -> str:
    """The one line of the law ``made``, a transform or a bare law."""
    law = getattr(made, "law", made)
    alpha, beta = getattr(made, "alpha", None), getattr(made, "beta", None)
    ts = np.linspace(*law.effective_support(), GRID)
    if getattr(made, "recipe", None) is not None:
        moments = bf.recipe_moments(made.recipe, TOP)
    else:
        moments = [bf.moment(law, p) for p in range(TOP + 1)]
    draws = bf.sample(law, bf.RandomSource(DRAW_SEED), DRAWS)
    fields = [
        name,
        f"alpha={alpha!r}",
        f"beta={beta!r}",
        f"support={law.lo!r},{law.hi!r}",
        f"density={_floats(law.density(ts))}",
        f"cdf={_floats(bf.numeric_cdf(law, CDF_GRID)(ts))}",
        f"moments={_floats(moments)}",
        f"draws={hashlib.sha256(np.ascontiguousarray(draws).tobytes()).hexdigest()}",
    ]
    return " ".join(fields)


def main():
    for name, build in laws():
        print(dump_line(name, build()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
