import sys
import threading

import numpy as np
import pytest

import biasforge as bf


@pytest.fixture
def rng():
    return bf.RandomSource(20260810)


@pytest.fixture
def uniform_sym():
    return bf.uniform(-1.0, 1.0)


def atoms_strategy():
    """Hypothesis strategy for small discrete laws on [-3, 3]."""
    from hypothesis import strategies as st

    def build(xs, raw_w):
        xs = sorted(set(round(x, 6) for x in xs))
        w = np.asarray(raw_w[: len(xs)], dtype=float) + 0.05
        w = w / w.sum()
        return bf.from_atoms(list(zip(xs, w)))

    return st.builds(
        build,
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=6, unique=True),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=6, max_size=6),
    )


def call_concurrently(fn, workers=4, timeout=120.0):
    """Run ``fn`` in ``workers`` threads released together; return the
    results.  The switch interval is shortened so the threads interleave
    inside ``fn``."""
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def work(i):
        barrier.wait()
        results[i] = fn()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    return results


@pytest.fixture
def construction_calls(monkeypatch):
    """Counts of the panel passes (``_panels`` calls, from ``distributions``
    and from ``transform``'s tail tables) and of the ``expectation`` and
    ``beta_of`` calls that ``higher`` and ``stein`` make."""
    import biasforge.distributions as distributions
    import biasforge.higher as higher
    import biasforge.stein as stein
    import biasforge.transform as transform

    calls = {"panels": 0, "expectation": 0, "beta_of": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    panels = counted("panels", distributions._panels)
    for module in (distributions, transform):
        monkeypatch.setattr(module, "_panels", panels)
    expect = counted("expectation", distributions.expectation)
    for module in (higher, stein):
        monkeypatch.setattr(module, "expectation", expect)
    monkeypatch.setattr(higher, "beta_of", counted("beta_of", higher.beta_of))
    return calls
