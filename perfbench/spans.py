"""Span tracing of biasforge's public functions, installed from outside the
library.

Each traced function is replaced by a wrapper in every ``biasforge``
module that binds it (``from .distributions import integrate_fn`` makes a
second binding in ``transform``, ``stein`` and so on), and
``TabulatedDensity`` / ``Distribution`` methods are replaced on the class.
A span is ``(name, start_ns, end_ns, parent)``; spans stay in memory and are
written once, at the end of the run.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
from collections import Counter, defaultdict

_now = time.perf_counter_ns

# (defining module, attribute, span name).  An attribute "Class.method"
# is replaced on the class.
TARGETS = (
    ("distributions", "integrate_fn", "integrate_fn"),
    ("distributions", "Distribution.effective_support", "effective_support"),
    ("distributions", "TabulatedDensity.from_callable", "TabulatedDensity.from_callable"),
    ("distributions", "TabulatedDensity.pdf", "TabulatedDensity.lookup"),
    ("distributions", "TabulatedDensity.cdf", "TabulatedDensity.lookup"),
    ("distributions", "TabulatedDensity.ppf", "TabulatedDensity.lookup"),
    ("distributions", "tilt", "tilt"),
    ("distributions", "numeric_cdf", "numeric_cdf"),
    ("distributions", "cache_density", "cache_density"),
    ("distributions", "sample", "sample"),
    ("distributions", "moment", "moment"),
    ("transform", "bias", "bias"),
    ("transform", "validate_spec", "validate_spec"),
    ("transform", "alpha_of", "alpha_of"),
    ("transform", "expectation", "expectation"),
    ("transform", "density_k1", "density_k1"),
    ("transform", "lift_density", "lift_density"),
    ("transform", "recipe_moments", "recipe_moments"),
    ("higher", "bias_to_order", "bias_to_order"),
    ("higher", "beta_of", "beta_of"),
    ("polynomials", "lagrange_poly", "lagrange_poly"),
    ("polynomials", "correction_poly", "correction_poly"),
    ("stein", "second_order_transform", "second_order_transform"),
    ("stein", "second_order_density", "second_order_density"),
    ("stein", "first_order_coupling_stats", "first_order_coupling_stats"),
    ("verify", "check_identity_exact", "check_identity_exact"),
    ("verify", "check_identity_mc", "check_identity_mc"),
    ("verify", "ks_statistic", "ks_statistic"),
    ("cli", "run", "cli.run"),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "biasforge" or name.startswith("biasforge."))]


class Tracer:
    """Collects spans and work counters while ``active``."""

    def __init__(self):
        self.active = False
        self.spans = []          # (name, start_ns, end_ns, parent index or -1)
        self.counters = Counter()
        self._stack = []
        self._patches = []       # (owner, attribute, original, wrapper)

    # -- spans --------------------------------------------------------------

    def span(self, name):
        """Context manager recording one span (used for the benchmark's own
        operations, so library spans nest under the operation that caused
        them)."""
        return _Span(self, name)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, (self._stack[-2] if len(self._stack) > 1 else -1), _now()

    def _close(self, idx, name, parent, start):
        end = _now()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx, parent, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if name == "integrate_fn" and type(exc).__name__ == "NonIntegrable":
                    tracer.counters["integrate_fn.failures"] += 1
                raise
            finally:
                tracer._close(idx, name, parent, start)
            if count is not None:
                count(tracer.counters, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Replace every target in every loaded biasforge module."""
        if self._patches:
            return
        modules = _package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, attr, span_name in TARGETS:
            home = by_name.get(mod_name)
            if home is None:
                continue
            count = _COUNTS.get(span_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = self._wrap(span_name, fn, count)
                self._patch(cls, meth, raw, staticmethod(wrapper) if is_static else wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(span_name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, replacement))

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched_names(self):
        return sorted({f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in self._patches})

    # -- results ------------------------------------------------------------

    def summary(self):
        """Calls and self seconds per span name, plus the work counters."""
        child = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls = Counter()
        self_ns = Counter()
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            calls[name] += 1
            self_ns[name] += (end - start) - child[i]
        return {"calls": dict(calls),
                "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "counters": dict(self.counters)}

    def write(self, path):
        """Write every span as gzip CSV: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "start_ns", "end_ns"))
            for i, span in enumerate(self.spans):
                if span is not None:
                    out.writerow((i, span[3], span[0], span[1], span[2]))


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.state = None

    def __enter__(self):
        if self.tracer.active:
            self.state = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        if self.state is not None:
            idx, parent, start = self.state
            self.tracer._close(idx, self.name, parent, start)
        return False


def _count_points(counters, table):
    counters["TabulatedDensity.from_callable.points"] += int(table.xs.size)


def _count_draws(counters, draws):
    counters["sample.draws"] += int(draws.size)


_COUNTS = {
    "TabulatedDensity.from_callable": _count_points,
    "sample": _count_draws,
}
