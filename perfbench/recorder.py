"""Timed operations and correctness checks of one benchmark run."""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Op:
    kind: str       # construct | density | draws | exact | mc | command
    label: str
    seconds: float
    units: float    # density points, draws or reports, depending on the kind
    start: float = 0.0
    end: float = 0.0
    factor: float = 1.0   # to reference-machine seconds (see probe.SpeedProbe)


@dataclass
class Check:
    name: str
    passed: bool
    use: float      # error over its tolerance; 0 when the check is pass/fail


class Recorder:
    """Collects operations and checks.  An operation that raises is recorded
    as a failed check under its label and the run goes on: a configuration
    that fails is counted, never dropped."""

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed
        self.ops = []
        self.checks = []
        self.errors = []

    @contextmanager
    def op(self, kind, label, units=0.0):
        """Time one library operation.  Yields a dict whose "units" entry the
        body may set once it knows how much work was returned."""
        box = {"units": units}
        if self.speed is not None:
            self.speed.due()
        span = self.tracer.span(f"op.{kind}") if self.tracer is not None else None
        start = time.perf_counter()
        try:
            if span is not None:
                with span:
                    yield box
            else:
                yield box
        except Exception as exc:  # a raising configuration is a failed check
            end = time.perf_counter()
            self.ops.append(Op(kind, label, end - start, 0.0, start, end))
            self.check(f"{label}: raised {type(exc).__name__}", False)
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}\n"
                               + traceback.format_exc(limit=4))
            raise OpFailed(label) from exc
        end = time.perf_counter()
        self.ops.append(Op(kind, label, end - start, float(box["units"]), start, end))

    def check(self, name, passed, err=None, tol=None):
        use = 0.0
        if err is not None and tol:
            use = float(err) / float(tol)
        self.checks.append(Check(name, bool(passed), use))
        return bool(passed)

    def within(self, name, err, tol):
        """Record |err| <= tol as a check."""
        err = abs(float(err))
        return self.check(name, err <= tol, err, tol)

    @property
    def failed(self):
        return [c.name for c in self.checks if not c.passed]


class OpFailed(Exception):
    """Raised out of ``Recorder.op`` after the failure has been recorded, so
    the caller can skip the dependent steps of that configuration."""
