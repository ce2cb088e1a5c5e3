"""Every library name the benchmark's tracer wraps must exist, so a rename
fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attr, span", _targets())
def test_trace_target_resolves(module, attr, span):
    mod = importlib.import_module(f"biasforge.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr))
