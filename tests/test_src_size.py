"""The size report of scripts/src_size.py on a synthetic package and a module."""

import importlib.util
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_size.py"


@pytest.fixture(scope="module")
def size():
    spec = importlib.util.spec_from_file_location("src_size", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_count_newlines_as_wc_does(size, tmp_path):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (tmp_path / "notes.txt").write_text("not\ncounted\n")
    assert size.src_lines(tmp_path) == 2


def test_public_names_skip_modules_and_private_names(size):
    module = types.ModuleType("pkg")
    module.bias, module.NodeSet, module._TailTable = object(), type("NodeSet", (), {}), object()
    module.transform = types.ModuleType("pkg.transform")
    assert size.public_names(module) == ["NodeSet", "bias"]
