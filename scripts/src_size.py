#!/usr/bin/env python3
"""Print the two sizes the package's simplicity is judged by.

    python3 scripts/src_size.py

``src_lines`` is the ``wc -l`` total of ``src/biasforge/*.py`` (newline
characters counted); ``public_names`` is the number of names the
``biasforge`` package binds that are not modules and do not start with an
underscore.  Reports and does not gate.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "biasforge"


def src_lines(package: Path = PACKAGE) -> int:
    """Newline characters over the package's ``*.py`` files, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


def public_names(module: types.ModuleType) -> list:
    """The sorted names ``module`` binds that are neither modules nor private."""
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def main() -> None:
    sys.path.insert(0, str(PACKAGE.parent))
    package = importlib.import_module("biasforge")
    print(f"src_lines {src_lines()}")
    print(f"public_names {len(public_names(package))}")


if __name__ == "__main__":
    main()
